// The benchmark's workloads: each builds its inputs from the seed (set-up)
// and declares a grid of cells over them. A cell is one simulation whose
// counters pass the verify module's identities; it throws StatusError when
// they do not, so the runner records it as failed.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "support/experiment.h"

namespace perfbench {

// The program's default configuration, which the benchmark measures.
inline constexpr double kScaleFactor = 0.002;
inline constexpr std::uint64_t kDefaultSeed = 19990401;
inline constexpr std::uint32_t kLineBytes = 32;

struct Cell {
  std::string name;  // unique in the workload, no spaces
  std::vector<std::pair<std::string, std::string>> params;
  std::function<stc::ExperimentResult()> run;
};

// A workload's set-up state and its grid. Each workload runs its set-up in
// its constructor and declares its cells with add(); cells only read the
// state, which lives as long as the workload.
class Workload {
 public:
  virtual ~Workload() = default;

  const std::vector<Cell>& cells() const { return cells_; }
  // Runner metadata, as bench::make_runner records it.
  std::uint64_t training_events() const { return training_events_; }
  std::uint64_t test_events() const { return test_events_; }

 protected:
  void add(std::string name,
           std::vector<std::pair<std::string, std::string>> params,
           std::function<stc::ExperimentResult()> run) {
    cells_.push_back({std::move(name), std::move(params), std::move(run)});
  }

  std::vector<Cell> cells_;
  std::uint64_t training_events_ = 0;
  std::uint64_t test_events_ = 0;
};

const std::vector<std::string>& workload_names();

// Runs the set-up of workload `name` for `seed`. `scratch_dir` holds files
// the workload writes (the composed trace of stream_compose). Returns null
// for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& scratch_dir);

}  // namespace perfbench
