// One timed pass of a workload's grid through support's ExperimentRunner,
// with every cell's counters checked against a reference digest.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "support/stats.h"
#include "workloads.h"

namespace perfbench {

// Grid workers: half of the 4-core reference machine. Under neighbour load
// the same grid's wall time swung by +-17% on four workers and by +-4% on
// two, which still keep cross-thread contention visible (README.md).
constexpr std::size_t kWorkers = 2;

struct CellTiming {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double cpu_s = 0.0;  // the worker thread's CPU time over the cell
  std::thread::id thread;
};

struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  std::uint64_t ctx_switches = 0;
};

// Maximum resident set size of the process so far, in MiB.
double peak_rss_mb();

// FNV-1a over every counter's name and value, in export order.
std::uint64_t counter_digest(const stc::CounterSet& counters);

using DigestMap = std::map<std::string, std::uint64_t>;  // by cell name

struct PassInput {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double setup_s = 0.0;
  std::uint64_t training_events = 0;
  std::uint64_t test_events = 0;
  // Reference digests; null checks only the verify identities. A cell whose
  // digest differs from its reference, or has none, fails.
  const DigestMap* reference = nullptr;
  // When set, every passing cell's digest is stored here.
  DigestMap* record = nullptr;
};

struct PassResult {
  std::int64_t start_ns = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;   // user + sys over the grid
  Usage usage;          // deltas over the grid
  double steal_s = 0.0;  // hypervisor steal over the grid, all CPUs
  double report_s = 0.0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  std::vector<CellTiming> cells;  // by cell index
  stc::CounterSet totals;         // counters summed over the passing cells
};

// Runs every cell once on kWorkers threads through an ExperimentRunner
// configured the way bench::make_runner configures every bench's runner
// (shardable, hence journaled), then writes its report, so the runner's
// per-cell costs are the ones users pay. Journal and report land in
// STC_BENCH_DIR.
PassResult run_pass(const std::vector<Cell>& cells, const PassInput& in);

// Runner-side timing of one pass, from the cells' start/end stamps.
struct RunnerStats {
  double queue_wait_s = 0.0;       // mean wait from pass start to cell start
  double worker_idle_s = 0.0;      // summed idle after each worker's last cell
  double runner_overhead_s = 0.0;  // wall minus the busiest worker's busy time
  double busy_s = 0.0;             // cell time summed over all workers
};
RunnerStats runner_stats(const PassResult& pass);

}  // namespace perfbench
