// Trace cache simulator (Rotenberg, Bennett & Smith, MICRO'96) — the basic
// direct-mapped trace cache the paper combines with its software layouts.
//
// Each entry stores a dynamic sequence of up to `width` instructions spanning
// up to `max_branches` basic blocks. A fetch request first probes the trace
// cache; on a hit the entire stored trace is supplied in one cycle with no
// i-cache access or miss penalty (Section 7.3: "We did not count any miss
// penalty on a trace cache hit"). On a miss, fetching proceeds from the
// conventional i-cache through the SEQ.3 unit while a fill buffer constructs
// a new trace starting at the missed fetch address.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/fetch_unit.h"

namespace stc::sim {

struct TraceCacheParams {
  std::uint32_t entries = 256;      // 256 x 16 insns x 4B = 16KB
  std::uint32_t width = 16;         // instructions per entry, max
  std::uint32_t max_branches = 3;   // branch limit per entry

  std::uint64_t capacity_bytes() const {
    return std::uint64_t{entries} * width * 4;
  }
};

class TraceCache {
 public:
  explicit TraceCache(const TraceCacheParams& params);

  const TraceCacheParams& params() const { return params_; }

  // Probes for a trace starting at `addr` whose stored path matches the
  // upcoming instructions of `pipe`. Returns the number of instructions the
  // hit supplies (0 on miss). Does not consume from the pipe.
  std::uint32_t probe(std::uint64_t addr, FetchPipe& pipe) const;

  // Verification counter: total probe() calls since construction. Every
  // fetch request probes exactly once, and commits can only follow probes,
  // so stored_traces() <= probes() must always hold.
  std::uint64_t probes() const { return probes_; }

  // Fill-buffer interface: feed the instructions the core fetch supplied this
  // cycle (in order). A fill begins at a miss address via begin_fill().
  bool fill_active() const { return fill_active_; }
  void begin_fill(std::uint64_t start_addr);
  void fill_push(const FetchPipe::Insn& insn);

  std::uint64_t stored_traces() const { return stored_; }

 private:
  struct Entry {
    bool valid = false;
    std::uint64_t start = 0;
    std::vector<std::uint64_t> addrs;  // per-instruction addresses
  };

  std::size_t index_of(std::uint64_t addr) const {
    return static_cast<std::size_t>((addr / 4) & (params_.entries - 1));
  }
  void commit_fill();

  TraceCacheParams params_;
  std::vector<Entry> entries_;
  mutable std::uint64_t probes_ = 0;  // probe() is logically const

  bool fill_active_ = false;
  std::uint64_t fill_start_ = 0;
  std::uint32_t fill_branches_ = 0;
  std::vector<std::uint64_t> fill_addrs_;
  std::uint64_t stored_ = 0;
};

// Full combined simulation over the plan's trace (sim/replay.h): trace
// cache in front of SEQ.3 + i-cache. `cache` may be null only with
// params.perfect_icache ("Ideal" row).
FetchResult run_trace_cache(const ReplayPlan& plan, const FetchParams& params,
                            const TraceCacheParams& tc_params, ICache* cache);

}  // namespace stc::sim
