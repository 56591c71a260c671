// Speculative front end: branch prediction + fetch-directed instruction
// prefetching (FDIP) layered onto the paper's SEQ.3 and trace-cache
// simulators.
//
// The replay stays trace-driven: the recorded trace is always the actual
// path, so wrong-path fetch is modeled as bubble cycles rather than by
// executing wrong-path instructions (the standard trace-driven
// approximation). Per fetch cycle the front end
//   1. lets SEQ.3 (or the trace cache) supply the actual-path group,
//   2. resolves every control transfer in the group against the direction
//      predictor, the BTB and the return-address stack, charging
//      `mispredict_penalty` bubble cycles per wrong prediction,
//   3. runs a decoupled fetch-target queue ahead of the fetch unit along the
//      *predicted* path, issuing up to `prefetch_width` i-cache prefetches
//      per cycle for the next `ftq_depth` distinct cache lines. The scan
//      stops at the first branch whose prediction diverges from the trace
//      (the machine would be on the wrong path beyond it) and the queue is
//      flushed on every resolved misprediction.
// Prefetched lines carry the demand miss latency: a demand fetch that
// arrives before its prefetch completes stalls for the residual cycles
// (counted as a *late* prefetch), one that arrives after is a free hit
// (*useful*), and a prefetched line evicted before use is *evicted*.
//
// A block whose non-branch end falls through to a non-adjacent successor
// (the layout moved the successor) is treated as a layout-inserted direct
// unconditional jump: statically known, never predicted, never wrong.
//
// With BpredKind::kPerfect and prefetching off the front end is
// *transparent*: the runs delegate to the plain simulators and reproduce
// Table 3/4 results byte-identically (verified by tests and the oracle).
#pragma once

#include <cstdint>

#include "frontend/branch_predictor.h"
#include "frontend/btb.h"
#include "sim/fetch_unit.h"
#include "sim/icache.h"
#include "sim/trace_cache.h"
#include "support/stats.h"

namespace stc::frontend {

struct FrontEndParams {
  BpredKind kind = BpredKind::kPerfect;
  std::uint32_t table_bits = 12;          // 2^bits pattern counters
  std::uint32_t btb_entries = 512;
  std::uint32_t ras_depth = 16;
  std::uint32_t mispredict_penalty = 5;   // bubble cycles per misprediction
  bool prefetch = false;                  // FDIP run-ahead prefetching
  std::uint32_t ftq_depth = 8;            // fetch-target queue depth (lines)
  std::uint32_t prefetch_width = 2;       // prefetches issued per cycle

  // True when the front end cannot perturb the baseline simulators at all:
  // perfect prediction and no prefetching. Runs then delegate to run_seq3 /
  // run_trace_cache and stay byte-identical to the paper's configuration.
  bool transparent() const {
    return kind == BpredKind::kPerfect && !prefetch;
  }

  // Reads the bench knobs (validated by support/env):
  //   STC_BPRED     - perfect|always|bimodal|gshare|local (default perfect).
  //                   Realistic kinds enable FDIP prefetching.
  //   STC_FTQ_DEPTH - fetch-target queue depth in lines (default 8);
  //                   0 disables prefetching.
  // A malformed knob is a structured error (a typo must not silently
  // measure the baseline); from_environment() prints it and exits 2.
  static Result<FrontEndParams> try_from_environment();
  static FrontEndParams from_environment();
};

struct FrontEndStats {
  std::uint64_t bp_lookups = 0;       // resolved control transfers
  std::uint64_t bp_mispredicts = 0;   // wrong next-fetch-address predictions
  std::uint64_t bp_bubble_cycles = 0; // mispredicts x mispredict_penalty
  std::uint64_t btb_lookups = 0;      // predicted-taken non-return transfers
  std::uint64_t btb_misses = 0;       // no stored target (fell back to +4)
  std::uint64_t ras_pushes = 0;
  std::uint64_t ras_pops = 0;
  std::uint64_t prefetch_issued = 0;  // lines actually fetched ahead
  std::uint64_t prefetch_useful = 0;  // demand hit after the fill completed
  std::uint64_t prefetch_late = 0;    // demand hit while still in flight
  std::uint64_t prefetch_evicted = 0; // evicted (or re-missed) before use
  std::uint64_t prefetch_late_cycles = 0;  // residual stall from late fills

  double mispredicts_per_ki(std::uint64_t instructions) const {
    return instructions == 0
               ? 0.0
               : 1000.0 * static_cast<double>(bp_mispredicts) /
                     static_cast<double>(instructions);
  }

  // Registers the raw event counts for machine-readable reporting.
  void export_counters(CounterSet& out) const;
};

struct FrontEndResult {
  sim::FetchResult fetch;
  FrontEndStats frontend;
};

// SEQ.3 behind the speculative front end, over the plan's trace
// (sim/replay.h). `cache` may be null only with fetch_params.perfect_icache
// (which also disables prefetching).
FrontEndResult run_seq3_frontend(const sim::ReplayPlan& plan,
                                 const sim::FetchParams& fetch_params,
                                 const FrontEndParams& fe_params,
                                 sim::ICache* cache);

// Trace cache + SEQ.3 behind the speculative front end. Next-trace
// selection is keyed by predicted branch outcomes: a stored trace whose
// path diverges from the current predictions is rejected (counted as a
// trace-cache miss) even though the actual path matches, because the
// machine would not have followed it.
FrontEndResult run_trace_cache_frontend(const sim::ReplayPlan& plan,
                                        const sim::FetchParams& fetch_params,
                                        const sim::TraceCacheParams& tc_params,
                                        const FrontEndParams& fe_params,
                                        sim::ICache* cache);

}  // namespace stc::frontend
