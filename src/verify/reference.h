// The oracle's reference implementations: the per-event feed and the two
// replay kernels.
//
// A replay plan (sim/replay.h) feeds the simulators from a decoded event
// slab; BlockRunStream, defined here, walks the BlockTrace itself one event
// at a time and is the feed the plan must reproduce (check_plan_feed).
// sim::replay_missrate and sim::replay_sequentiality run span kernels over
// the slab with pre-resolved line tables; reference_missrate and
// reference_sequentiality walk a BlockRunStream and derive every line
// bound from the run's addresses. They are genuinely second
// implementations, so check_plan_replay, check_simulators, STC_VERIFY=1
// bench cells and the replay_throughput bench compare the kernels against
// them.
#pragma once

#include <cstdint>
#include <vector>

#include "cfg/address_map.h"
#include "cfg/program.h"
#include "sim/icache.h"
#include "trace/block_trace.h"
#include "trace/fetch_stream.h"

namespace stc::verify {

// Pull-based stream of BlockRuns with one-block lookahead: the reference
// feed that ReplayPlan::make_run is checked against (check_plan_feed).
class BlockRunStream {
 public:
  BlockRunStream(const trace::BlockTrace& trace,
                 const cfg::ProgramImage& image,
                 const cfg::AddressMap& layout);

  // Fills `out` with the next run; returns false when the trace is exhausted.
  bool next(trace::BlockRun& out);

 private:
  const cfg::ProgramImage& image_;
  const cfg::AddressMap& layout_;
  trace::BlockTrace::Cursor cursor_;
  bool have_pending_ = false;
  cfg::BlockId pending_ = cfg::kInvalidBlock;
};

// Streams every executed instruction of the trace (under `layout`) through
// the cache, touching each line once per crossing. When `per_block_misses`
// is non-null it is resized to the block count and accumulates each miss
// against the block whose instructions triggered it.
sim::MissRateResult reference_missrate(
    const trace::BlockTrace& trace, const cfg::ProgramImage& image,
    const cfg::AddressMap& layout, sim::ICache& cache,
    std::vector<std::uint64_t>* per_block_misses = nullptr);

// Instructions, dynamic blocks and taken transitions of the trace under
// `layout`.
trace::SequentialityStats reference_sequentiality(
    const trace::BlockTrace& trace, const cfg::ProgramImage& image,
    const cfg::AddressMap& layout);

}  // namespace stc::verify
