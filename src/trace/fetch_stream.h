// Adapter from a recorded block trace plus a code layout to the BlockRuns
// the architecture simulators consume. The simulators read them from a
// replay plan (sim/replay.h); BlockRunStream is the per-event walk the plan
// must reproduce, read by the oracle (src/verify).
//
// Taken-branch semantics follow the paper's simulation methodology: block
// sizes never change across layouts, and a dynamic transition A -> B is
// *sequential* iff addr(B) == addr(A) + size(A); any other transition is a
// taken control transfer. A block whose kind is not fall-through ends with a
// branch instruction (conditional/unconditional branch, call or return), all
// of which count against the fetch unit's branch limit.
#pragma once

#include <cstdint>

#include "cfg/address_map.h"
#include "cfg/program.h"
#include "support/stats.h"
#include "trace/block_trace.h"

namespace stc::trace {

// One dynamic basic block with layout-resolved addresses.
struct BlockRun {
  std::uint64_t addr = 0;       // start address under the layout
  std::uint32_t insns = 0;      // block size in instructions
  bool ends_in_branch = false;  // last instruction is a control transfer
  cfg::BlockKind kind = cfg::BlockKind::kFallThrough;  // static block kind
  bool has_next = false;        // false only for the final run of the trace
  bool taken = false;           // transition to next run is non-sequential
  std::uint64_t next_addr = 0;  // address of the next run (if has_next)

  std::uint64_t end_addr() const {
    return addr + std::uint64_t{insns} * cfg::kInsnBytes;
  }
};

// Pull-based stream of BlockRuns with one-block lookahead: the reference
// feed that ReplayPlan::make_run is checked against
// (verify::check_plan_feed).
class BlockRunStream {
 public:
  BlockRunStream(const BlockTrace& trace, const cfg::ProgramImage& image,
                 const cfg::AddressMap& layout);

  // Fills `out` with the next run; returns false when the trace is exhausted.
  bool next(BlockRun& out);

 private:
  const cfg::ProgramImage& image_;
  const cfg::AddressMap& layout_;
  BlockTrace::Cursor cursor_;
  bool have_pending_ = false;
  cfg::BlockId pending_ = cfg::kInvalidBlock;
};

// Summary statistics that depend only on trace + layout (no cache model).
struct SequentialityStats {
  std::uint64_t instructions = 0;
  std::uint64_t dynamic_blocks = 0;
  std::uint64_t taken_transitions = 0;

  // The paper's headline code-quality metric (8.9 orig -> 22.4 ops).
  double insns_between_taken_branches() const {
    return taken_transitions == 0
               ? static_cast<double>(instructions)
               : static_cast<double>(instructions) /
                     static_cast<double>(taken_transitions);
  }

  // Registers the raw event counts for machine-readable reporting.
  void export_counters(CounterSet& out) const;
};

}  // namespace stc::trace
