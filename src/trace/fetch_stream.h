// The dynamic basic block the architecture simulators consume, with its
// addresses resolved under a code layout. The simulators get BlockRuns from
// a replay plan (sim/replay.h). The per-event walk over a BlockTrace that a
// plan must reproduce is one of the oracle's reference implementations and
// lives with them in src/verify/reference.h.
//
// Taken-branch semantics follow the paper's simulation methodology: block
// sizes never change across layouts, and a dynamic transition A -> B is
// *sequential* iff addr(B) == addr(A) + size(A); any other transition is a
// taken control transfer. A block whose kind is not fall-through ends with a
// branch instruction (conditional/unconditional branch, call or return), all
// of which count against the fetch unit's branch limit.
#pragma once

#include <cstdint>

#include "cfg/program.h"
#include "support/stats.h"

namespace stc::trace {

// One dynamic basic block with layout-resolved addresses.
struct BlockRun {
  cfg::BlockId block = cfg::kInvalidBlock;  // the event's block id
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
