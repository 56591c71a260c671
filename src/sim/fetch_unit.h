// SEQ.3 sequential fetch unit (Rotenberg et al., MICRO'96), as used by the
// paper's Table 4 evaluation.
//
// Per cycle the unit accesses two consecutive cache lines and provides the
// instructions from the fetch address up to the first taken branch, or up to
// a maximum of three branches, or 16 instructions, whichever comes first.
// Branch prediction is perfect (the recorded trace is the actual path), and
// i-cache misses charge a fixed penalty. All control-transfer instructions
// (conditional/unconditional branches, calls, returns) count against the
// three-branch limit, as in Section 7.3 of the paper.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "cfg/address_map.h"
#include "cfg/program.h"
#include "sim/icache.h"
#include "trace/fetch_stream.h"

namespace stc::sim {

class ReplayPlan;  // sim/replay.h

// Instruction-granular cursor over the dynamic path with bounded lookahead.
// Shared by the sequential fetch unit and the trace cache simulator.
//
// Two interchangeable backends feed it: the interpreter's BlockRunStream, or
// a pre-built ReplayPlan whose make_run() materializes the identical
// BlockRun values from flat tables. Everything downstream of refill() is the
// same code either way, which is what makes compiled replay bit-identical
// to the interpreter by construction.
class FetchPipe {
 public:
  struct Insn {
    std::uint64_t addr = 0;
    bool block_end = false;  // last instruction of its basic block
    bool is_branch = false;  // block_end of a branch/call/return block
    bool taken = false;      // block_end whose transition is non-sequential
    cfg::BlockKind kind = cfg::BlockKind::kFallThrough;  // its block's kind
  };

  FetchPipe(const trace::BlockTrace& trace, const cfg::ProgramImage& image,
            const cfg::AddressMap& layout);
  explicit FetchPipe(const ReplayPlan& plan);

  bool done() const { return buffer_.empty(); }
  std::uint64_t addr() const;  // current instruction address; requires !done()

  // Looks `k` instructions ahead (k == 0 is the current instruction).
  // Returns false if the trace ends before that instruction.
  bool peek(std::uint32_t k, Insn& out);

  // Consumes `n` instructions; requires that many remain.
  void consume(std::uint32_t n);

 private:
  void refill(std::uint32_t needed_insns);

  std::optional<trace::BlockRunStream> stream_;  // interpreter backend
  const ReplayPlan* plan_ = nullptr;             // compiled-plan backend
  std::uint64_t next_event_ = 0;                 // plan cursor
  std::deque<trace::BlockRun> buffer_;
  std::uint32_t front_offset_ = 0;  // instructions consumed of buffer_.front()
  std::uint64_t buffered_insns_ = 0;
  bool stream_done_ = false;
};

struct FetchParams {
  std::uint32_t width = 16;         // instructions per cycle, max
  std::uint32_t max_branches = 3;   // branch limit per fetch
  std::uint32_t miss_penalty = 5;   // cycles per missing fetch request
  bool perfect_icache = false;      // Table 4 "Ideal" rows
  // When true, each of the two accessed lines that misses charges its own
  // penalty; the default charges one penalty per fetch request that misses.
  bool penalty_per_line = false;
};

struct FetchResult {
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  std::uint64_t fetch_requests = 0;
  std::uint64_t miss_requests = 0;   // requests with at least one line miss
  std::uint64_t lines_missed = 0;
  std::uint64_t tc_hits = 0;         // trace-cache runs only
  std::uint64_t tc_misses = 0;
  std::uint64_t tc_fills = 0;        // traces committed by the fill buffer
  std::uint64_t tc_probes = 0;       // trace-cache lookups (hits + misses)

  double ipc() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(instructions) /
                             static_cast<double>(cycles);
  }
  double tc_hit_ratio() const {
    const std::uint64_t total = tc_hits + tc_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(tc_hits) /
                            static_cast<double>(total);
  }

  // Registers the raw event counts for machine-readable reporting.
  void export_counters(CounterSet& out) const;
};

// One SEQ.3 fetch cycle against `pipe`: decides how many instructions the
// unit supplies and which lines it touches. Exposed for reuse by the trace
// cache simulator and for unit tests.
struct Seq3Cycle {
  std::uint32_t supplied = 0;
  std::uint64_t line0 = 0;       // first accessed line address
  bool touched_line1 = false;    // fetch extended into the second line
};

// Optional capture of the instructions a fetch cycle supplied, plus the
// address of the instruction that follows the group (the fetch redirect
// target). Consumed by the speculative front end (src/frontend), which must
// resolve the group's branches after the cycle has advanced the pipe.
struct Seq3Group {
  std::vector<FetchPipe::Insn> insns;
  bool has_next = false;        // an instruction follows the group
  std::uint64_t next_addr = 0;  // its address (valid only when has_next)
};

Seq3Cycle seq3_fetch_cycle(FetchPipe& pipe, const FetchParams& params,
                           std::uint32_t line_bytes,
                           Seq3Group* group = nullptr);

// Runs the full trace through SEQ.3 backed by `cache` (reset first).
// `cache` may be null only with params.perfect_icache.
FetchResult run_seq3(const trace::BlockTrace& trace,
                     const cfg::ProgramImage& image,
                     const cfg::AddressMap& layout, const FetchParams& params,
                     ICache* cache);

// Compiled replay of the same simulation from a pre-built plan
// (sim/replay.h); counters are bit-identical to the interpreter overload.
FetchResult run_seq3(const ReplayPlan& plan, const FetchParams& params,
                     ICache* cache);

}  // namespace stc::sim
