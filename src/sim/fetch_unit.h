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
#include <vector>

#include "cfg/address_map.h"
#include "cfg/program.h"
#include "sim/icache.h"
#include "trace/fetch_stream.h"

namespace stc::sim {

class ReplayPlan;  // sim/replay.h
struct Seq3Group;

// Instruction-granular cursor over the dynamic path of a ReplayPlan: its
// state is (event, offset) plus that event's BlockRun. Shared by the
// sequential fetch unit, the trace cache simulator and the back end.
//
// make_run() materializes each event's BlockRun from the plan's flat
// tables, and verify::check_plan_feed proves that feed equals the oracle's
// per-event reference feed (verify/reference.h), so everything downstream
// sees what the per-event walk over the trace would give it. Every block
// holds at least one instruction, so the cursor never rests on an empty run.
class FetchPipe {
 public:
  struct Insn {
    std::uint64_t addr = 0;
    cfg::BlockId block = cfg::kInvalidBlock;  // its block (the event's id)
    bool block_end = false;  // last instruction of its basic block
    bool is_branch = false;  // block_end of a branch/call/return block
    bool taken = false;      // block_end whose transition is non-sequential
    cfg::BlockKind kind = cfg::BlockKind::kFallThrough;  // its block's kind
  };

  // The pipe reads `plan` until done(); it must outlive the pipe.
  explicit FetchPipe(const ReplayPlan& plan);
  explicit FetchPipe(ReplayPlan&&) = delete;

  bool done() const { return event_ == num_events_; }
  std::uint64_t addr() const;  // current instruction address; requires !done()

  // Looks `k` instructions ahead (k == 0 is the current instruction),
  // walking the plan forward from the cursor. Returns false if the trace
  // ends before that instruction.
  bool peek(std::uint32_t k, Insn& out) const;

  // Copies the next `len` instructions (fewer if the trace ends first) into
  // *group in one walk from the cursor, without consuming them: the
  // candidate a trace-cache probe compares against its stored path, and on
  // a hit the group the request supplies whole.
  void peek_group(std::uint32_t len, Seq3Group* group) const;

  // Consumes `n` instructions; requires that many remain.
  void consume(std::uint32_t n);

 private:
  // Instruction `index` of `run`.
  static Insn insn_at(const trace::BlockRun& run, std::uint64_t index);

  const ReplayPlan& plan_;
  const std::uint64_t num_events_;
  std::uint64_t event_ = 0;    // the plan event under the cursor
  std::uint32_t offset_ = 0;   // instructions consumed of run_
  trace::BlockRun run_;        // plan_.make_run(event_) while !done()
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
// unit supplies and which lines it touches. Its one caller is seq3_request.
struct Seq3Cycle {
  std::uint32_t supplied = 0;
  std::uint64_t line0 = 0;       // first accessed line address
  bool touched_line1 = false;    // fetch extended into the second line
};

// Optional capture of the instructions a fetch request supplied, plus the
// address of the instruction that follows the group (the fetch redirect
// target). Read by the trace cache's fill buffer, the speculative front end
// (src/frontend), which resolves the group's branches after the request
// has advanced the pipe, and the back end's decode.
struct Seq3Group {
  std::vector<FetchPipe::Insn> insns;
  bool has_next = false;        // an instruction follows the group
  std::uint64_t next_addr = 0;  // its address (valid only when has_next)
};

// Replaces *group (when non-null) with the instructions it supplies.
Seq3Cycle seq3_fetch_cycle(FetchPipe& pipe, const FetchParams& params,
                           std::uint32_t line_bytes, Seq3Group* group);

// Starts a fetch run: `cache` may be null only with params.perfect_icache,
// and is reset. Returns the line size fetch requests are cut at.
std::uint32_t begin_fetch_run(const FetchParams& params, ICache* cache);

// ---- Front-end policies ----------------------------------------------------
//
// A fetch loop is written once over a front-end policy FE, which supplies
//   bool resolves() const
//       whether retire() reads each request's captured group;
//   bool access(std::uint64_t line_addr, std::uint64_t now,
//               std::uint64_t* wait)
//       the demand i-cache access of one touched line (true on hit); may
//       raise *wait to the residual latency of a late prefetch;
//   std::uint64_t retire(std::uint32_t supplied, const Seq3Group* group)
//       the request's instructions have left the pipe; returns the
//       misprediction bubble cycles (`group` is non-null when resolves());
//   bool accepts_trace(const Seq3Group& hit)
//       whether the front end would follow a trace-cache hit that supplies
//       `hit` (its instructions and the address that follows them);
//   void run_ahead(const FetchPipe& pipe, std::uint64_t now)
//       runs ahead of fetch once the request's cycles are charged.
// NoFrontEnd below is the paper's machine; frontend::Engine is the
// speculative one.

// Perfect prediction and no prefetching: plain i-cache accesses, no stalls
// beyond the miss penalty, and no group capture.
struct NoFrontEnd {
  ICache* cache;

  static constexpr bool resolves() { return false; }
  bool access(std::uint64_t line_addr, std::uint64_t /*now*/,
              std::uint64_t* /*wait*/) {
    return cache->access(line_addr);
  }
  std::uint64_t retire(std::uint32_t /*supplied*/, const Seq3Group*) {
    return 0;
  }
  bool accepts_trace(const Seq3Group&) { return true; }
  void run_ahead(const FetchPipe&, std::uint64_t /*now*/) {}
};

// One SEQ.3 fetch request at cycle `now`: supplies a group from `pipe`
// (captured into *group when non-null), counts it into *result, charges the
// one or two touched lines through `fe` and retires the group. Returns the
// cycles the request stalls on top of its own: the miss penalty, any late
// prefetch's residual latency and misprediction bubbles.
template <typename FE>
std::uint64_t seq3_request(FetchPipe& pipe, const FetchParams& params,
                           std::uint32_t line_bytes, std::uint64_t now, FE& fe,
                           Seq3Group* group, FetchResult* result) {
  const Seq3Cycle cycle = seq3_fetch_cycle(pipe, params, line_bytes, group);
  result->instructions += cycle.supplied;
  ++result->fetch_requests;
  std::uint64_t stall = 0;
  if (!params.perfect_icache) {
    std::uint64_t wait = 0;
    std::uint32_t missed = fe.access(cycle.line0, now, &wait) ? 0 : 1;
    if (cycle.touched_line1 &&
        !fe.access(cycle.line0 + line_bytes, now, &wait)) {
      ++missed;
    }
    if (missed > 0) {
      ++result->miss_requests;
      result->lines_missed += missed;
      const std::uint64_t units = params.penalty_per_line ? missed : 1;
      stall += units * params.miss_penalty;
    }
    stall += wait;
  }
  return stall + fe.retire(cycle.supplied, group);
}

// The SEQ.3 fetch loop: the plan's whole trace (sim/replay.h), one request
// per cycle plus its stalls. `make_fe(line_bytes)` builds the policy once
// the cache is reset.
template <typename MakeFE>
FetchResult seq3_loop(const ReplayPlan& plan, const FetchParams& params,
                      ICache* cache, MakeFE make_fe) {
  FetchPipe pipe(plan);
  const std::uint32_t line_bytes = begin_fetch_run(params, cache);
  auto fe = make_fe(line_bytes);
  Seq3Group group;
  Seq3Group* const capture = fe.resolves() ? &group : nullptr;
  FetchResult result;
  while (!pipe.done()) {
    const std::uint64_t stall = seq3_request(pipe, params, line_bytes,
                                             result.cycles, fe, capture,
                                             &result);
    result.cycles += 1 + stall;
    fe.run_ahead(pipe, result.cycles);
  }
  return result;
}

// Runs the plan's whole trace through SEQ.3 backed by `cache` (reset
// first). `cache` may be null only with params.perfect_icache.
FetchResult run_seq3(const ReplayPlan& plan, const FetchParams& params,
                     ICache* cache);

}  // namespace stc::sim
