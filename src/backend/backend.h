// Bounded out-of-order (or in-order) execution back end.
//
// The paper's evaluation stops at fetch bandwidth; this module carries it
// through to IPC. Each dynamic basic block becomes one op (decode granule)
// whose latency derives from the block's size and event class and whose
// synthetic register names derive from its layout address — the cost model
// is sim::BackendSpec, shared with the replay plans so compiled replay can
// pre-resolve the per-block values (sim/replay.h).
//
// The machine is deliberately small but honest about the bottlenecks that
// matter for a fetch study:
//   dispatch — up to decode_width ops/cycle enter the issue queue and the
//              reorder buffer; a full IQ or ROB stalls dispatch, and a full
//              decode FIFO back-pressures the front end (fetch stalls).
//   issue    — a scoreboard over kBackendRegs synthetic registers tracks
//              each op's two source dependencies by producer sequence
//              number (rename-style: W-A-W and W-A-R never stall, only true
//              dependencies wait). kOoo issues up to issue_width ready ops
//              in age order from anywhere in the queue; kInOrder only from
//              the queue head, stopping at the first not-ready op.
//   commit   — up to commit_width completed ops retire per cycle, strictly
//              in program (= trace) order through the ROB.
//
// Selected with STC_BACKEND=off|inorder|ooo (STC_IQ_DEPTH / STC_ROB_DEPTH
// size the window); `off` — the default — keeps every existing bench
// byte-identical because the pipeline is never constructed. Each pipeline
// run (pipeline.h) fires faultpoint "backend.dispatch" once, before its
// first op, so fault-injection tests can prove a failed run surfaces as a
// structured job failure, not a silently different measurement.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "sim/replay.h"
#include "support/error.h"
#include "support/stats.h"

namespace stc::backend {

enum class BackendKind { kOff, kInOrder, kOoo };

const char* to_string(BackendKind kind);
// Maps "off"/"inorder"/"ooo" to a kind; returns false on anything else.
bool parse_backend(const char* name, BackendKind* out);

struct BackendParams {
  BackendKind kind = BackendKind::kOff;
  std::uint32_t decode_width = 4;      // ops dispatched per cycle, max
  std::uint32_t issue_width = 4;       // ops issued per cycle, max
  std::uint32_t commit_width = 4;      // ops retired per cycle, max
  std::uint32_t iq_depth = 16;         // issue-queue entries
  std::uint32_t rob_depth = 64;        // reorder-buffer entries
  std::uint32_t fetch_buffer_ops = 32; // decode FIFO; full => fetch stalls
  std::uint32_t base_latency = 1;      // see sim::BackendSpec
  std::uint32_t mem_latency = 3;
  std::uint32_t size_shift = 2;

  bool off() const { return kind == BackendKind::kOff; }

  // The replay-facing cost model: what compiled plans bake into their
  // back-end tables and what the plan cache keys on.
  sim::BackendSpec spec() const {
    sim::BackendSpec spec;
    spec.enabled = !off();
    spec.base_latency = base_latency;
    spec.mem_latency = mem_latency;
    spec.size_shift = size_shift;
    return spec;
  }

  // Reads the bench knobs (validated by support/env):
  //   STC_BACKEND   - off|inorder|ooo (default off).
  //   STC_IQ_DEPTH  - issue-queue depth in [1, 1024] (default 16).
  //   STC_ROB_DEPTH - reorder-buffer depth in [1, 4096] (default 64).
  // A malformed knob is a structured error (a typo must not silently
  // measure the baseline); from_environment() prints it and exits 2.
  static Result<BackendParams> try_from_environment();
  static BackendParams from_environment();
};

// One decoded op: a whole basic block as the back end sees it.
struct BackendOp {
  std::uint64_t addr = 0;     // block start address under the layout
  std::uint32_t insns = 0;    // instructions the op retires
  std::uint32_t latency = 1;  // execution cycles once issued
  std::uint8_t dest = 0;      // synthetic register names (sim/replay.h)
  std::uint8_t src1 = 0;
  std::uint8_t src2 = 0;
};

struct BackendStats {
  std::uint64_t cycles = 0;            // unified pipeline clock
  std::uint64_t retired_ops = 0;
  std::uint64_t retired_insns = 0;
  std::uint64_t dispatched_ops = 0;
  std::uint64_t issued_ops = 0;
  std::uint64_t iq_peak = 0;           // high-water marks
  std::uint64_t rob_peak = 0;
  std::uint64_t iq_occupancy_sum = 0;  // summed per cycle; avg = sum/cycles
  std::uint64_t rob_occupancy_sum = 0;
  std::uint64_t frontend_stall_cycles = 0;  // fetch ready but FIFO full
  std::uint64_t dispatch_stall_iq = 0;      // dispatch blocked on IQ space
  std::uint64_t dispatch_stall_rob = 0;     // dispatch blocked on ROB space
  std::uint64_t issue_stall_cycles = 0;     // waiting ops, none ready
  std::uint64_t empty_cycles = 0;           // nothing in flight

  double ipc() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(retired_insns) /
                             static_cast<double>(cycles);
  }

  // Registers the raw event counts for machine-readable reporting.
  void export_counters(CounterSet& out) const;
};

// The issue/commit machine. Drive it one cycle at a time: step(now) commits
// then issues, dispatch() inserts decoded ops (call can_dispatch() first).
// Purely deterministic — no iteration-order dependence on anything but the
// dispatch sequence.
class Backend {
 public:
  Backend(const BackendParams& params, BackendStats* stats);

  bool iq_full() const { return iq_.size() >= params_.iq_depth; }
  bool rob_full() const { return in_flight() >= params_.rob_depth; }
  bool can_dispatch() const { return !iq_full() && !rob_full(); }

  // Inserts one op at the window tail. Requires can_dispatch().
  void dispatch(const BackendOp& op);

  // One cycle at time `now`: retire up to commit_width completed ops in
  // program order, then issue up to issue_width ready ops. Also samples the
  // occupancy statistics for this cycle.
  void step(std::uint64_t now);

  bool empty() const { return retire_ == next_seq_; }
  std::uint64_t in_flight() const { return next_seq_ - retire_; }
  std::size_t iq_size() const { return iq_.size(); }

  // Test hook: observes every op at commit, in commit order.
  using CommitObserver = std::function<void(const BackendOp&)>;
  void set_commit_observer(CommitObserver observer) {
    observer_ = std::move(observer);
  }

 private:
  struct RobEntry {
    std::uint64_t seq = kNoSeq;
    BackendOp op;
    std::uint64_t dep1 = kNoSeq;  // producer sequence numbers, or kNoSeq
    std::uint64_t dep2 = kNoSeq;
    bool issued = false;
    std::uint64_t done_cycle = 0;
  };
  static constexpr std::uint64_t kNoSeq = ~std::uint64_t{0};

  bool dep_satisfied(std::uint64_t dep, std::uint64_t now) const;

  const BackendParams params_;
  BackendStats* stats_;
  std::vector<RobEntry> rob_;             // slot = seq % rob_depth
  std::deque<std::uint64_t> iq_;          // waiting seqs, dispatch order
  std::vector<std::uint64_t> last_writer_;  // reg -> youngest producer seq
  std::uint64_t next_seq_ = 0;
  std::uint64_t retire_ = 0;
  CommitObserver observer_;
};

}  // namespace stc::backend
