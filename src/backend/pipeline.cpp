#include "backend/pipeline.h"

#include <deque>

#include "frontend/engine.h"
#include "support/check.h"
#include "support/faultpoint.h"

namespace stc::backend {

namespace {

using sim::FetchPipe;

// Produces the BackendOp for each completed basic block, in trace order:
// walks the event slab in lockstep with the fetch stream and reads latency
// and register names from the plan's back-end tables. The DCHECKs pin the
// lockstep.
class OpSource {
 public:
  explicit OpSource(const sim::ReplayPlan& plan) : plan_(plan) {}

  BackendOp next(std::uint64_t block_start, std::uint32_t block_insns) {
    BackendOp op;
    op.addr = block_start;
    op.insns = block_insns;
    const cfg::BlockId b = plan_.slab()[cursor_++];
    STC_DCHECK(plan_.meta().addr(b) == block_start);
    STC_DCHECK(plan_.meta().insns(b) == block_insns);
    const sim::BackendTable& table = plan_.backend();
    op.latency = table.latency(b);
    op.dest = table.dest(b);
    op.src1 = table.src1(b);
    op.src2 = table.src2(b);
    return op;
  }

 private:
  const sim::ReplayPlan& plan_;
  std::size_t cursor_ = 0;
};

}  // namespace

Result<BackendResult> run_seq3_backend(const sim::ReplayPlan& plan,
                                       const sim::FetchParams& fetch_params,
                                       const frontend::FrontEndParams& fe_params,
                                       const BackendParams& backend_params,
                                       sim::ICache* cache) {
  STC_REQUIRE(!backend_params.off());
  // One fault point per run, not per op: an unarmed check costs a registry
  // lookup, which would dominate a per-op loop.
  if (Status s = fault::fail_if("backend.dispatch", "starting a back-end run");
      !s.is_ok()) {
    return s.with_context("backend pipeline");
  }
  STC_CHECK_MSG(plan.backend().valid(),
                "back-end replay needs a plan built with the back-end spec");
  // The plan cache keys on the spec fingerprint, so a plan with tables for
  // a different config can only reach here through a caller bug.
  STC_DCHECK(plan.backend().spec() == backend_params.spec());
  FetchPipe pipe(plan);
  OpSource source(plan);
  const std::uint32_t line_bytes = sim::begin_fetch_run(fetch_params, cache);

  BackendResult result;
  frontend::Engine eng(fetch_params, fe_params, cache, line_bytes,
                       &result.frontend);
  Backend backend(backend_params, &result.backend);
  std::deque<BackendOp> fifo;  // decoded ops awaiting dispatch
  sim::Seq3Group group;
  std::uint64_t now = 0;
  std::uint64_t fetch_ready = 0;  // cycle the fetch unit is free again
  // A basic block may straddle fetch groups (width or line limits); decode
  // emits its op only once the block's last instruction arrives.
  bool in_block = false;
  std::uint64_t block_start = 0;
  std::uint32_t block_insns = 0;

  while (!pipe.done() || !fifo.empty() || !backend.empty()) {
    backend.step(now);

    if (!pipe.done() && now >= fetch_ready) {
      if (fifo.size() < backend_params.fetch_buffer_ops) {
        const std::uint64_t stall = sim::seq3_request(
            pipe, fetch_params, line_bytes, now, eng, &group, &result.fetch);
        fetch_ready = now + 1 + stall;
        eng.run_ahead(pipe, fetch_ready);
        for (const FetchPipe::Insn& insn : group.insns) {
          if (!in_block) {
            in_block = true;
            block_start = insn.addr;
            block_insns = 0;
          }
          ++block_insns;
          if (insn.block_end) {
            fifo.push_back(source.next(block_start, block_insns));
            in_block = false;
          }
        }
      } else {
        ++result.backend.frontend_stall_cycles;  // back-pressure on fetch
      }
    }

    std::uint32_t dispatched = 0;
    while (dispatched < backend_params.decode_width && !fifo.empty()) {
      if (!backend.can_dispatch()) {
        if (backend.rob_full()) {
          ++result.backend.dispatch_stall_rob;
        } else {
          ++result.backend.dispatch_stall_iq;
        }
        break;
      }
      backend.dispatch(fifo.front());
      fifo.pop_front();
      ++dispatched;
    }

    ++now;
  }
  STC_DCHECK(!in_block);  // blocks never end mid-trace (every block >= 1 insn)
  result.fetch.cycles = now;
  result.backend.cycles = now;
  return result;
}

}  // namespace stc::backend
