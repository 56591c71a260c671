#include "backend/pipeline.h"

#include <deque>

#include "frontend/engine.h"
#include "support/check.h"
#include "support/faultpoint.h"

namespace stc::backend {

namespace {

// The op of one completed basic block, from the plan's tables.
BackendOp block_op(const sim::ReplayPlan& plan, cfg::BlockId b) {
  const sim::BackendTable& table = plan.backend();
  BackendOp op;
  op.addr = plan.meta().addr(b);
  op.insns = plan.meta().insns(b);
  op.latency = table.latency(b);
  op.dest = table.dest(b);
  op.src1 = table.src1(b);
  op.src2 = table.src2(b);
  return op;
}

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
  sim::FetchPipe pipe(plan);
  const std::uint32_t line_bytes = sim::begin_fetch_run(fetch_params, cache);

  BackendResult result;
  frontend::Engine eng(fetch_params, fe_params, cache, line_bytes,
                       &result.frontend);
  Backend backend(backend_params, &result.backend);
  std::deque<BackendOp> fifo;  // decoded ops awaiting dispatch
  sim::Seq3Group group;
  std::uint64_t now = 0;
  std::uint64_t fetch_ready = 0;  // cycle the fetch unit is free again

  while (!pipe.done() || !fifo.empty() || !backend.empty()) {
    backend.step(now);

    if (!pipe.done() && now >= fetch_ready) {
      if (fifo.size() < backend_params.fetch_buffer_ops) {
        const std::uint64_t stall = sim::seq3_request(
            pipe, fetch_params, line_bytes, now, eng, &group, &result.fetch);
        fetch_ready = now + 1 + stall;
        eng.run_ahead(pipe, fetch_ready);
        // A basic block may straddle fetch groups (width or line limits);
        // decode emits its op once the block's last instruction arrives.
        for (const sim::FetchPipe::Insn& insn : group.insns) {
          if (insn.block_end) fifo.push_back(block_op(plan, insn.block));
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
  result.fetch.cycles = now;
  result.backend.cycles = now;
  return result;
}

}  // namespace stc::backend
