#include "backend/pipeline.h"

#include <deque>

#include "frontend/engine.h"
#include "support/check.h"

namespace stc::backend {

namespace {

using sim::FetchPipe;

// Produces the BackendOp for each completed basic block, in trace order.
// Two sources behind one call: the interpreter path computes latency and
// register names from the shared BackendSpec helpers; the plan path walks
// the event slab in lockstep with the fetch stream and reads the values
// from the plan's compiled back-end tables. Identical results by
// construction — the DCHECKs pin the lockstep.
class OpSource {
 public:
  explicit OpSource(const sim::BackendSpec& spec) : spec_(spec) {}
  OpSource(const sim::BackendSpec& spec, const sim::ReplayPlan& plan)
      : spec_(spec), plan_(&plan) {
    STC_CHECK_MSG(plan.backend().valid(),
                  "back-end replay needs a plan built with the back-end spec");
    // The plan cache keys on the spec fingerprint, so a plan with tables
    // for a different config can only reach here through a caller bug.
    STC_DCHECK(plan.backend().spec() == spec);
  }

  BackendOp next(std::uint64_t block_start, std::uint32_t block_insns,
                 cfg::BlockKind kind) {
    BackendOp op;
    op.addr = block_start;
    op.insns = block_insns;
    if (plan_ != nullptr) {
      const cfg::BlockId b = plan_->slab()[cursor_++];
      STC_DCHECK(plan_->meta().addr(b) == block_start);
      STC_DCHECK(plan_->meta().insns(b) == block_insns);
      const sim::BackendTable& table = plan_->backend();
      op.latency = table.latency(b);
      op.dest = table.dest(b);
      op.src1 = table.src1(b);
      op.src2 = table.src2(b);
      return op;
    }
    op.latency = sim::backend_op_latency(spec_, block_insns, kind);
    sim::backend_op_regs(block_start, block_insns, &op.dest, &op.src1,
                         &op.src2);
    return op;
  }

 private:
  const sim::BackendSpec spec_;
  const sim::ReplayPlan* plan_ = nullptr;
  std::size_t cursor_ = 0;
};

Result<BackendResult> run_pipe(FetchPipe& pipe, OpSource& source,
                               const sim::FetchParams& fetch_params,
                               const frontend::FrontEndParams& fe_params,
                               const BackendParams& backend_params,
                               sim::ICache* cache) {
  STC_REQUIRE(!backend_params.off());
  STC_REQUIRE(fetch_params.perfect_icache || cache != nullptr);
  if (cache != nullptr) cache->reset();
  const std::uint32_t line_bytes =
      cache != nullptr ? cache->geometry().line_bytes : 64;

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
        group.insns.clear();
        const sim::Seq3Cycle cycle =
            seq3_fetch_cycle(pipe, fetch_params, line_bytes, &group);
        result.fetch.instructions += cycle.supplied;
        ++result.fetch.fetch_requests;
        std::uint64_t stall = 0;
        if (!fetch_params.perfect_icache) {
          stall = frontend::charge_icache(eng, cycle, fetch_params,
                                          line_bytes, now, &result.fetch,
                                          &result.frontend);
        }
        eng.advance(cycle.supplied);
        stall += eng.resolve(group.insns, group.has_next, group.next_addr);
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
            fifo.push_back(source.next(block_start, block_insns, insn.kind));
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
      if (Status s = backend.dispatch(fifo.front()); !s.is_ok()) {
        return s.with_context("backend pipeline");
      }
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

}  // namespace

Result<BackendResult> run_seq3_backend(const trace::BlockTrace& trace,
                                       const cfg::ProgramImage& image,
                                       const cfg::AddressMap& layout,
                                       const sim::FetchParams& fetch_params,
                                       const frontend::FrontEndParams& fe_params,
                                       const BackendParams& backend_params,
                                       sim::ICache* cache) {
  FetchPipe pipe(trace, image, layout);
  OpSource source(backend_params.spec());
  return run_pipe(pipe, source, fetch_params, fe_params, backend_params,
                  cache);
}

Result<BackendResult> run_seq3_backend(const sim::ReplayPlan& plan,
                                       const sim::FetchParams& fetch_params,
                                       const frontend::FrontEndParams& fe_params,
                                       const BackendParams& backend_params,
                                       sim::ICache* cache) {
  FetchPipe pipe(plan);
  OpSource source(backend_params.spec(), plan);
  return run_pipe(pipe, source, fetch_params, fe_params, backend_params,
                  cache);
}

}  // namespace stc::backend
