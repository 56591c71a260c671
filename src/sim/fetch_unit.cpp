#include "sim/fetch_unit.h"

#include "sim/replay.h"
#include "support/check.h"

namespace stc::sim {

void FetchResult::export_counters(CounterSet& out) const {
  out.add("instructions", instructions);
  out.add("cycles", cycles);
  out.add("fetch_requests", fetch_requests);
  out.add("miss_requests", miss_requests);
  out.add("lines_missed", lines_missed);
  out.add("tc_hits", tc_hits);
  out.add("tc_misses", tc_misses);
  out.add("tc_fills", tc_fills);
  out.add("tc_probes", tc_probes);
}

FetchPipe::FetchPipe(const ReplayPlan& plan) : plan_(plan) { refill(1); }

void FetchPipe::refill(std::uint32_t needed_insns) {
  while (!stream_done_ && buffered_insns_ < needed_insns) {
    if (next_event_ >= plan_.num_events()) {
      stream_done_ = true;
      break;
    }
    trace::BlockRun run;
    plan_.make_run(next_event_++, run);
    buffered_insns_ += run.insns;
    buffer_.push_back(run);
  }
}

std::uint64_t FetchPipe::addr() const {
  STC_REQUIRE(!buffer_.empty());
  const trace::BlockRun& front = buffer_.front();
  return front.addr + std::uint64_t{front_offset_} * cfg::kInsnBytes;
}

bool FetchPipe::peek(std::uint32_t k, Insn& out) {
  refill(front_offset_ + k + 1);
  std::uint64_t index = front_offset_ + k;
  for (const trace::BlockRun& run : buffer_) {
    if (index >= run.insns) {
      index -= run.insns;
      continue;
    }
    out.addr = run.addr + index * cfg::kInsnBytes;
    out.block_end = index + 1 == run.insns;
    out.is_branch = out.block_end && run.ends_in_branch;
    out.taken = out.block_end && run.has_next && run.taken;
    out.kind = run.kind;
    return true;
  }
  return false;
}

void FetchPipe::consume(std::uint32_t n) {
  refill(front_offset_ + n);
  STC_REQUIRE(buffered_insns_ >= front_offset_ + n);
  front_offset_ += n;
  while (!buffer_.empty() && front_offset_ >= buffer_.front().insns) {
    front_offset_ -= buffer_.front().insns;
    buffered_insns_ -= buffer_.front().insns;
    buffer_.pop_front();
  }
  // Keep at least one unconsumed instruction buffered (when the stream has
  // more) so done() reflects true exhaustion.
  refill(front_offset_ + 1);
}

Seq3Cycle seq3_fetch_cycle(FetchPipe& pipe, const FetchParams& params,
                           std::uint32_t line_bytes, Seq3Group* group) {
  Seq3Cycle cycle;
  const std::uint64_t fetch_addr = pipe.addr();
  const std::uint64_t line_base = fetch_addr & ~std::uint64_t{line_bytes - 1};
  const std::uint64_t limit_addr = line_base + 2 * std::uint64_t{line_bytes};
  cycle.line0 = line_base;

  std::uint32_t branches = 0;
  std::uint64_t last_addr = fetch_addr;
  FetchPipe::Insn insn;
  while (cycle.supplied < params.width) {
    if (!pipe.peek(cycle.supplied, insn)) break;
    if (insn.addr >= limit_addr) break;  // beyond the two accessed lines
    ++cycle.supplied;
    last_addr = insn.addr;
    if (group != nullptr) group->insns.push_back(insn);
    if (insn.is_branch) ++branches;
    if (insn.taken) break;               // stop at the first taken transfer
    if (branches >= params.max_branches) break;
  }
  STC_DCHECK(cycle.supplied > 0);
  if (group != nullptr) {
    FetchPipe::Insn next;
    group->has_next = pipe.peek(cycle.supplied, next);
    group->next_addr = group->has_next ? next.addr : 0;
  }
  cycle.touched_line1 = last_addr >= line_base + line_bytes;
  pipe.consume(cycle.supplied);
  return cycle;
}

FetchResult run_seq3(const ReplayPlan& plan, const FetchParams& params,
                     ICache* cache) {
  FetchPipe pipe(plan);
  STC_REQUIRE(params.perfect_icache || cache != nullptr);
  if (cache != nullptr) cache->reset();
  const std::uint32_t line_bytes =
      cache != nullptr ? cache->geometry().line_bytes : 64;

  FetchResult result;
  while (!pipe.done()) {
    const Seq3Cycle cycle = seq3_fetch_cycle(pipe, params, line_bytes);
    result.instructions += cycle.supplied;
    ++result.fetch_requests;
    ++result.cycles;
    if (!params.perfect_icache) {
      std::uint32_t missed = cache->access(cycle.line0) ? 0 : 1;
      if (cycle.touched_line1 && !cache->access(cycle.line0 + line_bytes)) {
        ++missed;
      }
      if (missed > 0) {
        ++result.miss_requests;
        result.lines_missed += missed;
        result.cycles += params.penalty_per_line
                             ? std::uint64_t{params.miss_penalty} * missed
                             : params.miss_penalty;
      }
    }
  }
  return result;
}

}  // namespace stc::sim
