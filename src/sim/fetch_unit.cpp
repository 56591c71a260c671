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

FetchPipe::FetchPipe(const ReplayPlan& plan)
    : plan_(plan), num_events_(plan.num_events()) {
  if (!done()) plan_.make_run(0, run_);
}

std::uint64_t FetchPipe::addr() const {
  STC_REQUIRE(!done());
  return run_.addr + std::uint64_t{offset_} * cfg::kInsnBytes;
}

bool FetchPipe::peek(std::uint32_t k, Insn& out) const {
  if (done()) return false;
  std::uint64_t index = std::uint64_t{offset_} + k;
  trace::BlockRun ahead;
  const trace::BlockRun* run = &run_;
  if (index >= run_.insns) {
    // Skip whole blocks by size alone; materialize only the block that
    // holds the instruction.
    index -= run_.insns;
    std::uint64_t event = event_ + 1;
    for (;; ++event) {
      if (event == num_events_) return false;
      const std::uint32_t insns = plan_.meta().insns(plan_.slab()[event]);
      if (index < insns) break;
      index -= insns;
    }
    plan_.make_run(event, ahead);
    run = &ahead;
  }
  out = insn_at(*run, index);
  return true;
}

void FetchPipe::peek_group(std::uint32_t len, Seq3Group* group) const {
  group->insns.clear();
  group->has_next = false;
  group->next_addr = 0;
  if (done()) return;
  std::uint64_t event = event_;
  std::uint64_t index = offset_;
  trace::BlockRun run = run_;
  for (;;) {
    if (index == run.insns) {
      if (++event == num_events_) return;  // the trace ends first
      plan_.make_run(event, run);
      index = 0;
    }
    if (group->insns.size() == len) {
      group->has_next = true;
      group->next_addr = run.addr + index * cfg::kInsnBytes;
      return;
    }
    group->insns.push_back(insn_at(run, index++));
  }
}

FetchPipe::Insn FetchPipe::insn_at(const trace::BlockRun& run,
                                   std::uint64_t index) {
  Insn insn;
  insn.addr = run.addr + index * cfg::kInsnBytes;
  insn.block = run.block;
  insn.block_end = index + 1 == run.insns;
  insn.is_branch = insn.block_end && run.ends_in_branch;
  insn.taken = insn.block_end && run.has_next && run.taken;
  insn.kind = run.kind;
  return insn;
}

void FetchPipe::consume(std::uint32_t n) {
  std::uint64_t offset = std::uint64_t{offset_} + n;
  while (!done() && offset >= run_.insns) {
    offset -= run_.insns;
    if (++event_ < num_events_) plan_.make_run(event_, run_);
  }
  STC_REQUIRE_MSG(offset == 0 || !done(),
                  "consumed past the end of the trace");
  offset_ = static_cast<std::uint32_t>(offset);
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
  if (group != nullptr) group->insns.clear();
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

std::uint32_t begin_fetch_run(const FetchParams& params, ICache* cache) {
  STC_REQUIRE(params.perfect_icache || cache != nullptr);
  if (cache == nullptr) return 64;
  cache->reset();
  return cache->geometry().line_bytes;
}

FetchResult run_seq3(const ReplayPlan& plan, const FetchParams& params,
                     ICache* cache) {
  return seq3_loop(plan, params, cache,
                   [cache](std::uint32_t) { return NoFrontEnd{cache}; });
}

}  // namespace stc::sim
