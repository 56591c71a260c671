#include "frontend/front_end.h"

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "frontend/engine.h"
#include "support/check.h"
#include "support/env.h"

namespace stc::frontend {

using sim::FetchPipe;

Result<FrontEndParams> FrontEndParams::try_from_environment() {
  FrontEndParams params;
  Result<std::string> bpred = env::bpred();
  if (!bpred.is_ok()) return bpred.status();
  const bool ok = parse_bpred(bpred.value().c_str(), &params.kind);
  STC_CHECK_MSG(ok, "env::bpred() returned an unknown predictor name");
  params.prefetch = params.kind != BpredKind::kPerfect;
  Result<std::uint32_t> depth = env::ftq_depth();
  if (!depth.is_ok()) return depth.status();
  params.ftq_depth = depth.value();
  if (params.ftq_depth == 0) params.prefetch = false;
  return params;
}

FrontEndParams FrontEndParams::from_environment() {
  Result<FrontEndParams> params = try_from_environment();
  if (!params.is_ok()) {
    std::fprintf(stderr, "environment: %s\n",
                 params.status().to_string().c_str());
    std::exit(2);
  }
  return params.value();
}

void FrontEndStats::export_counters(CounterSet& out) const {
  out.add("bp_lookups", bp_lookups);
  out.add("bp_mispredicts", bp_mispredicts);
  out.add("bp_bubble_cycles", bp_bubble_cycles);
  out.add("btb_lookups", btb_lookups);
  out.add("btb_misses", btb_misses);
  out.add("ras_pushes", ras_pushes);
  out.add("ras_pops", ras_pops);
  out.add("prefetch_issued", prefetch_issued);
  out.add("prefetch_useful", prefetch_useful);
  out.add("prefetch_late", prefetch_late);
  out.add("prefetch_evicted", prefetch_evicted);
  out.add("prefetch_late_cycles", prefetch_late_cycles);
}

FrontEndResult run_seq3_frontend(const sim::ReplayPlan& plan,
                                 const sim::FetchParams& fetch_params,
                                 const FrontEndParams& fe_params,
                                 sim::ICache* cache) {
  if (fe_params.transparent()) {
    FrontEndResult result;
    result.fetch = sim::run_seq3(plan, fetch_params, cache);
    return result;
  }
  FetchPipe pipe(plan);
  FrontEndResult result;
  STC_REQUIRE(fetch_params.perfect_icache || cache != nullptr);
  if (cache != nullptr) cache->reset();
  const std::uint32_t line_bytes =
      cache != nullptr ? cache->geometry().line_bytes : 64;

  Engine eng(fetch_params, fe_params, cache, line_bytes, &result.frontend);
  sim::Seq3Group group;
  while (!pipe.done()) {
    const std::uint64_t now = result.fetch.cycles;
    group.insns.clear();
    const sim::Seq3Cycle cycle =
        seq3_fetch_cycle(pipe, fetch_params, line_bytes, &group);
    result.fetch.instructions += cycle.supplied;
    ++result.fetch.fetch_requests;
    ++result.fetch.cycles;
    if (!fetch_params.perfect_icache) {
      result.fetch.cycles += charge_icache(eng, cycle, fetch_params,
                                           line_bytes, now, &result.fetch,
                                           &result.frontend);
    }
    eng.advance(cycle.supplied);
    result.fetch.cycles += eng.resolve(group.insns, group.has_next,
                                       group.next_addr);
    eng.run_ahead(pipe, result.fetch.cycles);
  }
  return result;
}

FrontEndResult run_trace_cache_frontend(const sim::ReplayPlan& plan,
                                        const sim::FetchParams& fetch_params,
                                        const sim::TraceCacheParams& tc_params,
                                        const FrontEndParams& fe_params,
                                        sim::ICache* cache) {
  if (fe_params.transparent()) {
    FrontEndResult result;
    result.fetch = sim::run_trace_cache(plan, fetch_params, tc_params, cache);
    return result;
  }
  FetchPipe pipe(plan);
  FrontEndResult result;
  STC_REQUIRE(fetch_params.perfect_icache || cache != nullptr);
  if (cache != nullptr) cache->reset();
  const std::uint32_t line_bytes =
      cache != nullptr ? cache->geometry().line_bytes : 64;

  sim::TraceCache tc(tc_params);
  Engine eng(fetch_params, fe_params, cache, line_bytes, &result.frontend);
  std::vector<FetchPipe::Insn> supplied;
  sim::Seq3Group group;
  while (!pipe.done()) {
    const std::uint64_t now = result.fetch.cycles;
    const std::uint64_t fetch_addr = pipe.addr();
    std::uint32_t hit_len = tc.probe(fetch_addr, pipe);
    // Next-trace selection is keyed by the predicted outcomes: a stored
    // trace the predictor would not follow is rejected (a miss), even
    // though the actual path matches it.
    if (hit_len > 0 && !eng.accepts_trace(pipe, hit_len)) hit_len = 0;
    if (hit_len > 0) {
      ++result.fetch.tc_hits;
      ++result.fetch.fetch_requests;
      ++result.fetch.cycles;
      result.fetch.instructions += hit_len;
      bool has_next = false;
      std::uint64_t next_addr = 0;
      snapshot_group(pipe, hit_len, &supplied, &has_next, &next_addr);
      // The fill buffer observes the retired instruction stream regardless
      // of where the instructions came from.
      if (tc.fill_active()) {
        for (const FetchPipe::Insn& insn : supplied) tc.fill_push(insn);
      }
      pipe.consume(hit_len);
      eng.advance(hit_len);
      result.fetch.cycles += eng.resolve(supplied, has_next, next_addr);
    } else {
      ++result.fetch.tc_misses;
      if (!tc.fill_active()) tc.begin_fill(fetch_addr);
      group.insns.clear();
      const sim::Seq3Cycle cycle =
          seq3_fetch_cycle(pipe, fetch_params, line_bytes, &group);
      result.fetch.instructions += cycle.supplied;
      ++result.fetch.fetch_requests;
      ++result.fetch.cycles;
      if (!fetch_params.perfect_icache) {
        result.fetch.cycles += charge_icache(eng, cycle, fetch_params,
                                             line_bytes, now, &result.fetch,
                                             &result.frontend);
      }
      for (const FetchPipe::Insn& insn : group.insns) tc.fill_push(insn);
      eng.advance(cycle.supplied);
      result.fetch.cycles += eng.resolve(group.insns, group.has_next,
                                         group.next_addr);
    }
    eng.run_ahead(pipe, result.fetch.cycles);
  }
  result.fetch.tc_fills = tc.stored_traces();
  result.fetch.tc_probes = tc.probes();
  return result;
}

}  // namespace stc::frontend
