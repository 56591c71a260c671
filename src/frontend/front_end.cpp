#include "frontend/front_end.h"

#include <cstdio>
#include <cstdlib>

#include "frontend/engine.h"
#include "support/check.h"
#include "support/env.h"

namespace stc::frontend {

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
  FrontEndResult result;
  result.fetch = sim::seq3_loop(
      plan, fetch_params, cache, [&](std::uint32_t line_bytes) {
        return Engine(fetch_params, fe_params, cache, line_bytes,
                      &result.frontend);
      });
  return result;
}

FrontEndResult run_trace_cache_frontend(const sim::ReplayPlan& plan,
                                        const sim::FetchParams& fetch_params,
                                        const sim::TraceCacheParams& tc_params,
                                        const FrontEndParams& fe_params,
                                        sim::ICache* cache) {
  FrontEndResult result;
  result.fetch = sim::trace_cache_loop(
      plan, fetch_params, tc_params, cache, [&](std::uint32_t line_bytes) {
        return Engine(fetch_params, fe_params, cache, line_bytes,
                      &result.frontend);
      });
  return result;
}

}  // namespace stc::frontend
