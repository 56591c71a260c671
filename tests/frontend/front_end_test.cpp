#include "frontend/front_end.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cfg/address_map.h"
#include "cfg/builder.h"
#include "sim/fetch_unit.h"
#include "sim/icache.h"
#include "sim/trace_cache.h"
#include "support/rng.h"
#include "testing/synthetic.h"
#include "verify/oracle.h"
#include "testing/plan.h"

namespace stc::frontend {
namespace {

constexpr sim::CacheGeometry kGeometry{1024, 32, 1};

void expect_same_fetch(const sim::FetchResult& a, const sim::FetchResult& b) {
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.fetch_requests, b.fetch_requests);
  EXPECT_EQ(a.miss_requests, b.miss_requests);
  EXPECT_EQ(a.lines_missed, b.lines_missed);
  EXPECT_EQ(a.tc_hits, b.tc_hits);
  EXPECT_EQ(a.tc_misses, b.tc_misses);
  EXPECT_EQ(a.tc_fills, b.tc_fills);
  EXPECT_EQ(a.tc_probes, b.tc_probes);
}

void expect_zero_frontend(const FrontEndStats& s) {
  EXPECT_EQ(s.bp_lookups, 0u);
  EXPECT_EQ(s.bp_mispredicts, 0u);
  EXPECT_EQ(s.bp_bubble_cycles, 0u);
  EXPECT_EQ(s.btb_lookups, 0u);
  EXPECT_EQ(s.btb_misses, 0u);
  EXPECT_EQ(s.ras_pushes, 0u);
  EXPECT_EQ(s.ras_pops, 0u);
  EXPECT_EQ(s.prefetch_issued, 0u);
  EXPECT_EQ(s.prefetch_useful, 0u);
  EXPECT_EQ(s.prefetch_late, 0u);
  EXPECT_EQ(s.prefetch_evicted, 0u);
  EXPECT_EQ(s.prefetch_late_cycles, 0u);
}

// The fetch configurations the transparent front end is compared under:
// the default, one penalty per missing line, and the "Ideal" perfect
// i-cache (no cache at all).
std::vector<sim::FetchParams> fetch_variants() {
  sim::FetchParams per_line;
  per_line.penalty_per_line = true;
  sim::FetchParams ideal;
  ideal.perfect_icache = true;
  return {sim::FetchParams{}, per_line, ideal};
}

// The transparent configuration (perfect prediction, no prefetch) runs the
// Engine policy; the baseline simulators run NoFrontEnd. Both must agree
// field for field, touch the i-cache identically and leave every front-end
// counter at zero, for SEQ.3 (with_tc false) or the trace cache.
void expect_transparent_matches(const sim::ReplayPlan& plan,
                                const sim::FetchParams& params, bool with_tc) {
  const FrontEndParams fe;  // perfect, no prefetch
  ASSERT_TRUE(fe.transparent());
  const sim::TraceCacheParams tc;
  sim::ICache base_cache(kGeometry);
  sim::ICache fe_cache(kGeometry);
  sim::ICache* base_icache = params.perfect_icache ? nullptr : &base_cache;
  sim::ICache* fe_icache = params.perfect_icache ? nullptr : &fe_cache;
  const sim::FetchResult base =
      with_tc ? sim::run_trace_cache(plan, params, tc, base_icache)
              : sim::run_seq3(plan, params, base_icache);
  const FrontEndResult spec =
      with_tc ? run_trace_cache_frontend(plan, params, tc, fe, fe_icache)
              : run_seq3_frontend(plan, params, fe, fe_icache);
  expect_same_fetch(spec.fetch, base);
  expect_zero_frontend(spec.frontend);
  EXPECT_EQ(fe_cache.stats().accesses, base_cache.stats().accesses);
  EXPECT_EQ(fe_cache.stats().misses, base_cache.stats().misses);
}

TEST(FrontEndTest, TransparentMatchesBaselineSeq3) {
  Rng rng(20260806);
  for (int trial = 0; trial < 10; ++trial) {
    const auto image = testing::random_image(rng, 4);
    if (image->num_blocks() == 0) continue;
    const auto trace = testing::random_trace(*image, rng, 400);
    const auto layout = cfg::AddressMap::original(*image);
    const sim::ReplayPlan plan = testing::make_plan(trace, *image, layout);
    for (const sim::FetchParams& params : fetch_variants()) {
      expect_transparent_matches(plan, params, /*with_tc=*/false);
    }
  }
}

TEST(FrontEndTest, TransparentMatchesBaselineTraceCache) {
  Rng rng(19990401);
  for (int trial = 0; trial < 10; ++trial) {
    const auto image = testing::random_image(rng, 4);
    if (image->num_blocks() == 0) continue;
    const auto trace = testing::random_trace(*image, rng, 400);
    const auto layout = cfg::AddressMap::original(*image);
    const sim::ReplayPlan plan = testing::make_plan(trace, *image, layout);
    for (const sim::FetchParams& params : fetch_variants()) {
      expect_transparent_matches(plan, params, /*with_tc=*/true);
    }
  }
}

TEST(FrontEndTest, TransparentMatchesBaselineOnDegenerateFamilies) {
  Rng rng(7);
  for (int family = 0; family < testing::kNumDegenerateFamilies; ++family) {
    const auto image = testing::degenerate_image(rng, family);
    const auto trace = image->num_blocks() == 0
                           ? trace::BlockTrace{}
                           : testing::random_trace(*image, rng, 200);
    const auto layout = cfg::AddressMap::original(*image);
    const sim::ReplayPlan plan = testing::make_plan(trace, *image, layout);
    for (const sim::FetchParams& params : fetch_variants()) {
      expect_transparent_matches(plan, params, /*with_tc=*/false);
      expect_transparent_matches(plan, params, /*with_tc=*/true);
    }
  }
}

// A branch whose direction alternates every visit: under the original
// layout the successor is adjacent on odd visits (not taken) and a
// backwards transfer on even ones (taken).
std::unique_ptr<cfg::ProgramImage> alternating_branch_image() {
  cfg::ProgramBuilder builder;
  const cfg::ModuleId mod = builder.module("m");
  // All-branch loop body: no returns, so the RAS stays out of the picture
  // and misprediction counts isolate the direction predictors.
  builder.routine("r", mod,
                  {{"head", 2, cfg::BlockKind::kBranch},
                   {"near", 1, cfg::BlockKind::kBranch},
                   {"far", 1, cfg::BlockKind::kBranch}});
  return builder.build();
}

trace::BlockTrace alternating_trace(int rounds) {
  trace::BlockTrace trace;
  for (int i = 0; i < rounds; ++i) {
    trace.append(0);
    trace.append(i % 2 == 0 ? 1 : 2);  // adjacent vs. skip-over successor
  }
  return trace;
}

TEST(FrontEndTest, RealisticPredictorsReportMispredicts) {
  const auto image = alternating_branch_image();
  const auto layout = cfg::AddressMap::original(*image);
  const auto trace = alternating_trace(200);
  const sim::FetchParams params;
  const std::uint64_t expected =
      verify::trace_instructions(trace, *image);

  for (BpredKind kind : {BpredKind::kAlwaysTaken, BpredKind::kBimodal,
                         BpredKind::kGshare, BpredKind::kLocal}) {
    FrontEndParams fe;
    fe.kind = kind;
    fe.prefetch = true;
    sim::ICache cache(kGeometry);
    const FrontEndResult result =
        run_seq3_frontend(testing::make_plan(trace, *image, layout), params, fe,
                          &cache);
    EXPECT_GT(result.frontend.bp_lookups, 0u) << to_string(kind);
    // The alternating branch defeats always-taken half the time; even the
    // adaptive predictors mispredict during warmup.
    EXPECT_GT(result.frontend.bp_mispredicts, 0u) << to_string(kind);
    EXPECT_EQ(result.frontend.bp_bubble_cycles,
              result.frontend.bp_mispredicts * fe.mispredict_penalty);
    // Bubbles and stalls only ever add cycles over the baseline.
    sim::ICache base_cache(kGeometry);
    const sim::FetchResult base =
        sim::run_seq3(testing::make_plan(trace, *image, layout), params,
                      &base_cache);
    EXPECT_GE(result.fetch.cycles, base.cycles) << to_string(kind);
    // And the full oracle identity set holds.
    const verify::Report report = verify::check_frontend_result(
        result, params, fe, expected, /*with_trace_cache=*/false);
    EXPECT_TRUE(report.ok()) << to_string(kind) << ": " << report.summary();
  }
}

TEST(FrontEndTest, GshareLearnsTheAlternationAwayEventually) {
  const auto image = alternating_branch_image();
  const auto layout = cfg::AddressMap::original(*image);
  const sim::FetchParams params;
  FrontEndParams fe;
  fe.kind = BpredKind::kGshare;

  sim::ICache short_cache(kGeometry);
  const FrontEndResult short_run = run_seq3_frontend(
      testing::make_plan(alternating_trace(50), *image, layout), params, fe,
      &short_cache);
  sim::ICache long_cache(kGeometry);
  const FrontEndResult long_run = run_seq3_frontend(
      testing::make_plan(alternating_trace(2000), *image, layout), params, fe,
      &long_cache);
  // Warmup mispredictions stop accruing once the history table converges:
  // 40x the work must not cost anywhere near 40x the mispredicts.
  EXPECT_LT(long_run.frontend.bp_mispredicts,
            short_run.frontend.bp_mispredicts * 8);
}

// Call chain deeper than the RAS: `depth` frames {call, return-tail} plus a
// leaf routine with no call, so every push pairs with exactly one pop. A
// shallow stack overwrites the outer frames' return addresses, so returning
// past `ras_depth` mispredicts.
std::unique_ptr<cfg::ProgramImage> call_chain_image(int depth) {
  cfg::ProgramBuilder builder;
  const cfg::ModuleId mod = builder.module("m");
  for (int d = 0; d < depth; ++d) {
    builder.routine(std::string("f").append(std::to_string(d)), mod,
                    {{"body", 2, cfg::BlockKind::kCall},
                     {"tail", 1, cfg::BlockKind::kReturn}});
  }
  builder.routine("leaf", mod,
                  {{"work", 2, cfg::BlockKind::kBranch},
                   {"ret", 1, cfg::BlockKind::kReturn}});
  return builder.build();
}

trace::BlockTrace call_chain_trace(int depth, int rounds) {
  trace::BlockTrace trace;
  for (int r = 0; r < rounds; ++r) {
    for (int d = 0; d < depth; ++d) {
      trace.append(static_cast<cfg::BlockId>(2 * d));  // call down
    }
    trace.append(static_cast<cfg::BlockId>(2 * depth));      // leaf work
    trace.append(static_cast<cfg::BlockId>(2 * depth + 1));  // leaf return
    for (int d = depth; d-- > 0;) {
      trace.append(static_cast<cfg::BlockId>(2 * d + 1));  // return up
    }
  }
  return trace;
}

TEST(FrontEndTest, ShallowRasMispredictsDeepReturns) {
  constexpr int kDepth = 8;
  const auto image = call_chain_image(kDepth);
  const auto layout = cfg::AddressMap::original(*image);
  const auto trace = call_chain_trace(kDepth, 50);
  const sim::FetchParams params;

  const auto run_with_depth = [&](std::uint32_t ras_depth) {
    FrontEndParams fe;
    fe.kind = BpredKind::kGshare;
    fe.ras_depth = ras_depth;
    sim::ICache cache(kGeometry);
    return run_seq3_frontend(testing::make_plan(trace, *image, layout), params,
                             fe, &cache);
  };
  const FrontEndResult shallow = run_with_depth(2);
  const FrontEndResult deep = run_with_depth(16);
  EXPECT_GT(shallow.frontend.ras_pushes, 0u);
  EXPECT_GT(shallow.frontend.ras_pops, 0u);
  // The bounded stack loses the outer 6 frames every round; the deep stack
  // holds the whole chain.
  EXPECT_GT(shallow.frontend.bp_mispredicts, deep.frontend.bp_mispredicts);
}

TEST(FrontEndTest, PrefetchingIssuesAndClassifiesPrefetches) {
  Rng rng(42);
  const auto image = testing::random_image(rng, 12);
  const auto trace = testing::random_trace(*image, rng, 3000);
  const auto layout = cfg::AddressMap::original(*image);
  const sim::FetchParams params;
  FrontEndParams fe;
  fe.kind = BpredKind::kGshare;
  fe.prefetch = true;
  // Small direct-mapped cache: plenty of misses for FDIP to hide.
  sim::ICache cache(sim::CacheGeometry{512, 32, 1});
  const FrontEndResult result =
      run_seq3_frontend(testing::make_plan(trace, *image, layout), params, fe,
                        &cache);
  EXPECT_GT(result.frontend.prefetch_issued, 0u);
  EXPECT_LE(result.frontend.prefetch_useful + result.frontend.prefetch_late +
                result.frontend.prefetch_evicted,
            result.frontend.prefetch_issued);
  const verify::Report report = verify::check_frontend_result(
      result, params, fe, verify::trace_instructions(trace, *image),
      /*with_trace_cache=*/false);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(FrontEndTest, TraceCacheFrontendSatisfiesOracle) {
  Rng rng(99);
  const auto image = testing::random_image(rng, 8);
  const auto trace = testing::random_trace(*image, rng, 2000);
  const auto layout = cfg::AddressMap::original(*image);
  const sim::FetchParams params;
  const sim::TraceCacheParams tc;
  FrontEndParams fe;
  fe.kind = BpredKind::kBimodal;
  fe.prefetch = true;
  sim::ICache cache(kGeometry);
  const FrontEndResult result = run_trace_cache_frontend(
      testing::make_plan(trace, *image, layout), params, tc, fe, &cache);
  EXPECT_GT(result.frontend.bp_lookups, 0u);
  // Probe identity survives speculative next-trace selection.
  EXPECT_EQ(result.fetch.tc_probes,
            result.fetch.tc_hits + result.fetch.tc_misses);
  const verify::Report report = verify::check_frontend_result(
      result, params, fe, verify::trace_instructions(trace, *image),
      /*with_trace_cache=*/true);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(FrontEndTest, RunsAreDeterministic) {
  Rng rng(5);
  const auto image = testing::random_image(rng, 6);
  const auto trace = testing::random_trace(*image, rng, 1000);
  const auto layout = cfg::AddressMap::original(*image);
  const sim::FetchParams params;
  FrontEndParams fe;
  fe.kind = BpredKind::kLocal;
  fe.prefetch = true;
  const auto run_once = [&] {
    sim::ICache cache(kGeometry);
    return run_seq3_frontend(testing::make_plan(trace, *image, layout), params,
                             fe, &cache);
  };
  const FrontEndResult a = run_once();
  const FrontEndResult b = run_once();
  expect_same_fetch(a.fetch, b.fetch);
  EXPECT_EQ(a.frontend.bp_mispredicts, b.frontend.bp_mispredicts);
  EXPECT_EQ(a.frontend.prefetch_issued, b.frontend.prefetch_issued);
  EXPECT_EQ(a.frontend.prefetch_useful, b.frontend.prefetch_useful);
  EXPECT_EQ(a.frontend.prefetch_late_cycles, b.frontend.prefetch_late_cycles);
}

}  // namespace
}  // namespace stc::frontend
