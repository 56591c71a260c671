// Replay-mode equivalence: the compiled replay engine (sim/replay.h) must
// reproduce the interpreter bit for bit — every simulator counter, every
// cache statistic, every speculative-front-end cycle count — on every
// synthetic program family, every degenerate family and every layout kind.
// The parameterized suites drive the oracle's check_replay_modes (six
// simulators per triple); the direct tests assert a few headline counters
// explicitly, and the corpus tests replay the fuzz regression shapes
// through run_replay_diff.
#include <gtest/gtest.h>

#include "core/layouts.h"
#include "frontend/front_end.h"
#include "sim/fetch_unit.h"
#include "sim/icache.h"
#include "sim/replay.h"
#include "sim/trace_cache.h"
#include "support/rng.h"
#include "testing/synthetic.h"
#include "verify/fuzz.h"
#include "verify/oracle.h"

namespace stc::sim {
namespace {

constexpr core::LayoutKind kAllLayouts[] = {
    core::LayoutKind::kOrig, core::LayoutKind::kPettisHansen,
    core::LayoutKind::kTorrellas, core::LayoutKind::kStcAuto,
    core::LayoutKind::kStcOps};

struct ModesInput {
  std::uint64_t seed;
  std::uint32_t cache_bytes;
  std::uint32_t line_bytes;
  int degenerate_family;  // -1 = random program family
};

class ReplayModesTest : public ::testing::TestWithParam<ModesInput> {
 protected:
  void SetUp() override {
    const ModesInput& p = GetParam();
    Rng rng(p.seed);
    if (p.degenerate_family >= 0) {
      image = testing::degenerate_image(rng, p.degenerate_family);
      wcfg = testing::degenerate_wcfg(*image, rng);
    } else {
      image = testing::random_image(rng, 40);
      wcfg = testing::random_wcfg(*image, rng);
    }
    if (image->num_blocks() > 0) {
      trace = testing::random_trace(*image, rng, 8000);
    }
  }

  std::unique_ptr<cfg::ProgramImage> image;
  profile::WeightedCFG wcfg;
  trace::BlockTrace trace;
};

// Every simulator, every replay mode, every layout kind: bit-identical.
TEST_P(ReplayModesTest, AllSimulatorsIdenticalAcrossModesAndLayouts) {
  const ModesInput& p = GetParam();
  const CacheGeometry geometry{p.cache_bytes, p.line_bytes, 1};
  for (core::LayoutKind kind : kAllLayouts) {
    const cfg::AddressMap layout =
        core::make_layout(kind, wcfg, p.cache_bytes, p.cache_bytes / 4);
    const verify::Report report =
        verify::check_replay_modes(trace, *image, layout, geometry);
    EXPECT_TRUE(report.ok())
        << core::to_string(kind) << ": " << report.summary();
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomPrograms, ReplayModesTest,
    ::testing::Values(ModesInput{11, 1024, 32, -1}, ModesInput{12, 2048, 64, -1},
                      ModesInput{13, 4096, 32, -1}, ModesInput{14, 512, 16, -1},
                      ModesInput{15, 8192, 128, -1}));

INSTANTIATE_TEST_SUITE_P(
    DegenerateFamilies, ReplayModesTest,
    ::testing::Values(ModesInput{21, 1024, 32, 0},   // EmptyProgram
                      ModesInput{22, 1024, 32, 1},   // SingleBlockProgram
                      ModesInput{23, 2048, 64, 2},   // AllSingleBlockRoutines
                      ModesInput{24, 1024, 32, 3},   // OversizedBlocks
                      ModesInput{25, 4096, 32, 4}),  // NonReturnTails
    [](const ::testing::TestParamInfo<ModesInput>& info) {
      return testing::degenerate_family_name(info.param.degenerate_family);
    });

// Direct counter assertions (not via the oracle) on one random input, so a
// divergence shows up as a readable EXPECT_EQ on the exact field.
TEST(ReplayModesDirect, HeadlineCountersMatchInterp) {
  Rng rng(777);
  const auto image = testing::random_image(rng, 50);
  const auto wcfg = testing::random_wcfg(*image, rng);
  const trace::BlockTrace trace = testing::random_trace(*image, rng, 20000);
  const cfg::AddressMap layout =
      core::make_layout(core::LayoutKind::kStcOps, wcfg, 2048, 512);
  const CacheGeometry geometry{2048, 32, 1};

  ICache interp_cache(geometry);
  const MissRateResult interp_miss =
      run_missrate(trace, *image, layout, interp_cache);
  FetchParams params;
  ICache interp_seq3_cache(geometry);
  const FetchResult interp_seq3 =
      run_seq3(trace, *image, layout, params, &interp_seq3_cache);
  const TraceCacheParams tc_params;
  ICache interp_tc_cache(geometry);
  const FetchResult interp_tc = run_trace_cache(trace, *image, layout, params,
                                                tc_params, &interp_tc_cache);
  frontend::FrontEndParams fe;
  fe.kind = frontend::BpredKind::kGshare;
  fe.prefetch = true;
  ICache interp_fe_cache(geometry);
  const frontend::FrontEndResult interp_fe = frontend::run_seq3_frontend(
      trace, *image, layout, params, fe, &interp_fe_cache);

  Result<ReplayPlan> plan = build_replay_plan(
      ReplayMode::kCompiled, trace, *image, layout, geometry.line_bytes);
  ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();

  ICache miss_cache(geometry);
  const MissRateResult miss = replay_missrate(plan.value(), miss_cache);
  EXPECT_EQ(miss.instructions, interp_miss.instructions);
  EXPECT_EQ(miss.misses, interp_miss.misses);
  EXPECT_EQ(miss.line_accesses, interp_miss.line_accesses);
  EXPECT_EQ(miss_cache.stats().misses, interp_cache.stats().misses);

  ICache seq3_cache(geometry);
  const FetchResult seq3 = run_seq3(plan.value(), params, &seq3_cache);
  EXPECT_EQ(seq3.instructions, interp_seq3.instructions);
  EXPECT_EQ(seq3.cycles, interp_seq3.cycles);
  EXPECT_EQ(seq3.fetch_requests, interp_seq3.fetch_requests);
  EXPECT_EQ(seq3_cache.stats().misses, interp_seq3_cache.stats().misses);

  ICache tc_cache(geometry);
  const FetchResult tc =
      run_trace_cache(plan.value(), params, tc_params, &tc_cache);
  EXPECT_EQ(tc.cycles, interp_tc.cycles);
  EXPECT_EQ(tc.tc_hits, interp_tc.tc_hits);
  EXPECT_EQ(tc.tc_misses, interp_tc.tc_misses);
  EXPECT_EQ(tc.tc_fills, interp_tc.tc_fills);

  ICache fe_cache(geometry);
  const frontend::FrontEndResult fe_result =
      frontend::run_seq3_frontend(plan.value(), params, fe, &fe_cache);
  EXPECT_EQ(fe_result.fetch.cycles, interp_fe.fetch.cycles);
  EXPECT_EQ(fe_result.frontend.bp_mispredicts,
            interp_fe.frontend.bp_mispredicts);
  EXPECT_EQ(fe_result.frontend.prefetch_issued,
            interp_fe.frontend.prefetch_issued);
}

// A compiled plan built with one line size must still serve a simulator run
// at a different line size (the tables are bypassed, not misused).
TEST(ReplayModesDirect, CompiledPlanWithMismatchedLineSizeStaysCorrect) {
  Rng rng(778);
  const auto image = testing::random_image(rng, 20);
  const auto wcfg = testing::random_wcfg(*image, rng);
  const trace::BlockTrace trace = testing::random_trace(*image, rng, 5000);
  const cfg::AddressMap layout = cfg::AddressMap::original(*image);

  Result<ReplayPlan> plan =
      build_replay_plan(ReplayMode::kCompiled, trace, *image, layout, 64);
  ASSERT_TRUE(plan.is_ok());
  const CacheGeometry geometry{1024, 32, 1};  // 32B lines, tables are 64B
  ICache interp_cache(geometry);
  const MissRateResult interp =
      run_missrate(trace, *image, layout, interp_cache);
  ICache replay_cache(geometry);
  const MissRateResult replayed =
      replay_missrate(plan.value(), replay_cache);
  EXPECT_EQ(replayed.misses, interp.misses);
  EXPECT_EQ(replayed.line_accesses, interp.line_accesses);
}

// ---- Fuzz regression corpus through the replay-diff check ----------------
// The shapes below mirror tests/verify/regression_cases.cpp (the corpus the
// PR 2/3 fuzzers minimized); any replay-engine divergence on them would have
// been found by stc_fuzz --replay-diff and belongs here shrunken.

verify::FuzzCase corpus_empty() {
  verify::FuzzCase c;
  c.cache_bytes = 1024;
  c.cfa_bytes = 256;
  c.line_bytes = 32;
  return c;
}

verify::FuzzCase corpus_single_block() {
  verify::FuzzCase c;
  c.cache_bytes = 512;
  c.cfa_bytes = 128;
  c.line_bytes = 16;
  c.routines = {{{{1, cfg::BlockKind::kReturn}}, false}};
  c.trace = {0, 0, 0};
  c.seeds = {0};
  return c;
}

verify::FuzzCase corpus_oversized_block() {
  verify::FuzzCase c;
  c.cache_bytes = 512;
  c.cfa_bytes = 256;
  c.line_bytes = 32;
  c.routines = {
      {{{100, cfg::BlockKind::kBranch}, {1, cfg::BlockKind::kReturn}}, false},
      {{{2, cfg::BlockKind::kReturn}}, false},
  };
  c.edges = {{0, 0, 50}, {0, 1, 10}};
  c.trace = {0, 0, 1, 2, 0};
  c.seeds = {0};
  return c;
}

verify::FuzzCase corpus_deep_calls() {
  verify::FuzzCase c;
  c.cache_bytes = 1024;
  c.cfa_bytes = 256;
  c.line_bytes = 32;
  for (int d = 0; d < 8; ++d) {
    c.routines.push_back(
        {{{2, cfg::BlockKind::kCall}, {1, cfg::BlockKind::kReturn}}, false});
  }
  for (std::uint32_t d = 0; d < 8; ++d) c.trace.push_back(2 * d);
  for (std::uint32_t d = 8; d-- > 0;) c.trace.push_back(2 * d + 1);
  return c;
}

TEST(ReplayModesCorpus, EmptyProgram) {
  const verify::Report r = verify::run_replay_diff(corpus_empty());
  EXPECT_TRUE(r.ok()) << r.summary();
}

TEST(ReplayModesCorpus, SingleBlockProgram) {
  const verify::Report r = verify::run_replay_diff(corpus_single_block());
  EXPECT_TRUE(r.ok()) << r.summary();
}

TEST(ReplayModesCorpus, BlockLargerThanInterCfaWindow) {
  const verify::Report r = verify::run_replay_diff(corpus_oversized_block());
  EXPECT_TRUE(r.ok()) << r.summary();
}

TEST(ReplayModesCorpus, DeepCallReturnChain) {
  const verify::Report r = verify::run_replay_diff(corpus_deep_calls());
  EXPECT_TRUE(r.ok()) << r.summary();
}

}  // namespace
}  // namespace stc::sim
