// Replay equivalence: the replay plan (sim/replay.h) must reproduce the
// oracle's per-event references bit for bit — the missrate and
// sequentiality kernels' counters, and the BlockRuns and back-end op values
// the fetch family reads — on every synthetic program family, every
// degenerate family and every layout kind. The parameterized suites drive
// the oracle's check_replay_modes and check_plan_feed; the direct tests
// assert a few headline counters explicitly and show that check_plan_feed
// rejects a stale plan; the corpus tests replay the fuzz regression shapes
// through run_replay_diff.
#include <gtest/gtest.h>

#include "core/layouts.h"
#include "frontend/front_end.h"
#include "sim/fetch_unit.h"
#include "sim/icache.h"
#include "sim/replay.h"
#include "sim/trace_cache.h"
#include "support/rng.h"
#include "testing/plan.h"
#include "testing/synthetic.h"
#include "verify/fuzz.h"
#include "verify/oracle.h"
#include "verify/reference.h"

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

// Every simulator, every layout kind: kernels equal to their references,
// feed equal to the reference stream, counter identities intact.
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

// A plan built for the triple it is checked against feeds exactly what the
// reference stream walks, back-end tables included.
TEST_P(ReplayModesTest, MatchingPlanPassesTheFeedCheck) {
  const ModesInput& p = GetParam();
  BackendSpec spec;
  spec.enabled = true;
  for (core::LayoutKind kind : kAllLayouts) {
    const cfg::AddressMap layout =
        core::make_layout(kind, wcfg, p.cache_bytes, p.cache_bytes / 4);
    const ReplayPlan plan =
        testing::make_plan(trace, *image, layout, p.line_bytes, spec);
    const verify::Report report =
        verify::check_plan_feed(trace, *image, layout, plan, spec);
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
// divergence shows up as a readable EXPECT_EQ on the exact field: the
// kernels against the per-event references, and the fetch family's
// instruction totals and cycle identities against the same walk.
TEST(ReplayModesDirect, HeadlineCountersMatchInterp) {
  Rng rng(777);
  const auto image = testing::random_image(rng, 50);
  const auto wcfg = testing::random_wcfg(*image, rng);
  const trace::BlockTrace trace = testing::random_trace(*image, rng, 20000);
  const cfg::AddressMap layout =
      core::make_layout(core::LayoutKind::kStcOps, wcfg, 2048, 512);
  const CacheGeometry geometry{2048, 32, 1};

  ICache ref_cache(geometry);
  const MissRateResult ref_miss =
      verify::reference_missrate(trace, *image, layout, ref_cache);
  const trace::SequentialityStats ref_seq =
      verify::reference_sequentiality(trace, *image, layout);
  const ReplayPlan plan =
      testing::make_plan(trace, *image, layout, geometry.line_bytes);

  ICache miss_cache(geometry);
  const MissRateResult miss = replay_missrate(plan, miss_cache);
  EXPECT_EQ(miss.instructions, ref_miss.instructions);
  EXPECT_EQ(miss.misses, ref_miss.misses);
  EXPECT_EQ(miss.line_accesses, ref_miss.line_accesses);
  EXPECT_EQ(miss_cache.stats().misses, ref_cache.stats().misses);

  const trace::SequentialityStats seq = replay_sequentiality(plan);
  EXPECT_EQ(seq.instructions, ref_seq.instructions);
  EXPECT_EQ(seq.dynamic_blocks, ref_seq.dynamic_blocks);
  EXPECT_EQ(seq.taken_transitions, ref_seq.taken_transitions);

  FetchParams params;
  ICache seq3_cache(geometry);
  const FetchResult seq3 = run_seq3(plan, params, &seq3_cache);
  EXPECT_EQ(seq3.instructions, ref_miss.instructions);
  EXPECT_EQ(seq3.cycles, seq3.fetch_requests +
                             std::uint64_t{params.miss_penalty} *
                                 seq3.miss_requests);
  EXPECT_EQ(seq3.lines_missed, seq3_cache.stats().misses);

  ICache tc_cache(geometry);
  const FetchResult tc =
      run_trace_cache(plan, params, TraceCacheParams{}, &tc_cache);
  EXPECT_EQ(tc.instructions, ref_miss.instructions);
  EXPECT_EQ(tc.tc_hits + tc.tc_misses, tc.fetch_requests);

  frontend::FrontEndParams fe;
  fe.kind = frontend::BpredKind::kGshare;
  fe.prefetch = true;
  ICache fe_cache(geometry);
  const frontend::FrontEndResult fe_result =
      frontend::run_seq3_frontend(plan, params, fe, &fe_cache);
  EXPECT_EQ(fe_result.fetch.instructions, ref_miss.instructions);
  EXPECT_EQ(fe_result.frontend.bp_bubble_cycles,
            fe_result.frontend.bp_mispredicts * fe.mispredict_penalty);
}

// A plan built for layout A and checked against layout B — the stale-plan
// bug a pointer-keyed plan cache produces — fails the feed check, naming
// the first event whose run differs.
TEST(ReplayModesDirect, FeedCheckCatchesAPlanForAnotherLayout) {
  Rng rng(779);
  const auto image = testing::random_image(rng, 30);
  const auto wcfg = testing::random_wcfg(*image, rng);
  const trace::BlockTrace trace = testing::random_trace(*image, rng, 4000);
  const cfg::AddressMap a = cfg::AddressMap::original(*image);
  const cfg::AddressMap b =
      core::make_layout(core::LayoutKind::kStcOps, wcfg, 1024, 256);
  const ReplayPlan plan_a = testing::make_plan(trace, *image, a);

  // The first event at which the two layouts give a different BlockRun.
  trace::BlockRunStream stream_a(trace, *image, a);
  trace::BlockRunStream stream_b(trace, *image, b);
  trace::BlockRun run_a;
  trace::BlockRun run_b;
  std::uint64_t first = 0;
  while (stream_a.next(run_a) && stream_b.next(run_b) &&
         run_a.addr == run_b.addr && run_a.next_addr == run_b.next_addr &&
         run_a.taken == run_b.taken) {
    ++first;
  }
  ASSERT_LT(first, trace.num_events()) << "layouts never diverge";

  const verify::Report report =
      verify::check_plan_feed(trace, *image, b, plan_a);
  ASSERT_FALSE(report.ok());
  ASSERT_EQ(report.errors().size(), 1u) << report.summary();
  EXPECT_NE(report.errors()[0].find("diverges at event " +
                                    std::to_string(first) + " "),
            std::string::npos)
      << report.summary();
  EXPECT_TRUE(verify::check_plan_feed(trace, *image, a, plan_a).ok());
}

// A plan whose back-end tables were baked under another BackendSpec fails
// the table check even though its feed is right.
TEST(ReplayModesDirect, FeedCheckCatchesAPlanForAnotherBackendSpec) {
  Rng rng(780);
  const auto image = testing::random_image(rng, 30);
  const trace::BlockTrace trace = testing::random_trace(*image, rng, 4000);
  const cfg::AddressMap layout = cfg::AddressMap::original(*image);
  BackendSpec built_for;
  built_for.enabled = true;
  BackendSpec expected = built_for;
  expected.base_latency = built_for.base_latency + 2;
  const ReplayPlan plan =
      testing::make_plan(trace, *image, layout, 0, built_for);

  const verify::Report stale =
      verify::check_plan_feed(trace, *image, layout, plan, expected);
  ASSERT_FALSE(stale.ok());
  EXPECT_NE(stale.summary().find("back-end table"), std::string::npos)
      << stale.summary();
  EXPECT_TRUE(
      verify::check_plan_feed(trace, *image, layout, plan, built_for).ok());
  // A plan without tables, checked as a back-end plan, fails too.
  const ReplayPlan no_tables = testing::make_plan(trace, *image, layout);
  EXPECT_FALSE(
      verify::check_plan_feed(trace, *image, layout, no_tables, expected)
          .ok());
}

// A compiled plan built with one line size must still serve a simulator run
// at a different line size (the tables are bypassed, not misused).
TEST(ReplayModesDirect, CompiledPlanWithMismatchedLineSizeStaysCorrect) {
  Rng rng(778);
  const auto image = testing::random_image(rng, 20);
  const auto wcfg = testing::random_wcfg(*image, rng);
  const trace::BlockTrace trace = testing::random_trace(*image, rng, 5000);
  const cfg::AddressMap layout = cfg::AddressMap::original(*image);

  const ReplayPlan plan = testing::make_plan(trace, *image, layout, 64);
  const CacheGeometry geometry{1024, 32, 1};  // 32B lines, tables are 64B
  ICache ref_cache(geometry);
  const MissRateResult reference =
      verify::reference_missrate(trace, *image, layout, ref_cache);
  ICache replay_cache(geometry);
  const MissRateResult replayed = replay_missrate(plan, replay_cache);
  EXPECT_EQ(replayed.misses, reference.misses);
  EXPECT_EQ(replayed.line_accesses, reference.line_accesses);
}

// ---- Fuzz regression corpus through the replay-diff check ----------------
// The shapes below mirror tests/verify/regression_cases.cpp (the corpus the
// fuzzers minimized); any replay divergence on them would have been found
// by stc_fuzz --replay-diff and belongs here shrunken.

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
