// End-to-end pipeline tests: profile the Training workload, build every
// layout, replay the Test workload through the simulators, and assert the
// paper's qualitative results (the numbers the benches print in full).
#include <gtest/gtest.h>

#include "core/layouts.h"
#include "db/tpcd/workload.h"
#include "profile/locality.h"
#include "profile/profile.h"
#include "sim/fetch_unit.h"
#include "sim/icache.h"
#include "sim/replay.h"
#include "sim/trace_cache.h"
#include "testing/plan.h"
#include "verify/oracle.h"

namespace stc {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db::tpcd::WorkloadConfig config;
    config.scale_factor = 0.002;
    btree_ = db::tpcd::make_database(config, db::IndexKind::kBTree).release();
    hash_ = db::tpcd::make_database(config, db::IndexKind::kHash).release();

    profile_ = new profile::Profile(db::kernel_image());
    training_ = new trace::BlockTrace();
    {
      trace::TraceRecorder recorder(*training_);
      cfg::TeeSink tee;
      tee.add(profile_);
      tee.add(&recorder);
      db::tpcd::run_training_workload(*btree_, &tee);
    }
    test_ = new trace::BlockTrace();
    {
      trace::TraceRecorder recorder(*test_);
      db::tpcd::run_test_workload(*btree_, *hash_, &recorder);
    }
    wcfg_ = new profile::WeightedCFG(
        profile::WeightedCFG::from_profile(*profile_));
  }
  static void TearDownTestSuite() {
    delete btree_;
    delete hash_;
    delete profile_;
    delete training_;
    delete test_;
    delete wcfg_;
    btree_ = nullptr;
    hash_ = nullptr;
    profile_ = nullptr;
    training_ = nullptr;
    test_ = nullptr;
    wcfg_ = nullptr;
  }

  // The Test trace's replay plan under `layout`, with 32-byte line tables.
  static sim::ReplayPlan plan(const cfg::AddressMap& layout) {
    return testing::make_plan(*test_, db::kernel_image(), layout, 32);
  }
  static double miss_rate(const cfg::AddressMap& layout,
                          std::uint32_t cache_bytes) {
    sim::ICache cache({cache_bytes, 32, 1});
    return sim::replay_missrate(plan(layout), cache).misses_per_100_insns();
  }
  static double fetch_ipc(const cfg::AddressMap& layout,
                          std::uint32_t cache_bytes) {
    sim::ICache cache({cache_bytes, 32, 1});
    sim::FetchParams params;
    return sim::run_seq3(plan(layout), params, &cache).ipc();
  }

  static db::Database* btree_;
  static db::Database* hash_;
  static profile::Profile* profile_;
  static trace::BlockTrace* training_;
  static trace::BlockTrace* test_;
  static profile::WeightedCFG* wcfg_;
};

db::Database* PipelineTest::btree_ = nullptr;
db::Database* PipelineTest::hash_ = nullptr;
profile::Profile* PipelineTest::profile_ = nullptr;
trace::BlockTrace* PipelineTest::training_ = nullptr;
trace::BlockTrace* PipelineTest::test_ = nullptr;
profile::WeightedCFG* PipelineTest::wcfg_ = nullptr;

// ---- Layout-equivalence oracle ---------------------------------------------
//
// Before trusting any number below: every layout built from the real TPC-D
// kernel must be semantically transparent on the real Test trace — valid
// permutation-plus-replication, exact replay equivalence, CFA occupancy per
// its own provenance, and simulator counters that survive an independent
// recount.

TEST_F(PipelineTest, EveryLayoutSatisfiesTheEquivalenceOracle) {
  for (const auto kind :
       {core::LayoutKind::kOrig, core::LayoutKind::kPettisHansen,
        core::LayoutKind::kTorrellas, core::LayoutKind::kStcAuto,
        core::LayoutKind::kStcOps}) {
    core::MappingProvenance provenance;
    const auto map =
        core::make_layout(kind, *wcfg_, 2048, 512, &provenance);
    verify::OracleOptions options;
    options.geometry = {2048, 32, 1};
    const auto report = verify::verify_layout(*test_, db::kernel_image(), map,
                                              &provenance, options);
    EXPECT_TRUE(report.ok()) << core::to_string(kind) << "\n"
                             << report.summary();
  }
}

// ---- Section 4 characterization -------------------------------------------

TEST_F(PipelineTest, Table1_SmallFractionOfCodeExecutes) {
  const auto fp = profile::footprint(*profile_);
  // The paper measures 12.7% of static instructions touched; our kernel
  // lands in the same band.
  EXPECT_GT(fp.instruction_fraction(), 0.05);
  EXPECT_LT(fp.instruction_fraction(), 0.35);
  EXPECT_LT(fp.routine_fraction(), 0.6);
}

TEST_F(PipelineTest, Figure2_ReferencesConcentrateInFewBlocks) {
  const auto curve = profile::cumulative_reference_curve(*profile_);
  const auto n90 = profile::blocks_for_fraction(curve, 0.90);
  // 90% of dynamic references from well under 20% of executed blocks.
  EXPECT_LT(static_cast<double>(n90) / static_cast<double>(curve.size()), 0.4);
}

TEST_F(PipelineTest, Section41_PopularBlocksReusedWithinFewInstructions) {
  const auto reuse = profile::reuse_distances(*training_, *profile_, 0.75);
  // The paper reports 33% of re-references within 250 instructions and 19%
  // within 100 for the top-75% blocks; ours must show the same strong
  // temporal locality (well above those floors on a smaller kernel).
  EXPECT_GT(reuse.fraction_below(250), 0.33);
  EXPECT_GT(reuse.fraction_below(100), 0.19);
}

TEST_F(PipelineTest, Table2_TransitionsAreMostlyPredictable) {
  const auto stats = profile::block_type_stats(*profile_);
  using cfg::BlockKind;
  EXPECT_DOUBLE_EQ(
      stats.by_kind[static_cast<int>(BlockKind::kFallThrough)].predictable,
      1.0);
  // Returns count as predictable (return-address stack, as in the paper).
  EXPECT_DOUBLE_EQ(
      stats.by_kind[static_cast<int>(BlockKind::kReturn)].predictable, 1.0);
  // The paper reports ~80% overall; this kernel routes more of its dynamic
  // blocks through megamorphic dispatch branches, so it lands a bit lower.
  EXPECT_GT(stats.overall_predictable, 0.6);
}

// ---- Section 7 evaluation ---------------------------------------------------

TEST_F(PipelineTest, Table3_LayoutsReduceMissRate) {
  const auto orig = core::make_layout(core::LayoutKind::kOrig, *wcfg_, 2048, 512);
  const auto ops = core::make_layout(core::LayoutKind::kStcOps, *wcfg_, 2048, 512);
  const auto auto_l =
      core::make_layout(core::LayoutKind::kStcAuto, *wcfg_, 2048, 512);
  const double m_orig = miss_rate(orig, 2048);
  const double m_ops = miss_rate(ops, 2048);
  const double m_auto = miss_rate(auto_l, 2048);
  EXPECT_GT(m_orig, 1.0);                 // the original layout thrashes
  EXPECT_LT(m_ops, m_orig * 0.4);         // >= 60% reduction (paper: 60-98%)
  EXPECT_LT(m_auto, m_orig * 0.5);
}

TEST_F(PipelineTest, Table3_AllProfileGuidedLayoutsBeatOriginal) {
  const auto orig = core::make_layout(core::LayoutKind::kOrig, *wcfg_, 2048, 512);
  const double m_orig = miss_rate(orig, 2048);
  for (const auto kind :
       {core::LayoutKind::kPettisHansen, core::LayoutKind::kTorrellas,
        core::LayoutKind::kStcAuto, core::LayoutKind::kStcOps}) {
    const auto layout = core::make_layout(kind, *wcfg_, 2048, 512);
    EXPECT_LT(miss_rate(layout, 2048), m_orig) << core::to_string(kind);
  }
}

TEST_F(PipelineTest, SequentialityDoublesLikeThePaper) {
  const auto orig = core::make_layout(core::LayoutKind::kOrig, *wcfg_, 4096, 1024);
  const auto ops = core::make_layout(core::LayoutKind::kStcOps, *wcfg_, 4096, 1024);
  const auto before = sim::replay_sequentiality(plan(orig));
  const auto after = sim::replay_sequentiality(plan(ops));
  // Paper: 8.9 -> 22.4 instructions between taken branches. Our dispatcher-
  // heavy kernel gains less, but the improvement must be substantial.
  EXPECT_GT(after.insns_between_taken_branches(),
            before.insns_between_taken_branches() * 1.25);
}

TEST_F(PipelineTest, Table4_FetchBandwidthImproves) {
  const auto orig = core::make_layout(core::LayoutKind::kOrig, *wcfg_, 4096, 1024);
  const auto ops = core::make_layout(core::LayoutKind::kStcOps, *wcfg_, 4096, 1024);
  EXPECT_GT(fetch_ipc(ops, 4096), fetch_ipc(orig, 4096) * 1.1);
}

TEST_F(PipelineTest, Table4_TraceCacheCombinesWithSoftwareLayout) {
  const auto orig = core::make_layout(core::LayoutKind::kOrig, *wcfg_, 4096, 1024);
  const auto ops = core::make_layout(core::LayoutKind::kStcOps, *wcfg_, 4096, 1024);
  sim::FetchParams params;
  sim::TraceCacheParams tc;
  tc.entries = 64;
  sim::ICache c1({4096, 32, 1});
  const double tc_orig =
      sim::run_trace_cache(plan(orig), params, tc, &c1).ipc();
  sim::ICache c2({4096, 32, 1});
  const double tc_ops = sim::run_trace_cache(plan(ops), params, tc, &c2).ipc();
  sim::ICache c3({4096, 32, 1});
  const double seq_orig = sim::run_seq3(plan(orig), params, &c3).ipc();
  // TC alone beats plain SEQ.3; TC + software layout beats TC alone.
  EXPECT_GT(tc_orig, seq_orig);
  EXPECT_GT(tc_ops, tc_orig);
}

TEST_F(PipelineTest, HardwareAlternativesHelpLessThanReordering) {
  const auto orig = core::make_layout(core::LayoutKind::kOrig, *wcfg_, 2048, 512);
  const auto ops = core::make_layout(core::LayoutKind::kStcOps, *wcfg_, 2048, 512);
  sim::ICache two_way({2048, 32, 2});
  const double m_2way =
      sim::replay_missrate(plan(orig), two_way).misses_per_100_insns();
  // 16 victim lines on the paper's 8-64KB caches ~= 1/16 of the smallest
  // cache; scaled to the 2KB cache that is 4 lines.
  sim::ICache victim({2048, 32, 1}, 4);
  const double m_victim =
      sim::replay_missrate(plan(orig), victim).misses_per_100_insns();
  const double m_ops = miss_rate(ops, 2048);
  // The paper's Table 3: all code layouts beat both hardware variants.
  EXPECT_LT(m_ops, m_2way);
  EXPECT_LT(m_ops, m_victim);
}

TEST_F(PipelineTest, ReplayIsLayoutIndependentInInstructionCount) {
  const auto orig = core::make_layout(core::LayoutKind::kOrig, *wcfg_, 2048, 512);
  const auto ops = core::make_layout(core::LayoutKind::kStcOps, *wcfg_, 2048, 512);
  const auto a = sim::replay_sequentiality(plan(orig));
  const auto b = sim::replay_sequentiality(plan(ops));
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.dynamic_blocks, b.dynamic_blocks);
}

}  // namespace
}  // namespace stc
