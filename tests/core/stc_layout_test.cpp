#include "core/stc_layout.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>
#include <utility>

#include "cfg/builder.h"
#include "support/rng.h"
#include "testing/synthetic.h"

namespace stc::core {
namespace {

TEST(FitExecThresholdTest, FittedPassRespectsBudget) {
  Rng rng(404);
  auto image = testing::random_image(rng, 60);
  const auto cfg = testing::random_wcfg(*image, rng);
  const auto seeds = select_seeds(cfg, SeedKind::kAuto);
  for (std::uint64_t cfa : {256u, 1024u, 4096u}) {
    const std::uint64_t t = fit_exec_threshold(cfg, seeds, 0.4, cfa);
    std::vector<bool> visited(cfg.block_count.size(), false);
    const auto seqs =
        build_traces_complete(cfg, seeds, TraceBuildParams{t, 0.4}, &visited);
    EXPECT_LE(sequences_bytes(*image, seqs), cfa) << "cfa=" << cfa;
  }
}

TEST(FitExecThresholdTest, LargerBudgetAdmitsMoreCode) {
  Rng rng(405);
  auto image = testing::random_image(rng, 60);
  const auto cfg = testing::random_wcfg(*image, rng);
  const auto seeds = select_seeds(cfg, SeedKind::kAuto);
  const std::uint64_t t_small = fit_exec_threshold(cfg, seeds, 0.4, 256);
  const std::uint64_t t_large = fit_exec_threshold(cfg, seeds, 0.4, 8192);
  EXPECT_GE(t_small, t_large);
}

TEST(FitExecThresholdTest, ZeroCfaReturnsSentinel) {
  Rng rng(406);
  auto image = testing::random_image(rng, 10);
  const auto cfg = testing::random_wcfg(*image, rng);
  EXPECT_EQ(fit_exec_threshold(cfg, select_seeds(cfg, SeedKind::kAuto), 0.4, 0),
            ~std::uint64_t{0});
}

TEST(StcLayoutTest, ProducesValidLayout) {
  Rng rng(407);
  auto image = testing::random_image(rng, 80);
  const auto cfg = testing::random_wcfg(*image, rng);
  StcParams params;
  params.cache_bytes = 2048;
  params.cfa_bytes = 512;
  const StcResult result = stc_layout(cfg, SeedKind::kAuto, params);
  result.layout.validate(*image);  // all blocks placed, no overlap
  EXPECT_LE(result.pass1_bytes, params.cfa_bytes);
  EXPECT_GE(result.num_passes, 2u);
}

TEST(StcLayoutTest, Pass1BlocksLiveInsideCfaWindowZero) {
  Rng rng(408);
  auto image = testing::random_image(rng, 80);
  const auto cfg = testing::random_wcfg(*image, rng);
  StcParams params;
  params.cache_bytes = 2048;
  params.cfa_bytes = 512;
  const StcResult result = stc_layout(cfg, SeedKind::kAuto, params);
  // Every non-CFA *sequence* block avoids CFA offsets; only the cold tail
  // may use them. Equivalent check: any block below pass1_bytes is in the
  // first region; blocks mapped at CFA offsets of later regions must be
  // unexecuted (cold).
  for (cfg::BlockId b = 0; b < image->num_blocks(); ++b) {
    const std::uint64_t addr = result.layout.addr(b);
    if (addr >= params.cache_bytes && addr % params.cache_bytes < params.cfa_bytes) {
      EXPECT_EQ(cfg.block_count[b], 0u)
          << "executed block in a reserved CFA window";
    }
  }
}

TEST(StcLayoutTest, ExecutedCodePrecedesColdCode) {
  Rng rng(409);
  auto image = testing::random_image(rng, 60);
  const auto cfg = testing::random_wcfg(*image, rng, 0.3);
  StcParams params;
  params.cache_bytes = 4096;
  params.cfa_bytes = 1024;
  const StcResult result = stc_layout(cfg, SeedKind::kAuto, params);
  std::uint64_t max_hot = 0;
  std::uint64_t min_cold = ~std::uint64_t{0};
  for (cfg::BlockId b = 0; b < image->num_blocks(); ++b) {
    if (cfg.block_count[b] > 0) {
      max_hot = std::max(max_hot, result.layout.addr(b));
    } else {
      min_cold = std::min(min_cold, result.layout.addr(b));
    }
  }
  EXPECT_LT(max_hot, min_cold);
}

TEST(StcLayoutTest, ExplicitThresholdHonored) {
  Rng rng(410);
  auto image = testing::random_image(rng, 40);
  const auto cfg = testing::random_wcfg(*image, rng);
  StcParams params;
  params.cache_bytes = 4096;
  params.cfa_bytes = 1024;
  params.exec_threshold_pass1 = 12345;
  const StcResult result = stc_layout(cfg, SeedKind::kAuto, params);
  EXPECT_EQ(result.exec_threshold_pass1, 12345u);
}

TEST(StcLayoutTest, OpsSeedsProduceValidLayoutToo) {
  Rng rng(411);
  auto image = testing::random_image(rng, 80);
  const auto cfg = testing::random_wcfg(*image, rng);
  StcParams params;
  params.cache_bytes = 2048;
  params.cfa_bytes = 512;
  const StcResult result = stc_layout(cfg, SeedKind::kOps, params);
  result.layout.validate(*image);
  EXPECT_EQ(result.layout.name(), "stc-ops");
}

// ---- Tenant-partitioned layouts -------------------------------------------

// 8 one-block routines of 16 insns (64 bytes) each, so window geometry is
// easy to reason about.
std::unique_ptr<cfg::ProgramImage> grid_image() {
  cfg::ProgramBuilder b;
  const cfg::ModuleId m = b.module("mod");
  for (int i = 0; i < 8; ++i) {
    b.routine(std::string("r").append(std::to_string(i)), m,
              {{"b", 16, cfg::BlockKind::kReturn}});
  }
  return b.build();
}

profile::WeightedCFG flat_wcfg(
    const cfg::ProgramImage& image,
    std::initializer_list<std::pair<cfg::BlockId, std::uint64_t>> counts) {
  profile::WeightedCFG cfg;
  cfg.image = &image;
  cfg.block_count.assign(image.num_blocks(), 0);
  cfg.succs.resize(image.num_blocks());
  for (const auto& [block, count] : counts) cfg.block_count[block] = count;
  return cfg;
}

TEST(StcLayoutPartitionedTest, BudgetsFollowTenantDemand) {
  const auto image = grid_image();
  // Tenant 0 carries ~190x tenant 1's dynamic instruction weight.
  const auto heavy = flat_wcfg(*image, {{0, 1000}, {1, 900}});
  const auto light = flat_wcfg(*image, {{2, 10}});
  StcParams params;
  params.cache_bytes = 512;
  params.cfa_bytes = 256;
  MappingProvenance prov;
  const StcResult result = stc_layout_partitioned({&heavy, &light},
                                                  SeedKind::kAuto, params,
                                                  &prov);
  result.layout.validate(*image);
  EXPECT_EQ(result.layout.name(), "stc-auto-part2");

  ASSERT_EQ(prov.num_tenant_regions, 2u);
  ASSERT_EQ(prov.tenant_region_start.size(), 3u);
  EXPECT_EQ(prov.tenant_region_start.front(), 0u);
  EXPECT_EQ(prov.tenant_region_start.back(), params.cfa_bytes);
  const std::uint64_t window0 =
      prov.tenant_region_start[1] - prov.tenant_region_start[0];
  const std::uint64_t window1 =
      prov.tenant_region_start[2] - prov.tenant_region_start[1];
  // Demand-weighted: the heavy tenant gets (much) more than the light one,
  // but every tenant keeps at least its one-byte floor.
  EXPECT_GT(window0, window1);
  EXPECT_GE(window1, 1u);
  // The heavy tenant's hot blocks start at its window's base.
  EXPECT_EQ(result.layout.addr(0), prov.tenant_region_start[0]);
  EXPECT_EQ(prov.tenant_of[0], 0u);
  EXPECT_EQ(prov.tenant_of[1], 0u);
}

TEST(StcLayoutPartitionedTest, ZeroWeightTenantsShareEvenly) {
  const auto image = grid_image();
  const auto idle_a = flat_wcfg(*image, {});
  const auto idle_b = flat_wcfg(*image, {});
  StcParams params;
  params.cache_bytes = 512;
  params.cfa_bytes = 256;
  MappingProvenance prov;
  const StcResult result = stc_layout_partitioned({&idle_a, &idle_b},
                                                  SeedKind::kAuto, params,
                                                  &prov);
  result.layout.validate(*image);
  ASSERT_EQ(prov.tenant_region_start.size(), 3u);
  // No demand signal: windows split evenly (modulo the leftover byte, which
  // goes to the first group), still tiling [0, cfa) with non-empty windows.
  EXPECT_EQ(prov.tenant_region_start.back(), params.cfa_bytes);
  for (std::size_t g = 0; g + 1 < prov.tenant_region_start.size(); ++g) {
    EXPECT_LT(prov.tenant_region_start[g], prov.tenant_region_start[g + 1]);
  }
  EXPECT_NEAR(static_cast<double>(prov.tenant_region_start[1]),
              static_cast<double>(params.cfa_bytes) / 2, 1.0);
}

TEST(StcLayoutPartitionedTest, DeterministicAcrossRuns) {
  Rng rng(413);
  auto image = testing::random_image(rng, 50);
  const auto cfg_a = testing::random_wcfg(*image, rng);
  const auto cfg_b = testing::random_wcfg(*image, rng);
  StcParams params;
  params.cache_bytes = 1024;
  params.cfa_bytes = 256;
  MappingProvenance prov_x;
  MappingProvenance prov_y;
  const StcResult x = stc_layout_partitioned({&cfg_a, &cfg_b}, SeedKind::kAuto,
                                             params, &prov_x);
  const StcResult y = stc_layout_partitioned({&cfg_a, &cfg_b}, SeedKind::kAuto,
                                             params, &prov_y);
  for (cfg::BlockId blk = 0; blk < image->num_blocks(); ++blk) {
    ASSERT_EQ(x.layout.addr(blk), y.layout.addr(blk));
  }
  EXPECT_EQ(prov_x.tenant_region_start, prov_y.tenant_region_start);
  EXPECT_EQ(prov_x.tenant_of, prov_y.tenant_of);
}

TEST(StcLayoutTest, DeterministicAcrossRuns) {
  Rng rng(412);
  auto image = testing::random_image(rng, 50);
  const auto cfg = testing::random_wcfg(*image, rng);
  StcParams params;
  params.cache_bytes = 1024;
  params.cfa_bytes = 256;
  const StcResult a = stc_layout(cfg, SeedKind::kAuto, params);
  const StcResult b = stc_layout(cfg, SeedKind::kAuto, params);
  for (cfg::BlockId blk = 0; blk < image->num_blocks(); ++blk) {
    ASSERT_EQ(a.layout.addr(blk), b.layout.addr(blk));
  }
}

}  // namespace
}  // namespace stc::core
