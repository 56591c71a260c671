#include "core/mapping.h"

#include <gtest/gtest.h>

#include "cfg/builder.h"

namespace stc::core {
namespace {

using cfg::BlockId;
using cfg::BlockKind;

// 16 one-block routines of 64 bytes each (16 insns), so placement geometry
// is easy to reason about.
struct Fixture {
  Fixture() {
    cfg::ProgramBuilder b;
    const cfg::ModuleId m = b.module("mod");
    for (int i = 0; i < 16; ++i) {
      b.routine(std::string("r").append(std::to_string(i)), m,
                {{"b", 16, BlockKind::kReturn}});
    }
    image = b.build();
  }
  Sequence seq(std::initializer_list<BlockId> blocks) const {
    Sequence s;
    s.blocks = blocks;
    return s;
  }
  std::unique_ptr<cfg::ProgramImage> image;
};

TEST(MappingTest, Pass1StartsAtZeroAndStaysInCfa) {
  Fixture f;
  MappingParams params{512, 128, false};
  // Pass 1: two 64-byte blocks -> exactly fills the 128-byte CFA.
  const auto map = map_sequences(
      *f.image, "t", {{f.seq({0, 1})}, {f.seq({2, 3, 4})}},
      {5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, params);
  EXPECT_EQ(map.addr(0), 0u);
  EXPECT_EQ(map.addr(1), 64u);
  // Later passes start at the CFA boundary.
  EXPECT_EQ(map.addr(2), 128u);
}

TEST(MappingTest, CfaWindowReservedInEveryLogicalCache) {
  Fixture f;
  MappingParams params{256, 64, false};
  // Pass 2 has 8 blocks of 64B = 512B; non-CFA windows are 192B each, so
  // placement must skip offsets [0, 64) of every 256B region.
  const auto map = map_sequences(
      *f.image, "t", {{f.seq({0})}, {f.seq({1, 2, 3, 4, 5, 6, 7, 8})}},
      {9, 10, 11, 12, 13, 14, 15}, params);
  for (BlockId b = 1; b <= 8; ++b) {
    EXPECT_GE(map.addr(b) % 256, 64u) << "block " << b << " in CFA window";
  }
}

TEST(MappingTest, ColdFillIgnoresReservation) {
  Fixture f;
  MappingParams params{256, 64, false};
  std::vector<BlockId> cold;
  for (BlockId b = 1; b < 16; ++b) cold.push_back(b);
  const auto map =
      map_sequences(*f.image, "t", {{f.seq({0})}, {}}, cold, params);
  // 15 cold blocks of 64B from offset 64: they cover [64, 1024), which
  // necessarily includes CFA offsets of later regions.
  bool cold_in_cfa_window = false;
  for (BlockId b = 1; b < 16; ++b) {
    if (map.addr(b) % 256 < 64 && map.addr(b) >= 256) cold_in_cfa_window = true;
  }
  EXPECT_TRUE(cold_in_cfa_window);
  map.validate(*f.image);
}

TEST(MappingTest, ZeroCfaDisablesReservation) {
  Fixture f;
  MappingParams params{256, 0, false};
  const auto map = map_sequences(
      *f.image, "t", {{}, {f.seq({0, 1, 2, 3, 4, 5, 6, 7})}},
      {8, 9, 10, 11, 12, 13, 14, 15}, params);
  // Fully packed from zero.
  for (BlockId b = 0; b < 8; ++b) EXPECT_EQ(map.addr(b), b * 64u);
}

TEST(MappingTest, AvoidSplittingMovesSequenceToFreshWindow) {
  Fixture f;
  MappingParams params{256, 64, true};
  // First pass-2 sequence uses 128B of the 192B window; the second (128B)
  // does not fit the remaining 64B and must start at the next window.
  const auto map = map_sequences(
      *f.image, "t", {{}, {f.seq({0, 1}), f.seq({2, 3})}},
      {4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, params);
  EXPECT_EQ(map.addr(0), 64u);
  EXPECT_EQ(map.addr(2), 256u + 64u);
  // Block 3 follows block 2 contiguously.
  EXPECT_EQ(map.addr(3), map.addr(2) + 64u);
}

TEST(MappingTest, SplittingAllowedPlacesBlockByBlock) {
  Fixture f;
  MappingParams params{256, 64, false};
  const auto map = map_sequences(
      *f.image, "t", {{}, {f.seq({0, 1}), f.seq({2, 3})}},
      {4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, params);
  EXPECT_EQ(map.addr(2), 192u);        // last 64B of window 0
  EXPECT_EQ(map.addr(3), 256u + 64u);  // wraps into window 1
}

TEST(MappingTest, ProducesValidPermutation) {
  Fixture f;
  MappingParams params{512, 128, false};
  std::vector<BlockId> cold;
  for (BlockId b = 6; b < 16; ++b) cold.push_back(b);
  const auto map = map_sequences(
      *f.image, "t", {{f.seq({3})}, {f.seq({0, 1}), f.seq({2})}, {f.seq({4, 5})}},
      cold, params);
  map.validate(*f.image);  // aborts on overlap or missing blocks
}

TEST(MappingTest, PartitionedWindowsFollowTheBudgets) {
  Fixture f;
  MappingParams params{512, 256, false};
  MappingProvenance prov;
  // Two tenant groups: group 0's 128-byte budget holds blocks {0,1}, group
  // 1's 128-byte budget holds block {2}. Later pass and cold fill the rest.
  const auto map = map_sequences_partitioned(
      *f.image, "t", {{f.seq({0, 1})}, {f.seq({2})}}, {128, 128},
      {{f.seq({3, 4})}}, {5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, params,
      &prov);
  EXPECT_EQ(map.addr(0), 0u);
  EXPECT_EQ(map.addr(1), 64u);
  EXPECT_EQ(map.addr(2), 128u);  // group 1 starts at its window boundary
  // Later passes start past the CFA and avoid every region's [0, 256).
  EXPECT_GE(map.addr(3), 256u);
  EXPECT_GE(map.addr(3) % 512, 256u);
  EXPECT_GE(map.addr(4) % 512, 256u);
  map.validate(*f.image);

  ASSERT_TRUE(prov.partitioned());
  EXPECT_EQ(prov.num_tenant_regions, 2u);
  const std::vector<std::uint64_t> expected_starts = {0, 128, 256};
  EXPECT_EQ(prov.tenant_region_start, expected_starts);
  EXPECT_EQ(prov.tenant_of[0], 0u);
  EXPECT_EQ(prov.tenant_of[1], 0u);
  EXPECT_EQ(prov.tenant_of[2], 1u);
  for (BlockId b = 3; b < 16; ++b) {
    EXPECT_EQ(prov.tenant_of[b], MappingProvenance::kNoTenant) << b;
  }
  EXPECT_EQ(prov.pass_of[0], 0u);
  EXPECT_EQ(prov.pass_of[2], 0u);
  EXPECT_EQ(prov.pass_of[3], 1u);
}

TEST(MappingTest, UnevenBudgetsShiftTheWindowBoundary) {
  Fixture f;
  MappingParams params{512, 256, false};
  MappingProvenance prov;
  // A 64/192 split: group 1 begins at offset 64 and can hold three blocks.
  const auto map = map_sequences_partitioned(
      *f.image, "t", {{f.seq({0})}, {f.seq({1, 2, 3})}}, {64, 192}, {},
      {4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, params, &prov);
  EXPECT_EQ(map.addr(0), 0u);
  EXPECT_EQ(map.addr(1), 64u);
  EXPECT_EQ(map.addr(3), 192u);
  const std::vector<std::uint64_t> expected_starts = {0, 64, 256};
  EXPECT_EQ(prov.tenant_region_start, expected_starts);
  map.validate(*f.image);
}

TEST(MappingDeathTest, PartitionedBudgetsMustTileTheCfa) {
  Fixture f;
  MappingParams params{512, 256, false};
  std::vector<BlockId> cold;
  for (BlockId b = 2; b < 16; ++b) cold.push_back(b);
  EXPECT_DEATH(
      map_sequences_partitioned(*f.image, "t", {{f.seq({0})}, {f.seq({1})}},
                                {128, 64}, {}, cold, params),
      "sum to cfa_bytes");
}

TEST(MappingDeathTest, PartitionedSubWindowOverflowAborts) {
  Fixture f;
  MappingParams params{512, 256, false};
  std::vector<BlockId> cold;
  for (BlockId b = 4; b < 16; ++b) cold.push_back(b);
  // Group 0 needs 192 bytes but its budget is 128.
  EXPECT_DEATH(
      map_sequences_partitioned(*f.image, "t",
                                {{f.seq({0, 1, 2})}, {f.seq({3})}}, {128, 128},
                                {}, cold, params),
      "exceed the CFA sub-window");
}

TEST(MappingDeathTest, Pass1OverflowAborts) {
  Fixture f;
  MappingParams params{512, 128, false};
  std::vector<BlockId> cold;
  for (BlockId b = 3; b < 16; ++b) cold.push_back(b);
  EXPECT_DEATH(map_sequences(*f.image, "t", {{f.seq({0, 1, 2})}}, cold, params),
               "exceed the CFA");
}

TEST(MappingDeathTest, DoublePlacementAborts) {
  Fixture f;
  MappingParams params{512, 128, false};
  std::vector<BlockId> cold;
  for (BlockId b = 0; b < 16; ++b) cold.push_back(b);  // includes block 0 again
  EXPECT_DEATH(
      map_sequences(*f.image, "t", {{f.seq({0})}, {}}, cold, params),
      "already placed");
}

}  // namespace
}  // namespace stc::core
