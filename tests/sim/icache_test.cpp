#include "sim/icache.h"

#include <gtest/gtest.h>

#include "cfg/builder.h"
#include "verify/reference.h"

namespace stc::sim {
namespace {

TEST(ICacheTest, ColdMissThenHit) {
  ICache cache({1024, 64, 1});
  EXPECT_FALSE(cache.access(0));
  EXPECT_TRUE(cache.access(0));
  EXPECT_TRUE(cache.access(63));   // same line
  EXPECT_FALSE(cache.access(64));  // next line
  EXPECT_EQ(cache.stats().accesses, 4u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(ICacheTest, DirectMappedConflict) {
  ICache cache({1024, 64, 1});  // 16 sets
  cache.access(0);
  cache.access(1024);  // same set, evicts line 0
  EXPECT_FALSE(cache.access(0));
  EXPECT_FALSE(cache.access(1024));
}

TEST(ICacheTest, TwoWayToleratesOneConflict) {
  ICache cache({1024, 64, 2});  // 8 sets, 2 ways
  cache.access(0);
  cache.access(1024);  // same set, second way
  EXPECT_TRUE(cache.access(0));
  EXPECT_TRUE(cache.access(1024));
  cache.access(0);     // re-touch 0 so 1024 becomes the LRU entry
  cache.access(2048);  // evicts the LRU of the set
  EXPECT_TRUE(cache.access(0));
  EXPECT_FALSE(cache.access(1024));
}

TEST(ICacheTest, LruOrderRespectedInFourWaySet) {
  ICache cache({1024, 64, 4});  // 4 sets
  // Fill one set with 4 lines, touch them in order.
  for (int i = 0; i < 4; ++i) cache.access(static_cast<std::uint64_t>(i) * 1024);
  // Re-touch lines 0..2 so line 3 is LRU.
  for (int i = 0; i < 3; ++i) cache.access(static_cast<std::uint64_t>(i) * 1024);
  cache.access(4 * 1024);  // evicts way holding 3*1024
  EXPECT_TRUE(cache.access(0));
  EXPECT_FALSE(cache.access(3 * 1024));
}

TEST(ICacheTest, VictimCacheRescuesRecentEviction) {
  ICache direct({1024, 64, 1});
  ICache with_victim({1024, 64, 1}, /*victim_lines=*/4);
  // Ping-pong two conflicting lines.
  std::uint64_t direct_misses = 0;
  std::uint64_t victim_misses = 0;
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t addr = (i % 2 == 0) ? 0u : 1024u;
    if (!direct.access(addr)) ++direct_misses;
    if (!with_victim.access(addr)) ++victim_misses;
  }
  EXPECT_EQ(direct_misses, 20u);   // conflicts every access
  EXPECT_EQ(victim_misses, 2u);    // only the two cold misses
  EXPECT_EQ(with_victim.stats().victim_hits, 18u);
}

TEST(ICacheTest, VictimCapacityIsLimited) {
  ICache cache({1024, 64, 1}, /*victim_lines=*/2);
  // Rotate 4 conflicting lines: the 2-entry victim cannot hold them all.
  std::uint64_t misses = 0;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 4; ++i) {
      if (!cache.access(static_cast<std::uint64_t>(i) * 1024)) ++misses;
    }
  }
  EXPECT_GT(misses, 4u);
}

TEST(ICacheTest, ResetClearsEverything) {
  ICache cache({1024, 64, 1}, 2);
  cache.access(0);
  cache.access(64);
  cache.reset();
  EXPECT_EQ(cache.stats().accesses, 0u);
  EXPECT_FALSE(cache.contains(0));
  EXPECT_FALSE(cache.access(0));
}

TEST(ICacheTest, ContainsChecksVictimToo) {
  ICache cache({1024, 64, 1}, 2);
  cache.access(0);
  cache.access(1024);  // 0 demoted to victim
  EXPECT_TRUE(cache.contains(0));
  EXPECT_TRUE(cache.contains(1024));
}

TEST(ICacheDeathTest, RejectsNonPowerOfTwoLine) {
  EXPECT_DEATH(ICache({1024, 48, 1}), "");
}

// ---- the reference miss-rate walk over a trace -----------------------------

struct TraceFixture {
  TraceFixture() {
    cfg::ProgramBuilder b;
    const cfg::ModuleId m = b.module("mod");
    // Two routines, 16 insns (64B = one line) each.
    r1 = b.routine("f", m, {{"a", 16, cfg::BlockKind::kReturn}});
    r2 = b.routine("g", m, {{"a", 16, cfg::BlockKind::kReturn}});
    image = b.build();
  }
  std::unique_ptr<cfg::ProgramImage> image;
  cfg::RoutineId r1 = 0, r2 = 0;
};

TEST(MissRateTest, CountsInstructionsAndLineAccesses) {
  TraceFixture f;
  trace::BlockTrace t;
  t.append(0);
  t.append(1);
  ICache cache({1024, 64, 1});
  const auto layout = cfg::AddressMap::original(*f.image);
  const MissRateResult result =
      verify::reference_missrate(t, *f.image, layout, cache);
  EXPECT_EQ(result.instructions, 32u);
  EXPECT_EQ(result.line_accesses, 2u);
  EXPECT_EQ(result.misses, 2u);  // both cold
  EXPECT_DOUBLE_EQ(result.misses_per_100_insns(), 100.0 * 2 / 32);
}

TEST(MissRateTest, RepeatedBlocksHitAfterWarmup) {
  TraceFixture f;
  trace::BlockTrace t;
  for (int i = 0; i < 10; ++i) {
    t.append(0);
    t.append(1);
  }
  ICache cache({1024, 64, 1});
  const auto layout = cfg::AddressMap::original(*f.image);
  const MissRateResult result =
      verify::reference_missrate(t, *f.image, layout, cache);
  EXPECT_EQ(result.misses, 2u);  // only cold misses
}

TEST(MissRateTest, ConflictingLayoutMissesEveryTime) {
  TraceFixture f;
  trace::BlockTrace t;
  for (int i = 0; i < 10; ++i) {
    t.append(0);
    t.append(1);
  }
  // Map both blocks to the same set of a 1KB direct-mapped cache.
  cfg::AddressMap layout("conflict", f.image->num_blocks());
  layout.set(0, 0);
  layout.set(1, 1024);
  ICache cache({1024, 64, 1});
  const MissRateResult result =
      verify::reference_missrate(t, *f.image, layout, cache);
  EXPECT_EQ(result.misses, 20u);
}

TEST(MissRateTest, PerBlockAttributionSumsToTotal) {
  TraceFixture f;
  trace::BlockTrace t;
  for (int i = 0; i < 6; ++i) {
    t.append(0);
    t.append(1);
  }
  // Conflicting layout: every access misses and attributes to its block.
  cfg::AddressMap layout("conflict", f.image->num_blocks());
  layout.set(0, 0);
  layout.set(1, 1024);
  ICache cache({1024, 64, 1});
  std::vector<std::uint64_t> per_block;
  const MissRateResult result =
      verify::reference_missrate(t, *f.image, layout, cache, &per_block);
  ASSERT_EQ(per_block.size(), f.image->num_blocks());
  std::uint64_t sum = 0;
  for (std::uint64_t m : per_block) sum += m;
  EXPECT_EQ(sum, result.misses);
  EXPECT_EQ(per_block[0], 6u);
  EXPECT_EQ(per_block[1], 6u);
}

TEST(MissRateTest, BlockSpanningTwoLinesTouchesBoth) {
  cfg::ProgramBuilder b;
  const cfg::ModuleId m = b.module("mod");
  b.routine("f", m, {{"a", 20, cfg::BlockKind::kReturn}});  // 80 bytes
  auto image = b.build();
  trace::BlockTrace t;
  t.append(0);
  ICache cache({1024, 64, 1});
  const auto layout = cfg::AddressMap::original(*image);
  const MissRateResult result =
      verify::reference_missrate(t, *image, layout, cache);
  EXPECT_EQ(result.line_accesses, 2u);
}

}  // namespace
}  // namespace stc::sim
