// The oracle must accept every layout the production algorithms emit and
// reject every seeded corruption: lost blocks, overlaps, CFA occupancy
// violations, and counter identities that do not add up.
#include <gtest/gtest.h>

#include "cfg/builder.h"
#include "core/layouts.h"
#include "core/replication.h"
#include "core/stc_layout.h"
#include "support/rng.h"
#include "testing/synthetic.h"
#include "verify/oracle.h"

namespace stc::verify {
namespace {

struct Fixture {
  std::unique_ptr<cfg::ProgramImage> image;
  profile::WeightedCFG wcfg;
  trace::BlockTrace trace;
};

Fixture make_fixture(std::uint64_t seed, int routines = 30) {
  Fixture f;
  Rng rng(seed);
  f.image = testing::random_image(rng, routines);
  f.wcfg = testing::random_wcfg(*f.image, rng);
  f.trace = testing::random_trace(*f.image, rng, 4000);
  return f;
}

TEST(ReportTest, StartsCleanAndAccumulates) {
  Report r;
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.summary(), "OK");
  r.fail("first");
  r.fail("second");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.total_found(), 2u);
  EXPECT_EQ(r.errors().size(), 2u);
}

TEST(ReportTest, CapsStoredErrorsButCountsAll) {
  Report r;
  for (int i = 0; i < 100; ++i) {
    r.fail(std::string("e").append(std::to_string(i)));
  }
  EXPECT_EQ(r.total_found(), 100u);
  EXPECT_LT(r.errors().size(), 100u);
  // The summary still reports the true total.
  EXPECT_NE(r.summary().find("100"), std::string::npos);
}

TEST(ReportTest, MergePrefixesContext) {
  Report inner;
  inner.fail("broken");
  Report outer;
  outer.merge(inner, "layout=ops");
  ASSERT_EQ(outer.errors().size(), 1u);
  EXPECT_NE(outer.errors()[0].find("layout=ops"), std::string::npos);
  EXPECT_NE(outer.errors()[0].find("broken"), std::string::npos);
}

TEST(OracleTest, AcceptsEveryProductionLayout) {
  const Fixture f = make_fixture(101);
  for (const auto kind :
       {core::LayoutKind::kOrig, core::LayoutKind::kPettisHansen,
        core::LayoutKind::kTorrellas, core::LayoutKind::kStcAuto,
        core::LayoutKind::kStcOps}) {
    core::MappingProvenance provenance;
    const auto map = core::make_layout(kind, f.wcfg, 2048, 512, &provenance);
    const auto report = verify_layout(f.trace, *f.image, map, &provenance);
    EXPECT_TRUE(report.ok()) << core::to_string(kind) << "\n"
                             << report.summary();
  }
}

TEST(OracleTest, TraceInstructionsSumsBlockSizes) {
  cfg::ProgramBuilder builder;
  const auto mod = builder.module("m");
  builder.routine("r", mod,
                  {{"a", 3, cfg::BlockKind::kBranch},
                   {"b", 5, cfg::BlockKind::kReturn}});
  const auto image = builder.build();
  trace::BlockTrace trace;
  trace.append(0);
  trace.append(1);
  trace.append(0);
  EXPECT_EQ(trace_instructions(trace, *image), 3u + 5u + 3u);
}

// ---- Structure corruptions -------------------------------------------------

TEST(OracleTest, DetectsOverlappingBlocks) {
  const Fixture f = make_fixture(202);
  auto map = core::make_layout(core::LayoutKind::kOrig, f.wcfg, 2048, 512);
  // Move block 1 on top of block 0.
  map.set(1, map.addr(0));
  const auto report = check_structure(*f.image, map);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("overlap"), std::string::npos);
}

TEST(OracleTest, DetectsShortBlockOverlap) {
  // The off-by-one the fuzz driver injects: a block's successor placed one
  // instruction early overlaps the block's last instruction.
  cfg::ProgramBuilder builder;
  const auto mod = builder.module("m");
  builder.routine("r", mod,
                  {{"a", 4, cfg::BlockKind::kFallThrough},
                   {"b", 4, cfg::BlockKind::kReturn}});
  const auto image = builder.build();
  cfg::AddressMap map("short", image->num_blocks());
  map.set(0, 0);
  map.set(1, 4 * cfg::kInsnBytes - cfg::kInsnBytes);  // one insn too early
  const auto report = check_structure(*image, map);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("overlap"), std::string::npos);
}

TEST(OracleTest, DetectsUnassignedBlock) {
  const Fixture f = make_fixture(203);
  const auto full = core::make_layout(core::LayoutKind::kOrig, f.wcfg, 2048, 512);
  cfg::AddressMap map("partial", f.image->num_blocks());
  for (cfg::BlockId b = 0; b < f.image->num_blocks(); ++b) {
    if (b != 2) map.set(b, full.addr(b));
  }
  const auto report = check_structure(*f.image, map);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("unassigned"), std::string::npos);
}

// ---- Replay corruptions ----------------------------------------------------

TEST(OracleTest, ReplayAcceptsCleanLayouts) {
  const Fixture f = make_fixture(303);
  const auto map = core::make_layout(core::LayoutKind::kStcOps, f.wcfg, 2048, 512);
  const auto report = check_replay(f.trace, *f.image, map);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(OracleTest, ReplayDetectsRelocatedBlockMidTrace) {
  const Fixture f = make_fixture(304);
  auto map = core::make_layout(core::LayoutKind::kStcOps, f.wcfg, 2048, 512);
  // Teleport one traced block far away without breaking the permutation:
  // replay notices the address change, structure does not.
  cfg::BlockId victim = 0;
  bool found = false;
  f.trace.for_each([&](cfg::BlockId b) {
    if (!found) {
      victim = b;
      found = true;
    }
  });
  ASSERT_TRUE(found);
  map.set(victim, map.extent(*f.image) + 4096);
  const auto structure = check_structure(*f.image, map);
  EXPECT_TRUE(structure.ok()) << structure.summary();
  // The moved block changes its own fetch addresses; the independent walk
  // must still agree with the production stream (both read the same map), so
  // replay stays clean — but the full oracle's simulators see different
  // line behavior. What replay MUST catch is an inconsistent stream, which
  // we provoke by corrupting the map between ground truth and stream below.
  const auto replay = check_replay(f.trace, *f.image, map);
  EXPECT_TRUE(replay.ok()) << replay.summary();
}

// ---- CFA occupancy ---------------------------------------------------------

TEST(OracleTest, CfaAcceptsProductionProvenance) {
  const Fixture f = make_fixture(405);
  for (const auto kind :
       {core::LayoutKind::kTorrellas, core::LayoutKind::kStcAuto,
        core::LayoutKind::kStcOps}) {
    core::MappingProvenance provenance;
    const auto map = core::make_layout(kind, f.wcfg, 1024, 256, &provenance);
    ASSERT_FALSE(provenance.empty());
    const auto report = check_cfa_occupancy(*f.image, map, provenance);
    EXPECT_TRUE(report.ok()) << core::to_string(kind) << "\n"
                             << report.summary();
  }
}

TEST(OracleTest, CfaDetectsColdCodeMovedIntoReservedWindow) {
  const Fixture f = make_fixture(406);
  core::MappingProvenance provenance;
  auto map = core::make_layout(core::LayoutKind::kStcOps, f.wcfg, 1024, 256,
                               &provenance);
  ASSERT_FALSE(provenance.empty());
  // Find a later-pass block and move it into the second region's CFA window.
  bool moved = false;
  for (cfg::BlockId b = 0; b < f.image->num_blocks() && !moved; ++b) {
    const std::uint32_t pass = provenance.pass_of[b];
    if (pass != 0 && pass != core::MappingProvenance::kColdPass) {
      map.set(b, 1024 + 8);  // offset 8 of region 1: inside [0, 256)
      moved = true;
    }
  }
  ASSERT_TRUE(moved);
  const auto report = check_cfa_occupancy(*f.image, map, provenance);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("CFA"), std::string::npos);
}

TEST(OracleTest, CfaDetectsPass0EscapingTheWindow) {
  const Fixture f = make_fixture(407);
  core::MappingProvenance provenance;
  auto map = core::make_layout(core::LayoutKind::kStcOps, f.wcfg, 1024, 256,
                               &provenance);
  bool moved = false;
  for (cfg::BlockId b = 0; b < f.image->num_blocks() && !moved; ++b) {
    if (provenance.pass_of[b] == 0) {
      map.set(b, 512);  // past the 256-byte CFA
      moved = true;
    }
  }
  ASSERT_TRUE(moved);
  const auto report = check_cfa_occupancy(*f.image, map, provenance);
  ASSERT_FALSE(report.ok());
}

TEST(OracleTest, EmptyProvenanceCarriesNoContract) {
  const Fixture f = make_fixture(408);
  auto map = core::make_layout(core::LayoutKind::kOrig, f.wcfg, 1024, 256);
  const core::MappingProvenance provenance;  // empty
  EXPECT_TRUE(check_cfa_occupancy(*f.image, map, provenance).ok());
}

// ---- Tenant-partitioned CFA ------------------------------------------------

struct PartitionFixture {
  Fixture f;
  profile::WeightedCFG tenant_a;
  profile::WeightedCFG tenant_b;
  core::MappingProvenance provenance;
  core::StcResult result;
};

PartitionFixture make_partition_fixture(std::uint64_t seed) {
  PartitionFixture p;
  p.f = make_fixture(seed);
  Rng rng(seed + 1);
  p.tenant_a = testing::random_wcfg(*p.f.image, rng);
  p.tenant_b = testing::random_wcfg(*p.f.image, rng);
  core::StcParams params;
  params.cache_bytes = 1024;
  params.cfa_bytes = 256;
  p.result = core::stc_layout_partitioned({&p.tenant_a, &p.tenant_b},
                                          core::SeedKind::kAuto, params,
                                          &p.provenance);
  return p;
}

TEST(OracleTest, TenantPartitionAcceptsProductionPartitionedLayouts) {
  const PartitionFixture p = make_partition_fixture(601);
  ASSERT_TRUE(p.provenance.partitioned());
  const auto partition =
      check_tenant_partition(*p.f.image, p.result.layout, p.provenance);
  EXPECT_TRUE(partition.ok()) << partition.summary();
  const auto occupancy =
      check_cfa_occupancy(*p.f.image, p.result.layout, p.provenance);
  EXPECT_TRUE(occupancy.ok()) << occupancy.summary();
}

TEST(OracleTest, TenantPartitionIsVacuousForUnpartitionedProvenance) {
  const Fixture f = make_fixture(602);
  core::MappingProvenance provenance;
  const auto map = core::make_layout(core::LayoutKind::kStcOps, f.wcfg, 1024,
                                     256, &provenance);
  ASSERT_FALSE(provenance.partitioned());
  EXPECT_TRUE(check_tenant_partition(*f.image, map, provenance).ok());
}

TEST(OracleTest, TenantPartitionDetectsBlockLeavingItsSubWindow) {
  PartitionFixture p = make_partition_fixture(603);
  // Move one tenant-0 pass-0 block to the far end of the CFA — almost
  // certainly inside another tenant's sub-window and outside its own.
  bool moved = false;
  auto map = p.result.layout;
  for (cfg::BlockId b = 0; b < p.f.image->num_blocks() && !moved; ++b) {
    if (p.provenance.pass_of[b] == 0 && p.provenance.tenant_of[b] == 0) {
      map.set(b, p.provenance.tenant_region_start.back() - 4);
      moved = true;
    }
  }
  ASSERT_TRUE(moved);
  const auto report = check_tenant_partition(*p.f.image, map, p.provenance);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("leaves its CFA sub-window"),
            std::string::npos);
}

TEST(OracleTest, TenantPartitionDetectsBogusTenantIds) {
  PartitionFixture p = make_partition_fixture(604);
  core::MappingProvenance corrupt = p.provenance;
  // A later-pass block claiming a tenant, and a pass-0 block claiming a
  // tenant id out of range.
  bool tagged_later = false;
  bool tagged_oob = false;
  for (cfg::BlockId b = 0; b < p.f.image->num_blocks(); ++b) {
    if (!tagged_later && corrupt.pass_of[b] != 0 &&
        corrupt.tenant_of[b] == core::MappingProvenance::kNoTenant) {
      corrupt.tenant_of[b] = 0;
      tagged_later = true;
    } else if (!tagged_oob && corrupt.pass_of[b] == 0) {
      corrupt.tenant_of[b] = corrupt.num_tenant_regions + 5;
      tagged_oob = true;
    }
  }
  ASSERT_TRUE(tagged_later);
  ASSERT_TRUE(tagged_oob);
  const auto report =
      check_tenant_partition(*p.f.image, p.result.layout, corrupt);
  ASSERT_FALSE(report.ok());
  EXPECT_GE(report.total_found(), 2u);
}

TEST(OracleTest, TenantPartitionDetectsBrokenRegionBoundaries) {
  PartitionFixture p = make_partition_fixture(605);
  // Boundaries must be groups+1 offsets from 0 to cfa, strictly ascending.
  core::MappingProvenance corrupt = p.provenance;
  corrupt.tenant_region_start.pop_back();
  auto report =
      check_tenant_partition(*p.f.image, p.result.layout, corrupt);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("region boundaries"), std::string::npos);

  corrupt = p.provenance;
  corrupt.tenant_region_start[1] = corrupt.tenant_region_start[0];
  report = check_tenant_partition(*p.f.image, p.result.layout, corrupt);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("empty or reversed"), std::string::npos);
}

// ---- Replication -----------------------------------------------------------

TEST(OracleTest, ReplicationRoundTripIsClean) {
  const Fixture f = make_fixture(509);
  profile::Profile profile(*f.image);
  profile.consume(f.trace);
  core::ReplicationParams params;
  const core::Replicator replicator(*f.image, profile, params);
  const auto& extended = replicator.image();
  const auto structure = check_replication_structure(
      *f.image, extended, replicator.origin_blocks());
  EXPECT_TRUE(structure.ok()) << structure.summary();
  trace::BlockTrace transformed = replicator.transform(f.trace);
  const auto replay = check_replicated_replay(
      f.trace, transformed, *f.image, extended, replicator.origin_blocks());
  EXPECT_TRUE(replay.ok()) << replay.summary();
}

TEST(OracleTest, ReplicationDetectsMutatedCloneSize) {
  const Fixture f = make_fixture(510);
  profile::Profile profile(*f.image);
  profile.consume(f.trace);
  core::ReplicationParams params;
  params.min_routine_weight = 0.0;  // clone as aggressively as possible
  params.max_routine_bytes = 1 << 16;
  params.max_code_growth = 4.0;
  const core::Replicator replicator(*f.image, profile, params);
  const auto& extended = replicator.image();
  if (extended.num_blocks() == f.image->num_blocks()) {
    GTEST_SKIP() << "no clones produced for this seed";
  }
  // Lie about a clone's origin: point it at a different origin block with a
  // different size, which must trip the byte-identical check.
  auto origins = replicator.origin_blocks();
  const cfg::BlockId clone =
      static_cast<cfg::BlockId>(f.image->num_blocks());
  const auto clone_insns = extended.block(clone).insns;
  bool lied = false;
  for (cfg::BlockId b = 0; b < f.image->num_blocks(); ++b) {
    if (f.image->block(b).insns != clone_insns) {
      origins[clone] = b;
      lied = true;
      break;
    }
  }
  ASSERT_TRUE(lied);
  const auto report =
      check_replication_structure(*f.image, extended, origins);
  EXPECT_FALSE(report.ok());
}

// ---- Simulator counters ----------------------------------------------------

TEST(OracleTest, SimulatorChecksAcceptRealRuns) {
  const Fixture f = make_fixture(611);
  const auto map = core::make_layout(core::LayoutKind::kStcAuto, f.wcfg, 1024, 256);
  const auto report =
      check_simulators(f.trace, *f.image, map, {1024, 32, 1});
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(OracleTest, FetchCheckDetectsCycleMismatch) {
  sim::FetchParams params;
  sim::FetchResult result;
  result.instructions = 100;
  result.fetch_requests = 40;
  result.miss_requests = 10;
  result.lines_missed = 10;
  result.cycles = 40;  // should be 40 + penalty * 10
  const auto report =
      check_fetch_result(result, params, 100, /*with_trace_cache=*/false);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("cycle"), std::string::npos);
}

TEST(OracleTest, FetchCheckDetectsLostInstructions) {
  sim::FetchParams params;
  sim::FetchResult result;
  result.instructions = 90;  // trace says 100
  result.fetch_requests = 30;
  result.cycles = 30;
  const auto report =
      check_fetch_result(result, params, 100, /*with_trace_cache=*/false);
  EXPECT_FALSE(report.ok());
}

TEST(OracleTest, TraceCacheCheckDetectsFillsExceedingProbes) {
  sim::FetchParams params;
  sim::FetchResult result;
  result.instructions = 100;
  result.fetch_requests = 10;
  result.miss_requests = 0;
  result.cycles = 10;
  result.tc_hits = 6;
  result.tc_misses = 4;
  result.tc_probes = 10;
  result.tc_fills = 11;  // more fills than probes: impossible
  const auto report =
      check_fetch_result(result, params, 100, /*with_trace_cache=*/true);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("fill"), std::string::npos);
}

TEST(OracleTest, MissrateCheckDetectsInflatedMisses) {
  sim::MissRateResult result;
  result.instructions = 100;
  result.line_accesses = 20;
  result.misses = 25;  // misses > accesses
  sim::CacheStats stats;
  stats.accesses = 20;
  stats.misses = 25;
  const auto report = check_missrate_result(result, stats, 100);
  EXPECT_FALSE(report.ok());
}

}  // namespace
}  // namespace stc::verify
