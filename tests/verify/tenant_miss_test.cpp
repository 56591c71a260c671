// Tenant attribution of the miss rate (bench::measure_tenant_miss): the
// kernel runs once per provenance segment over the composed trace's plan,
// so the per-tenant counters must partition exactly what one plain pass
// over the composed trace counts, under every arrival model and quantum.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "cfg/address_map.h"
#include "sim/icache.h"
#include "sim/replay.h"
#include "support/rng.h"
#include "testing/synthetic.h"
#include "workload/composer.h"

namespace stc {
namespace {

// Small enough that the streams thrash it, so every tenant misses.
const sim::CacheGeometry kGeometry{256, 32, 1};

std::vector<workload::TenantStream> make_streams(
    const cfg::ProgramImage& image, std::uint32_t tenants) {
  Rng rng(7);
  std::vector<workload::TenantStream> streams(tenants);
  for (std::uint32_t t = 0; t < tenants; ++t) {
    streams[t].name = std::string("t").append(std::to_string(t));
    streams[t].trace = testing::random_trace(image, rng, 200 + 70 * t);
  }
  return streams;
}

TEST(TenantMissTest, TenantsPartitionOnePlainPass) {
  Rng rng(3);
  const auto image = testing::random_image(rng, 12);
  const auto layout = cfg::AddressMap::original(*image);
  for (const workload::ArrivalKind arrival :
       {workload::ArrivalKind::kRoundRobin, workload::ArrivalKind::kPoisson,
        workload::ArrivalKind::kBursty, workload::ArrivalKind::kDiurnal}) {
    for (const std::uint64_t quantum : {0, 1, 16}) {
      for (std::uint32_t tenants = 1; tenants <= 3; ++tenants) {
        SCOPED_TRACE(std::string(workload::to_string(arrival)) +
                     " q=" + std::to_string(quantum) +
                     " T=" + std::to_string(tenants));
        workload::ComposeParams params;
        params.arrival = arrival;
        params.quantum_events = quantum;
        const Result<workload::ComposedTrace> composed =
            workload::compose(make_streams(*image, tenants), params);
        ASSERT_TRUE(composed.is_ok()) << composed.status().to_string();
        const workload::ComposedTrace& c = composed.value();

        const ExperimentResult got =
            bench::measure_tenant_miss(c, *image, layout, kGeometry);
        const CounterSet& counters = got.counters();
        std::uint64_t tenant_misses = 0;
        for (std::uint32_t t = 0; t < tenants; ++t) {
          tenant_misses += counters.get(
              std::string("t").append(std::to_string(t)).append("_misses"));
        }
        EXPECT_EQ(tenant_misses, counters.get("misses"));
        EXPECT_GT(counters.get("misses"), 0u);

        // One plain pass over the composed trace. measure_miss's
        // "cache_misses" adds the cache's own miss count to the kernel's
        // (both export that name), so the kernel's misses come from a
        // direct replay of the same plan.
        const ExperimentResult plain =
            bench::measure_miss(c.trace, *image, layout, kGeometry);
        EXPECT_EQ(counters.get("instructions"),
                  plain.counters().get("instructions"));
        EXPECT_EQ(counters.get("line_accesses"),
                  plain.counters().get("line_probes"));
        sim::ICache cache(kGeometry);
        const sim::MissRateResult direct = sim::replay_missrate(
            bench::plan_for(c.trace, *image, layout, kGeometry.line_bytes),
            cache);
        EXPECT_EQ(counters.get("misses"), direct.misses);
        EXPECT_EQ(got.metric("miss_pct"), plain.metric("miss_pct"));
        if (tenants == 1) {
          EXPECT_EQ(got.metric("miss_pct_t0"), got.metric("miss_pct"));
        }
        // Round robin run to completion is the streams concatenated in
        // order, so tenant 0 alone meets the cold cache: its share is a
        // plain run of its own stream.
        if (arrival == workload::ArrivalKind::kRoundRobin && quantum == 0) {
          const ExperimentResult first = bench::measure_miss(
              make_streams(*image, tenants)[0].trace, *image, layout,
              kGeometry);
          EXPECT_EQ(got.metric("miss_pct_t0"), first.metric("miss_pct"));
        }
      }
    }
  }
}

struct ShortSegments {
  ShortSegments() {
    Rng rng(5);
    image = testing::random_image(rng, 6);
    layout = cfg::AddressMap::original(*image);
    composed.trace = testing::random_trace(*image, rng, 40);
    composed.tenant_events = {40};
  }
  std::unique_ptr<cfg::ProgramImage> image;
  cfg::AddressMap layout{"none", 0};
  workload::ComposedTrace composed;
};

TEST(TenantMissDeathTest, SegmentsShorterThanTheTraceDie) {
  ShortSegments f;
  f.composed.segments = {{0, 39}};
  EXPECT_DEATH(bench::measure_tenant_miss(f.composed, *f.image, f.layout,
                                          kGeometry),
               "composed trace outruns its segments");
}

TEST(TenantMissDeathTest, SegmentsLongerThanTheTraceDie) {
  ShortSegments f;
  f.composed.segments = {{0, 41}};
  EXPECT_DEATH(bench::measure_tenant_miss(f.composed, *f.image, f.layout,
                                          kGeometry),
               "provenance segments outrun the composed trace");
}

}  // namespace
}  // namespace stc
