// Locks the BENCH_ablate_multitenant.json report schema against a
// checked-in golden file.
//
// The real bench composes STC_TENANTS recorded streams and grids layout x
// tenant-count x quantum; this lock rebuilds the same report shape
// deterministically from a small synthetic program, driving the exact
// measurement cell the bench uses (bench::measure_tenant_miss plus the
// SEQ.3 IPC merge). The per-tenant metric/counter names (miss_pct_t<i>,
// t<i>_misses, worst_miss_pct) are report-consumer-visible — a change here
// changes what EXPERIMENTS.md documents. Regenerate with
//   STC_UPDATE_GOLDEN=1 ./build/tests/stc_verify_test --gtest_filter=MultitenantSchemaTest.*
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "cfg/address_map.h"
#include "cfg/builder.h"
#include "sim/icache.h"
#include "support/check.h"
#include "support/experiment.h"
#include "support/json_read.h"
#include "testing/golden_compare.h"
#include "workload/composer.h"

#ifndef STC_VERIFY_TEST_DIR
#define STC_VERIFY_TEST_DIR "."
#endif

namespace stc {
namespace {

std::string golden_path() {
  return std::string(STC_VERIFY_TEST_DIR) +
         "/golden/BENCH_ablate_multitenant_golden.json";
}

std::unique_ptr<cfg::ProgramImage> mini_image() {
  cfg::ProgramBuilder builder;
  const cfg::ModuleId mod = builder.module("mini");
  builder.routine("outer", mod,
                  {{"head", 2, cfg::BlockKind::kBranch},
                   {"call", 1, cfg::BlockKind::kCall},
                   {"tail", 1, cfg::BlockKind::kReturn}});
  builder.routine("leaf", mod, {{"body", 3, cfg::BlockKind::kReturn}});
  return builder.build();
}

// Two tenants walking the same kernel through different block mixes, so the
// per-tenant attribution is visibly non-uniform.
std::vector<workload::TenantStream> mini_streams() {
  std::vector<workload::TenantStream> streams(2);
  streams[0].name = "dss#0";
  streams[1].name = "oltp#1";
  for (int i = 0; i < 120; ++i) {
    streams[0].trace.append(0);
    streams[0].trace.append(1);
    streams[0].trace.append(3);
    streams[0].trace.append(2);
    streams[1].trace.append(3);
    streams[1].trace.append(3);
  }
  return streams;
}

// The bench's grid cell, rebuilt on the mini program: tenant-attributed
// miss rate with the SEQ.3 IPC and fetch counters merged in.
std::string build_report() {
  const auto image = mini_image();
  const auto layout = cfg::AddressMap::original(*image);
  const sim::CacheGeometry geometry{1024, 32, 1};

  workload::ComposeParams params;
  params.quantum_events = 16;
  params.arrival = workload::ArrivalKind::kRoundRobin;
  Result<workload::ComposedTrace> composed =
      workload::compose(mini_streams(), params);
  STC_CHECK_MSG(composed.is_ok(), "mini composition failed");
  const workload::ComposedTrace& trace = composed.value();

  ExperimentRunner runner("ablate_multitenant");
  runner.meta("cache_bytes", std::uint64_t{geometry.size_bytes});
  runner.meta("arrival", "rr");
  runner.meta("switches_t2_q16", trace.context_switches);
  runner.record_phase("setup", 1.5);
  runner.record_phase("workload", 0.25);
  runner.record_phase("layouts", 0.125);
  runner.record_phase("compose", 0.0625);

  for (const char* name : {"orig", "ops-part"}) {
    runner.add(std::string(name) + "_t2_q16",
               {{"layout", name},
                {"tenants", "2"},
                {"quantum", "16"},
                {"arrival", "rr"}},
               [&] {
                 ExperimentResult result =
                     bench::measure_tenant_miss(trace, *image, layout,
                                                geometry);
                 const auto fetch =
                     bench::measure_seq3(trace.trace, *image, layout, geometry);
                 result.metric("ipc", fetch.metric("ipc"));
                 result.counters().merge(fetch.counters());
                 return result;
               });
  }
  runner.run(1);
  return runner.report_json();
}

// Wall-clock-derived values (structure still locked).
bool is_volatile(const std::string& path) {
  return path == "phases.replay" || path == "throughput.events_per_sec" ||
         path == "throughput.blocks_per_second" ||
         path == "throughput.instructions_per_second";
}

TEST(MultitenantSchemaTest, ReportMatchesGoldenFile) {
  testing::check_against_golden(build_report(), golden_path(), is_volatile);
}

// The contract the ablation's consumers (EXPERIMENTS.md readers, the CI
// smoke) depend on, independent of golden bytes: every cell carries the
// four grid params, the aggregate and per-tenant miss metrics, the fairness
// headline, and the merged fetch counters.
TEST(MultitenantSchemaTest, TenantCellShapeIsStable) {
  std::string err;
  const JsonValue report = parse_json(build_report(), &err);
  ASSERT_EQ(err, "");
  EXPECT_EQ(report.find("schema_version")->number, 3.0);
  const JsonValue* failures = report.find("failures");
  ASSERT_TRUE(failures != nullptr && failures->is_array());
  EXPECT_TRUE(failures->items.empty());

  const JsonValue* results = report.find("results");
  ASSERT_TRUE(results != nullptr && results->is_array());
  ASSERT_EQ(results->items.size(), 2u);
  for (const JsonValue& cell : results->items) {
    const JsonValue* params = cell.find("params");
    const JsonValue* metrics = cell.find("metrics");
    const JsonValue* counters = cell.find("counters");
    ASSERT_TRUE(params != nullptr && metrics != nullptr && counters != nullptr)
        << cell.find("name")->text;
    for (const char* key : {"layout", "tenants", "quantum", "arrival"}) {
      EXPECT_TRUE(params->find(key) != nullptr) << key;
    }
    for (const char* key :
         {"miss_pct", "miss_pct_t0", "miss_pct_t1", "worst_miss_pct", "ipc"}) {
      EXPECT_TRUE(metrics->find(key) != nullptr) << key;
    }
    for (const char* key :
         {"instructions", "line_accesses", "misses", "blocks", "t0_misses",
          "t1_misses"}) {
      EXPECT_TRUE(counters->find(key) != nullptr) << key;
    }
    // The fairness headline is the max over the per-tenant rates.
    const double worst = metrics->find("worst_miss_pct")->number;
    EXPECT_GE(worst, metrics->find("miss_pct_t0")->number);
    EXPECT_GE(worst, metrics->find("miss_pct_t1")->number);
  }
}

}  // namespace
}  // namespace stc
