// Locks the BENCH_replay_throughput.json report schema against a checked-in
// golden file.
//
// The real bench grids simulators over the pinned Test trace, each with a
// compiled row and — for the kernels that have an oracle reference — an
// interp row; this lock rebuilds the same report shape deterministically
// from a small synthetic program, driving the exact measurement cells the
// bench uses (bench::measure_reference_cell, bench::measure_replay_cell):
// every cell carries events_per_sec and seconds, compiled cells add
// plan_seconds, and the counters are the simulator's real export including
// the "blocks" event count that schema v3's throughput.events_per_sec is
// derived from. tools/perf_gate.py parses
// this schema — a change here is a perf-gate-visible change. Regenerate with
//   STC_UPDATE_GOLDEN=1 ./build/tests/stc_verify_test \
//       --gtest_filter=ReplaySchemaTest.*
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "bench/common.h"
#include "cfg/address_map.h"
#include "cfg/builder.h"
#include "sim/icache.h"
#include "sim/replay.h"
#include "support/experiment.h"
#include "support/json_read.h"
#include "testing/golden_compare.h"

#ifndef STC_VERIFY_TEST_DIR
#define STC_VERIFY_TEST_DIR "."
#endif

namespace stc {
namespace {

std::string golden_path() {
  return std::string(STC_VERIFY_TEST_DIR) +
         "/golden/BENCH_replay_throughput_golden.json";
}

// Deterministic stand-in for the pinned Test trace: two routines with a
// call/return pair so the seq3 and trace-cache cells exercise real control
// flow.
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

trace::BlockTrace mini_trace() {
  trace::BlockTrace trace;
  for (int i = 0; i < 150; ++i) {
    trace.append(0);
    trace.append(1);
    trace.append(3);  // leaf body
    trace.append(2);
  }
  return trace;
}

// The bench's grid, rebuilt on the mini program with the same runner name,
// params and single-worker run.
std::string build_report() {
  const auto image = mini_image();
  const auto layout = cfg::AddressMap::original(*image);
  const auto trace = mini_trace();
  const sim::CacheGeometry geometry{1024, 32, 1};

  ExperimentRunner runner("replay_throughput");
  runner.meta("cache_bytes", std::uint64_t{geometry.size_bytes});
  runner.record_phase("setup", 1.5);
  runner.record_phase("workload", 0.25);
  runner.record_phase("layouts", 0.125);

  const bench::ReplaySimKind kinds[] = {bench::ReplaySimKind::kMissRate,
                                        bench::ReplaySimKind::kSequentiality,
                                        bench::ReplaySimKind::kSeq3,
                                        bench::ReplaySimKind::kTraceCache};
  for (const bench::ReplaySimKind kind : kinds) {
    const std::string sim = bench::to_string(kind);
    if (kind == bench::ReplaySimKind::kMissRate ||
        kind == bench::ReplaySimKind::kSequentiality) {
      runner.add(sim + " interp", {{"sim", sim}, {"mode", "interp"}},
                 [&, kind] {
                   return bench::measure_reference_cell(trace, *image, layout,
                                                        geometry, kind);
                 });
    }
    runner.add(sim + " compiled", {{"sim", sim}, {"mode", "compiled"}},
               [&, kind] {
                 return bench::measure_replay_cell(trace, *image, layout,
                                                   geometry, kind);
               });
  }
  runner.run(1);
  return runner.report_json();
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Wall-clock-derived values: the replay phase, the schema-v3 throughput
// block, and every cell's timing metrics (structure still locked).
bool is_volatile(const std::string& path) {
  return path == "phases.replay" || path == "throughput.events_per_sec" ||
         path == "throughput.blocks_per_second" ||
         path == "throughput.instructions_per_second" ||
         (ends_with(path, ".metrics.events_per_sec") ||
          ends_with(path, ".metrics.seconds") ||
          ends_with(path, ".metrics.plan_seconds"));
}

TEST(ReplaySchemaTest, ReportMatchesGoldenFile) {
  testing::check_against_golden(build_report(), golden_path(), is_volatile);
}

// The contract tools/perf_gate.py depends on, independent of golden bytes:
// schema v3 with a mandatory throughput.events_per_sec, six clean cells
// (interp and compiled missrate and sequentiality, compiled seq3 and
// trace_cache), each carrying sim/mode params and an events_per_sec metric,
// compiled cells adding plan_seconds.
TEST(ReplaySchemaTest, PerfGateContractHolds) {
  std::string err;
  const JsonValue report = parse_json(build_report(), &err);
  ASSERT_EQ(err, "");
  EXPECT_EQ(report.find("schema_version")->number, 3.0);
  const JsonValue* throughput = report.find("throughput");
  ASSERT_TRUE(throughput != nullptr && throughput->is_object());
  EXPECT_TRUE(throughput->find("events_per_sec") != nullptr);
  const JsonValue* failures = report.find("failures");
  ASSERT_TRUE(failures != nullptr && failures->is_array());
  EXPECT_TRUE(failures->items.empty());

  const JsonValue* results = report.find("results");
  ASSERT_TRUE(results != nullptr && results->is_array());
  ASSERT_EQ(results->items.size(), 6u);
  for (const JsonValue& cell : results->items) {
    const JsonValue* params = cell.find("params");
    const JsonValue* metrics = cell.find("metrics");
    const JsonValue* counters = cell.find("counters");
    ASSERT_TRUE(params != nullptr && metrics != nullptr && counters != nullptr)
        << cell.find("name")->text;
    ASSERT_TRUE(params->find("sim") != nullptr);
    ASSERT_TRUE(params->find("mode") != nullptr);
    EXPECT_TRUE(metrics->find("events_per_sec") != nullptr);
    EXPECT_TRUE(metrics->find("seconds") != nullptr);
    const bool interp = params->find("mode")->text == "interp";
    EXPECT_EQ(metrics->find("plan_seconds") != nullptr, !interp)
        << cell.find("name")->text;
    // The counter schema v3's throughput block totals over.
    EXPECT_TRUE(counters->find("blocks") != nullptr);
  }
}

}  // namespace
}  // namespace stc
