// Locks the BENCH_*.json report schema against a checked-in golden file.
//
// A deterministic ExperimentRunner grid is serialized and compared to
// tests/verify/golden/BENCH_golden.json with the shared golden comparer
// (tests/testing/golden_compare.h); wall-clock-derived fields (the replay
// phase and throughput rates) need only be present, numeric and sane.
// Regenerate the golden with
//   STC_UPDATE_GOLDEN=1 ./build/tests/stc_verify_test --gtest_filter=GoldenSchemaTest.*
// and review the diff — any change here is a report-consumer-visible change.
#include <gtest/gtest.h>

#include <string>

#include "support/experiment.h"
#include "support/json_read.h"
#include "testing/golden_compare.h"

#ifndef STC_VERIFY_TEST_DIR
#define STC_VERIFY_TEST_DIR "."
#endif

namespace stc {
namespace {


std::string golden_path() {
  return std::string(STC_VERIFY_TEST_DIR) + "/golden/BENCH_golden.json";
}

// The fixed grid: two cells with metrics and counters, deterministic
// metadata, explicitly recorded setup/workload phases, one worker thread.
std::string build_report() {
  ExperimentRunner runner("golden");
  runner.meta("config", "schema-lock");
  runner.meta("scale_factor", 0.002);
  runner.meta("seed", std::uint64_t{19990401});
  runner.record_phase("setup", 1.5);
  runner.record_phase("workload", 0.25);
  runner.add("orig_c2048", {{"layout", "orig"}, {"cache", "2048"}}, [] {
    ExperimentResult r;
    r.metric("miss_pct", 6.5);
    r.metric("ipc", 1.25);
    r.counters().add("instructions", 100000);
    r.counters().add("blocks", 25000);
    r.counters().add("tc_probes", 5000);
    return r;
  });
  runner.add("ops_c2048", {{"layout", "ops"}, {"cache", "2048"}}, [] {
    ExperimentResult r;
    r.metric("miss_pct", 0.56);
    r.metric("ipc", 2.5);
    r.counters().add("instructions", 100000);
    r.counters().add("blocks", 25000);
    r.counters().add("tc_probes", 5000);
    return r;
  });
  runner.run(1);
  return runner.report_json();
}

// Paths whose VALUES are wall-clock dependent (structure still locked).
bool is_volatile(const std::string& path) {
  return path == "phases.replay" || path == "throughput.events_per_sec" ||
         path == "throughput.blocks_per_second" ||
         path == "throughput.instructions_per_second";
}

TEST(GoldenSchemaTest, ReportMatchesGoldenFile) {
  testing::check_against_golden(build_report(), golden_path(), is_volatile);
}

// Structural facts every consumer depends on, independent of the golden
// file's bytes: top-level key order and the per-cell shape.
TEST(GoldenSchemaTest, TopLevelShapeIsStable) {
  std::string err;
  const JsonValue report = parse_json(build_report(), &err);
  ASSERT_EQ(err, "");
  ASSERT_TRUE(report.is_object());
  const char* expected[] = {"bench",      "schema_version", "threads",
                            "env",        "phases",         "throughput",
                            "totals",     "failures",       "results"};
  ASSERT_EQ(report.members.size(), 9u);
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(report.members[i].first, expected[i]) << "key #" << i;
  }
  EXPECT_EQ(report.find("schema_version")->number, 3.0);
  // Schema v3: the throughput block is mandatory and leads with
  // events_per_sec.
  const JsonValue* throughput = report.find("throughput");
  ASSERT_TRUE(throughput != nullptr && throughput->is_object());
  ASSERT_FALSE(throughput->members.empty());
  EXPECT_EQ(throughput->members[0].first, "events_per_sec");
  const JsonValue* failures = report.find("failures");
  ASSERT_TRUE(failures != nullptr && failures->is_array());
  EXPECT_TRUE(failures->items.empty());  // clean run
  EXPECT_EQ(report.find("bench")->text, "golden");

  const JsonValue* results = report.find("results");
  ASSERT_TRUE(results != nullptr && results->is_array());
  for (const JsonValue& cell : results->items) {
    ASSERT_TRUE(cell.is_object());
    ASSERT_GE(cell.members.size(), 3u);
    EXPECT_EQ(cell.members[0].first, "name");
    EXPECT_TRUE(cell.find("metrics") != nullptr);
    EXPECT_TRUE(cell.find("counters") != nullptr);
  }
}

TEST(GoldenSchemaTest, ResultsJsonIsDeterministic) {
  // results_json() (grid only, no timings) must be byte-identical across
  // runs — the property the parallel-vs-serial determinism test builds on.
  const auto build = [] {
    ExperimentRunner runner("det");
    runner.add("cell", [] {
      ExperimentResult r;
      r.metric("x", 1.5);
      r.counters().add("instructions", 10);
      return r;
    });
    runner.run(1);
    return runner.results_json();
  };
  EXPECT_EQ(build(), build());
}

}  // namespace
}  // namespace stc
