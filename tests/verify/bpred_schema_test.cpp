// Locks the BENCH_ablate_bpred.json report schema against a checked-in
// golden file.
//
// The real bench sweeps predictor x layout x cache over the TPC-D kernel;
// this lock rebuilds the same report shape deterministically from a small
// synthetic program, using the real simulators and the exact counter-export
// order of bench/common.cpp's measurement cells: a perfect row carries the
// plain fetch + cache counters (the Table 4 schema, unchanged), a realistic
// row adds the mpki metric and the twelve front-end counters. Regenerate
// with
//   STC_UPDATE_GOLDEN=1 ./build/tests/stc_verify_test --gtest_filter=BpredSchemaTest.*
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "cfg/address_map.h"
#include "cfg/builder.h"
#include "frontend/front_end.h"
#include "sim/fetch_unit.h"
#include "sim/icache.h"
#include "sim/replay.h"
#include "support/experiment.h"
#include "support/json_read.h"
#include "testing/golden_compare.h"
#include "testing/plan.h"

#ifndef STC_VERIFY_TEST_DIR
#define STC_VERIFY_TEST_DIR "."
#endif

namespace stc {
namespace {

std::string golden_path() {
  return std::string(STC_VERIFY_TEST_DIR) +
         "/golden/BENCH_ablate_bpred_golden.json";
}

// Deterministic stand-in for the TPC-D kernel: a three-branch loop whose
// head alternates direction every iteration.
std::unique_ptr<cfg::ProgramImage> mini_image() {
  cfg::ProgramBuilder builder;
  const cfg::ModuleId mod = builder.module("mini");
  builder.routine("loop", mod,
                  {{"head", 2, cfg::BlockKind::kBranch},
                   {"near", 1, cfg::BlockKind::kBranch},
                   {"far", 1, cfg::BlockKind::kBranch}});
  return builder.build();
}

trace::BlockTrace mini_trace() {
  trace::BlockTrace trace;
  for (int i = 0; i < 200; ++i) {
    trace.append(0);
    trace.append(i % 2 == 0 ? 1 : 2);
  }
  return trace;
}

// One perfect and one gshare cell in the real cell schema (metric and
// counter insertion order copied from bench::measure_seq3, whose perfect
// cells omit "mpki" and the front-end counters).
std::string build_report() {
  const auto image = mini_image();
  const auto layout = cfg::AddressMap::original(*image);
  const auto trace = mini_trace();
  const sim::ReplayPlan plan = testing::make_plan(trace, *image, layout);
  const sim::CacheGeometry geometry{1024, 32, 1};
  const sim::FetchParams params;

  ExperimentRunner runner("ablate_bpred");
  runner.meta("table_bits", std::uint64_t{12});
  runner.meta("btb_entries", std::uint64_t{512});
  runner.meta("ras_depth", std::uint64_t{16});
  runner.meta("ftq_depth", std::uint64_t{8});
  runner.meta("prefetch_width", std::uint64_t{2});
  runner.meta("mispredict_penalty", std::uint64_t{5});
  runner.record_phase("setup", 1.5);
  runner.record_phase("workload", 0.25);
  runner.record_phase("layouts", 0.125);

  runner.add("perfect orig 1K",
             {{"bpred", "perfect"}, {"layout", "orig"}, {"cache", "1024"}},
             [&] {
               sim::ICache cache(geometry);
               const sim::FetchResult sim = sim::run_seq3(plan, params, &cache);
               ExperimentResult r;
               r.metric("ipc", sim.ipc());
               sim.export_counters(r.counters());
               cache.stats().export_counters(r.counters());
               r.counters().add("blocks", trace.num_events());
               return r;
             });
  runner.add("gshare orig 1K",
             {{"bpred", "gshare"}, {"layout", "orig"}, {"cache", "1024"}},
             [&] {
               frontend::FrontEndParams fe;
               fe.kind = frontend::BpredKind::kGshare;
               fe.prefetch = true;
               sim::ICache cache(geometry);
               const frontend::FrontEndResult sim =
                   frontend::run_seq3_frontend(plan, params, fe, &cache);
               ExperimentResult r;
               r.metric("ipc", sim.fetch.ipc());
               r.metric("mpki",
                        sim.frontend.mispredicts_per_ki(sim.fetch.instructions));
               sim.fetch.export_counters(r.counters());
               sim.frontend.export_counters(r.counters());
               cache.stats().export_counters(r.counters());
               r.counters().add("blocks", trace.num_events());
               return r;
             });
  runner.run(1);
  return runner.report_json();
}

bool is_volatile(const std::string& path) {
  return path == "phases.replay" || path == "throughput.events_per_sec" ||
         path == "throughput.blocks_per_second" ||
         path == "throughput.instructions_per_second";
}

TEST(BpredSchemaTest, ReportMatchesGoldenFile) {
  testing::check_against_golden(build_report(), golden_path(), is_volatile);
}

// The schema split every consumer depends on: perfect rows carry exactly the
// plain counter set, realistic rows add mpki and the front-end counters.
TEST(BpredSchemaTest, RealisticRowsExtendPerfectRows) {
  std::string err;
  const JsonValue report = parse_json(build_report(), &err);
  ASSERT_EQ(err, "");
  const JsonValue* results = report.find("results");
  ASSERT_TRUE(results != nullptr && results->is_array());
  ASSERT_EQ(results->items.size(), 2u);

  const JsonValue* perfect = results->items[0].find("counters");
  const JsonValue* gshare = results->items[1].find("counters");
  ASSERT_TRUE(perfect != nullptr && gshare != nullptr);
  // Every plain counter key also appears in the realistic row.
  for (const auto& [key, value] : perfect->members) {
    EXPECT_TRUE(gshare->find(key) != nullptr) << key;
  }
  for (const char* key :
       {"bp_lookups", "bp_mispredicts", "bp_bubble_cycles", "btb_lookups",
        "btb_misses", "ras_pushes", "ras_pops", "prefetch_issued",
        "prefetch_useful", "prefetch_late", "prefetch_evicted",
        "prefetch_late_cycles"}) {
    EXPECT_TRUE(gshare->find(key) != nullptr) << key;
    EXPECT_TRUE(perfect->find(key) == nullptr) << key;
  }
  EXPECT_TRUE(results->items[1].find("metrics")->find("mpki") != nullptr);
  EXPECT_TRUE(results->items[0].find("metrics")->find("mpki") == nullptr);
}

}  // namespace
}  // namespace stc
