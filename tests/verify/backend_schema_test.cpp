// Locks the BENCH_ablate_backend.json report schema against a checked-in
// golden file.
//
// The real bench sweeps layout x predictor x cache x issue-queue depth over
// the TPC-D kernel; this lock rebuilds the same report shape
// deterministically from a small synthetic program through the REAL
// measurement cell (bench::measure_seq3_backend), so any change to the
// cell's metric set, counter order, or meta keys shows up as a golden
// diff. Regenerate with
//   STC_UPDATE_GOLDEN=1 ./build/tests/stc_verify_test --gtest_filter=BackendSchemaTest.*
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "backend/backend.h"
#include "bench/common.h"
#include "cfg/address_map.h"
#include "cfg/builder.h"
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
         "/golden/BENCH_ablate_backend_golden.json";
}

// Deterministic stand-in for the TPC-D kernel: a three-branch loop whose
// head alternates direction every iteration (same shape as the bpred lock).
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

// One perfect and one gshare cell, both through the real cell so the lock
// covers the production export path rather than a re-implementation.
std::string build_report() {
  const auto image = mini_image();
  const auto layout = cfg::AddressMap::original(*image);
  const auto trace = mini_trace();
  const sim::CacheGeometry geometry{1024, 32, 1};

  backend::BackendParams bp;
  bp.kind = backend::BackendKind::kOoo;
  bp.iq_depth = 4;
  bp.rob_depth = 16;

  ExperimentRunner runner("ablate_backend");
  runner.meta("backend", backend::to_string(bp.kind));
  runner.meta("decode_width", std::uint64_t{bp.decode_width});
  runner.meta("issue_width", std::uint64_t{bp.issue_width});
  runner.meta("commit_width", std::uint64_t{bp.commit_width});
  runner.meta("rob_per_iq", std::uint64_t{4});
  runner.meta("base_latency", std::uint64_t{bp.base_latency});
  runner.meta("mem_latency", std::uint64_t{bp.mem_latency});
  runner.meta("size_shift", std::uint64_t{bp.size_shift});
  runner.record_phase("setup", 1.5);
  runner.record_phase("workload", 0.25);
  runner.record_phase("layouts", 0.125);

  runner.add("perfect orig 1K iq4",
             {{"bpred", "perfect"},
              {"layout", "orig"},
              {"cache", "1024"},
              {"iq_depth", "4"}},
             [&] {
               const frontend::FrontEndParams fe;
               return bench::measure_seq3_backend(trace, *image, layout,
                                                  geometry, fe, bp);
             });
  runner.add("gshare orig 1K iq4",
             {{"bpred", "gshare"},
              {"layout", "orig"},
              {"cache", "1024"},
              {"iq_depth", "4"}},
             [&] {
               frontend::FrontEndParams fe;
               fe.kind = frontend::BpredKind::kGshare;
               fe.prefetch = true;
               return bench::measure_seq3_backend(trace, *image, layout,
                                                  geometry, fe, bp);
             });
  runner.run(1);
  return runner.report_json();
}

bool is_volatile(const std::string& path) {
  return path == "phases.replay" || path == "throughput.events_per_sec" ||
         path == "throughput.blocks_per_second" ||
         path == "throughput.instructions_per_second";
}

TEST(BackendSchemaTest, ReportMatchesGoldenFile) {
  testing::check_against_golden(build_report(), golden_path(), is_volatile);
}

// Schema split: both rows report ipc and the fourteen be_* counters; the
// realistic row adds mpki and the front-end counters on top of everything
// the perfect row has.
TEST(BackendSchemaTest, RealisticRowsExtendPerfectRows) {
  std::string err;
  const JsonValue report = parse_json(build_report(), &err);
  ASSERT_EQ(err, "");
  const JsonValue* results = report.find("results");
  ASSERT_TRUE(results != nullptr && results->is_array());
  ASSERT_EQ(results->items.size(), 2u);

  const JsonValue* perfect = results->items[0].find("counters");
  const JsonValue* gshare = results->items[1].find("counters");
  ASSERT_TRUE(perfect != nullptr && gshare != nullptr);
  for (const auto& [key, value] : perfect->members) {
    EXPECT_TRUE(gshare->find(key) != nullptr) << key;
  }
  for (const char* key :
       {"be_cycles", "be_retired_ops", "be_retired_insns",
        "be_dispatched_ops", "be_issued_ops", "be_iq_peak", "be_rob_peak",
        "be_iq_occupancy", "be_rob_occupancy", "be_frontend_stalls",
        "be_dispatch_stall_iq", "be_dispatch_stall_rob", "be_issue_stalls",
        "be_empty_cycles"}) {
    EXPECT_TRUE(perfect->find(key) != nullptr) << key;
    EXPECT_TRUE(gshare->find(key) != nullptr) << key;
  }
  for (const char* key : {"bp_lookups", "bp_mispredicts"}) {
    EXPECT_TRUE(gshare->find(key) != nullptr) << key;
    EXPECT_TRUE(perfect->find(key) == nullptr) << key;
  }
  EXPECT_TRUE(results->items[0].find("metrics")->find("ipc") != nullptr);
  EXPECT_TRUE(results->items[1].find("metrics")->find("ipc") != nullptr);
  EXPECT_TRUE(results->items[1].find("metrics")->find("mpki") != nullptr);
  EXPECT_TRUE(results->items[0].find("metrics")->find("mpki") == nullptr);
}

}  // namespace
}  // namespace stc
