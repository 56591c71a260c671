// Back-end integration properties:
//  - with STC_BACKEND=off (the default) the bench seq3 cells are
//    byte-identical to the plain Table 4 simulator — the back end cannot
//    perturb the paper's reproduced numbers (mirrors
//    bpred_equivalence_test.cpp for the PR 3 front end);
//  - a width-1 in-order machine and the default out-of-order machine both
//    match hand-computed golden cycle counts on a tiny synthetic program;
//  - an injected backend.dispatch fault fails the bench job structurally
//    (PR 4 contract) and succeeds on retry;
//  - measurement cells are deterministic across grid worker counts.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "backend/pipeline.h"
#include "bench/common.h"
#include "cfg/address_map.h"
#include "cfg/builder.h"
#include "support/experiment.h"
#include "support/faultpoint.h"
#include "support/rng.h"
#include "testing/plan.h"
#include "testing/synthetic.h"

namespace stc {
namespace {

template <typename Measure>
std::string grid_json(Measure&& measure) {
  Rng rng(20260806);
  std::vector<std::unique_ptr<cfg::ProgramImage>> images;
  std::vector<trace::BlockTrace> traces;
  std::vector<cfg::AddressMap> layouts;
  for (int trial = 0; trial < 4; ++trial) {
    images.push_back(testing::random_image(rng, 5));
    traces.push_back(testing::random_trace(*images.back(), rng, 600));
    layouts.push_back(cfg::AddressMap::original(*images.back()));
  }
  ExperimentRunner runner("equiv");
  for (int trial = 0; trial < 4; ++trial) {
    runner.add("cell" + std::to_string(trial), [&, trial] {
      return measure(traces[trial], *images[trial], layouts[trial]);
    });
  }
  runner.run(1);
  return runner.results_json();
}

TEST(BackendEquivalenceTest, OffBackendLeavesSeq3CellsByteIdentical) {
  if (!bench::backend_params().off()) {
    GTEST_SKIP() << "STC_BACKEND is set; the off-path identity does not apply";
  }
  const sim::CacheGeometry geometry{1024, 32, 1};
  // The reference cell re-derives the plain Table 4 measurement from the
  // simulator directly — exactly what measure_seq3 produced before the
  // back-end dispatch existed.
  const std::string baseline = grid_json(
      [&](const trace::BlockTrace& t, const cfg::ProgramImage& i,
          const cfg::AddressMap& l) {
        sim::FetchParams params;
        sim::ICache cache(geometry);
        const sim::FetchResult sim =
            sim::run_seq3(testing::make_plan(t, i, l), params, &cache);
        ExperimentResult result;
        result.metric("ipc", sim.ipc());
        sim.export_counters(result.counters());
        cache.stats().export_counters(result.counters());
        result.counters().add("blocks", t.num_events());
        return result;
      });
  const std::string dispatched = grid_json(
      [&](const trace::BlockTrace& t, const cfg::ProgramImage& i,
          const cfg::AddressMap& l) {
        return bench::measure_seq3(t, i, l, geometry);
      });
  EXPECT_EQ(baseline, dispatched);
}

// Tiny program for the golden IPC checks: three 4-instruction blocks, laid
// out contiguously, executed once each. With a perfect i-cache and the
// transparent front end, one fetch cycle supplies all twelve instructions
// (width 16, the two fall-throughs and the return fit the branch limit), so
// every cycle after that is pure back-end behavior.
std::unique_ptr<cfg::ProgramImage> golden_image() {
  cfg::ProgramBuilder builder;
  const cfg::ModuleId mod = builder.module("golden");
  builder.routine("r", mod,
                  {{"b0", 4, cfg::BlockKind::kFallThrough},
                   {"b1", 4, cfg::BlockKind::kFallThrough},
                   {"b2", 4, cfg::BlockKind::kReturn}});
  return builder.build();
}

trace::BlockTrace golden_trace() {
  trace::BlockTrace trace;
  trace.append(0);
  trace.append(1);
  trace.append(2);
  return trace;
}

backend::BackendParams golden_base() {
  backend::BackendParams bp;
  bp.kind = backend::BackendKind::kOoo;
  bp.mem_latency = 0;   // the return block pays no memory charge
  bp.size_shift = 10;   // 4 >> 10 == 0: every op has latency base_latency=1
  return bp;
}

backend::BackendResult golden_run(const backend::BackendParams& bp) {
  const auto image = golden_image();
  const auto layout = cfg::AddressMap::original(*image);
  sim::FetchParams fetch;
  fetch.perfect_icache = true;
  const Result<backend::BackendResult> r = backend::run_seq3_backend(
      testing::make_plan(golden_trace(), *image, layout, 0, bp.spec()), fetch,
      frontend::FrontEndParams{}, bp, nullptr);
  EXPECT_TRUE(r.is_ok()) << r.status().to_string();
  return r.value();
}

TEST(BackendEquivalenceTest, GoldenIpcInOrderWidthOne) {
  backend::BackendParams bp = golden_base();
  bp.kind = backend::BackendKind::kInOrder;
  bp.decode_width = 1;
  bp.issue_width = 1;
  bp.commit_width = 1;
  bp.iq_depth = 1;
  bp.rob_depth = 2;
  const backend::BackendResult r = golden_run(bp);
  // Hand-computed: cycle 0 fetches; ops dispatch one per cycle starting at
  // cycle 1 into the single-entry queue, each issuing the cycle after
  // dispatch and retiring the cycle after issue; the third op retires on
  // cycle 4 and the machine drains after cycle 4 — five cycles total.
  EXPECT_EQ(r.backend.cycles, 5u);
  EXPECT_EQ(r.backend.retired_ops, 3u);
  EXPECT_EQ(r.backend.retired_insns, 12u);
  EXPECT_DOUBLE_EQ(r.ipc(), 12.0 / 5.0);
}

TEST(BackendEquivalenceTest, GoldenIpcOooDefaultWidths) {
  const backend::BackendResult r = golden_run(golden_base());
  // Hand-computed: cycle 0 fetches, cycle 1 dispatches all three ops
  // (decode width 4) and none has a true dependence (registers derive from
  // distinct addresses), so all issue on cycle 1 and retire together on
  // cycle 2 (commit width 4) — three cycles total.
  EXPECT_EQ(r.backend.cycles, 3u);
  EXPECT_EQ(r.backend.retired_ops, 3u);
  EXPECT_EQ(r.backend.retired_insns, 12u);
  EXPECT_DOUBLE_EQ(r.ipc(), 4.0);
}

class BackendFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::reset(); }
  void TearDown() override { fault::reset(); }
};

TEST_F(BackendFaultTest, DispatchFaultFailsTheJobStructurally) {
  Rng rng(31);
  const auto image = testing::random_image(rng, 3);
  const auto trace = testing::random_trace(*image, rng, 100);
  const auto layout = cfg::AddressMap::original(*image);
  const sim::CacheGeometry geometry{1024, 32, 1};
  backend::BackendParams bp;
  bp.kind = backend::BackendKind::kOoo;
  frontend::FrontEndParams fe;

  fault::arm("backend.dispatch");
  ExperimentRunner runner("bft");
  const std::size_t job = runner.add("cell", [&] {
    return bench::measure_seq3_backend(trace, *image, layout, geometry, fe,
                                       bp);
  });
  runner.set_max_retries(0);
  runner.run(1);
  EXPECT_EQ(runner.job_status(job), JobStatus::kFailed);
  ASSERT_EQ(runner.failures().size(), 1u);
  const JobFailure& f = runner.failures()[0];
  EXPECT_EQ(f.error.code(), ErrorCode::kFaultInjected);
  EXPECT_NE(f.error.message().find("backend.dispatch"), std::string::npos)
      << f.error.message();
  EXPECT_NE(f.error.message().find("job 'cell'"), std::string::npos)
      << f.error.message();
  EXPECT_EQ(runner.exit_code(), 3);
}

TEST_F(BackendFaultTest, DispatchFaultSucceedsOnRetry) {
  Rng rng(37);
  const auto image = testing::random_image(rng, 3);
  const auto trace = testing::random_trace(*image, rng, 100);
  const auto layout = cfg::AddressMap::original(*image);
  const sim::CacheGeometry geometry{1024, 32, 1};
  backend::BackendParams bp;
  bp.kind = backend::BackendKind::kOoo;
  frontend::FrontEndParams fe;

  fault::arm("backend.dispatch");  // one-shot: consumed by the first attempt
  ExperimentRunner runner("bft");
  const std::size_t job = runner.add("cell", [&] {
    return bench::measure_seq3_backend(trace, *image, layout, geometry, fe,
                                       bp);
  });
  runner.set_max_retries(1);
  runner.run(1);
  EXPECT_EQ(runner.job_status(job), JobStatus::kOk);
  EXPECT_TRUE(runner.all_ok());
  EXPECT_GT(runner.result(job).counters().get("be_retired_insns"), 0u);
}

TEST(BackendEquivalenceTest, CellsAreDeterministicAcrossWorkerCounts) {
  backend::BackendParams bp;
  bp.kind = backend::BackendKind::kOoo;
  bp.iq_depth = 4;
  bp.rob_depth = 16;
  frontend::FrontEndParams fe;
  fe.kind = frontend::BpredKind::kGshare;
  const sim::CacheGeometry geometry{1024, 32, 1};
  const auto build = [&](std::size_t threads) {
    Rng rng(20260806);
    std::vector<std::unique_ptr<cfg::ProgramImage>> images;
    std::vector<trace::BlockTrace> traces;
    std::vector<cfg::AddressMap> layouts;
    for (int trial = 0; trial < 4; ++trial) {
      images.push_back(testing::random_image(rng, 5));
      traces.push_back(testing::random_trace(*images.back(), rng, 600));
      layouts.push_back(cfg::AddressMap::original(*images.back()));
    }
    ExperimentRunner runner("det");
    for (int trial = 0; trial < 4; ++trial) {
      runner.add("cell" + std::to_string(trial), [&, trial] {
        return bench::measure_seq3_backend(traces[trial], *images[trial],
                                           layouts[trial], geometry, fe, bp);
      });
    }
    runner.run(threads);
    return runner.results_json();
  };
  EXPECT_EQ(build(1), build(4));
}

}  // namespace
}  // namespace stc
