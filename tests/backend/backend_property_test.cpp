// Property tests for the unified fetch->IPC pipeline: the oracle's counter
// identities hold over random machines and programs, the window bounds are
// never exceeded, the machine always drains, results are deterministic
// under repetition and thread-level concurrency, the plan the pipeline
// reads matches the reference feed, and the degenerate program families
// from tests/testing/synthetic.h do not wedge the pipeline.
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "backend/pipeline.h"
#include "sim/fetch_unit.h"
#include "sim/icache.h"
#include "sim/replay.h"
#include "support/rng.h"
#include "testing/plan.h"
#include "testing/synthetic.h"
#include "verify/oracle.h"

namespace stc::backend {
namespace {

using testing::degenerate_image;
using testing::random_image;
using testing::random_trace;

constexpr sim::CacheGeometry kGeometry{1024, 32, 1};

BackendParams random_params(Rng& rng) {
  BackendParams p;
  p.kind = rng.chance(0.5) ? BackendKind::kOoo : BackendKind::kInOrder;
  p.decode_width = 1 + static_cast<std::uint32_t>(rng.uniform(6));
  p.issue_width = 1 + static_cast<std::uint32_t>(rng.uniform(6));
  p.commit_width = 1 + static_cast<std::uint32_t>(rng.uniform(6));
  p.iq_depth = 1 + static_cast<std::uint32_t>(rng.uniform(24));
  p.rob_depth = p.iq_depth + static_cast<std::uint32_t>(rng.uniform(48));
  p.fetch_buffer_ops = 1 + static_cast<std::uint32_t>(rng.uniform(24));
  p.base_latency = static_cast<std::uint32_t>(rng.uniform(3));
  p.mem_latency = static_cast<std::uint32_t>(rng.uniform(8));
  p.size_shift = 1 + static_cast<std::uint32_t>(rng.uniform(4));
  return p;
}

frontend::FrontEndParams random_frontend(Rng& rng) {
  frontend::FrontEndParams fe;
  if (rng.chance(0.5)) {
    fe.kind = frontend::BpredKind::kGshare;
    fe.prefetch = rng.chance(0.5);
  }
  return fe;
}

CounterSet run_counters(const trace::BlockTrace& trace,
                        const cfg::ProgramImage& image,
                        const cfg::AddressMap& layout,
                        const frontend::FrontEndParams& fe,
                        const BackendParams& bp) {
  sim::ICache cache(kGeometry);
  const Result<BackendResult> r =
      run_seq3_backend(testing::make_plan(trace, image, layout, 0, bp.spec()),
                       sim::FetchParams{}, fe, bp, &cache);
  CounterSet out;
  EXPECT_TRUE(r.is_ok()) << r.status().to_string();
  if (r.is_ok()) {
    r.value().fetch.export_counters(out);
    r.value().frontend.export_counters(out);
    r.value().backend.export_counters(out);
    cache.stats().export_counters(out);
  }
  return out;
}

TEST(BackendPropertyTest, OracleIdentitiesHoldOnRandomMachines) {
  Rng rng(20260807);
  for (int trial = 0; trial < 30; ++trial) {
    const auto image = random_image(rng, 4);
    const auto trace = random_trace(*image, rng, 300);
    const auto layout = cfg::AddressMap::original(*image);
    const BackendParams bp = random_params(rng);
    const frontend::FrontEndParams fe = random_frontend(rng);
    sim::ICache cache(kGeometry);
    const Result<BackendResult> r = run_seq3_backend(
        testing::make_plan(trace, *image, layout, 0, bp.spec()),
        sim::FetchParams{}, fe, bp, &cache);
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    const verify::Report report = verify::check_backend_result(
        r.value(), sim::FetchParams{}, fe, bp,
        verify::trace_instructions(trace, *image));
    EXPECT_TRUE(report.ok()) << "trial " << trial << ": " << report.summary();
  }
}

TEST(BackendPropertyTest, WindowBoundsAreNeverExceeded) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const auto image = random_image(rng, 3);
    const auto trace = random_trace(*image, rng, 200);
    const auto layout = cfg::AddressMap::original(*image);
    const BackendParams bp = random_params(rng);
    sim::ICache cache(kGeometry);
    const Result<BackendResult> r = run_seq3_backend(
        testing::make_plan(trace, *image, layout, 0, bp.spec()),
        sim::FetchParams{}, frontend::FrontEndParams{}, bp, &cache);
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    const BackendStats& be = r.value().backend;
    EXPECT_LE(be.iq_peak, bp.iq_depth) << "trial " << trial;
    EXPECT_LE(be.rob_peak, bp.rob_depth) << "trial " << trial;
    // Per-cycle occupancy sums can never exceed bound x cycles either.
    EXPECT_LE(be.iq_occupancy_sum, be.cycles * bp.iq_depth) << "trial " << trial;
    EXPECT_LE(be.rob_occupancy_sum, be.cycles * bp.rob_depth)
        << "trial " << trial;
  }
}

TEST(BackendPropertyTest, DrainLeavesZeroInFlightOps) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const auto image = random_image(rng, 3);
    const auto trace = random_trace(*image, rng, 250);
    const auto layout = cfg::AddressMap::original(*image);
    const BackendParams bp = random_params(rng);
    sim::ICache cache(kGeometry);
    const Result<BackendResult> r = run_seq3_backend(
        testing::make_plan(trace, *image, layout, 0, bp.spec()),
        sim::FetchParams{}, frontend::FrontEndParams{}, bp, &cache);
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    const BackendStats& be = r.value().backend;
    // A drained machine retired everything it ever accepted, and every
    // retired op passed through issue.
    EXPECT_EQ(be.retired_ops, be.dispatched_ops) << "trial " << trial;
    EXPECT_EQ(be.retired_ops, be.issued_ops) << "trial " << trial;
    EXPECT_EQ(be.retired_insns,
              verify::trace_instructions(trace, *image))
        << "trial " << trial;
    // The unified clock: fetch and the back end end on the same cycle.
    EXPECT_EQ(be.cycles, r.value().fetch.cycles) << "trial " << trial;
  }
}

TEST(BackendPropertyTest, CommitOrderMatchesDispatchOrder) {
  Rng rng(13);
  for (int trial = 0; trial < 10; ++trial) {
    const BackendParams bp = random_params(rng);
    BackendStats stats;
    Backend be(bp, &stats);
    std::vector<std::uint64_t> dispatched, committed;
    be.set_commit_observer(
        [&](const BackendOp& o) { committed.push_back(o.addr); });
    std::uint64_t now = 0;
    for (int i = 0; i < 200; ++i) {
      while (!be.can_dispatch()) be.step(now++);
      BackendOp o;
      o.addr = static_cast<std::uint64_t>(i) * 4;
      o.insns = 1 + static_cast<std::uint32_t>(rng.uniform(12));
      o.latency = 1 + static_cast<std::uint32_t>(rng.uniform(7));
      o.dest = static_cast<std::uint8_t>(rng.uniform(sim::kBackendRegs));
      o.src1 = static_cast<std::uint8_t>(rng.uniform(sim::kBackendRegs));
      o.src2 = static_cast<std::uint8_t>(rng.uniform(sim::kBackendRegs));
      be.dispatch(o);
      dispatched.push_back(o.addr);
    }
    for (; !be.empty() && now < 100000; ++now) be.step(now);
    ASSERT_TRUE(be.empty());
    EXPECT_EQ(committed, dispatched) << "trial " << trial;
  }
}

TEST(BackendPropertyTest, DeterministicAcrossRepeatsAndThreads) {
  Rng rng(17);
  const auto image = random_image(rng, 4);
  const auto trace = random_trace(*image, rng, 400);
  const auto layout = cfg::AddressMap::original(*image);
  const BackendParams bp = random_params(rng);
  const frontend::FrontEndParams fe = random_frontend(rng);

  const CounterSet reference = run_counters(trace, *image, layout, fe, bp);
  const CounterSet repeat = run_counters(trace, *image, layout, fe, bp);
  EXPECT_TRUE(
      verify::check_counters_equal(reference, repeat, "sequential repeat")
          .ok());

  // Concurrent runs on shared read-only inputs (each with a private cache)
  // must reproduce the reference bit for bit — the wakeup logic may not
  // depend on anything but its inputs.
  std::vector<CounterSet> concurrent(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < concurrent.size(); ++t) {
    threads.emplace_back([&, t] {
      concurrent[t] = run_counters(trace, *image, layout, fe, bp);
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < concurrent.size(); ++t) {
    const verify::Report report = verify::check_counters_equal(
        reference, concurrent[t], "concurrent run");
    EXPECT_TRUE(report.ok()) << "thread " << t << ": " << report.summary();
  }
}

// The plan's feed and back-end tables equal the per-event reference walk
// and the spec helpers (verify::check_plan_feed), which makes the pipeline
// bit-identical to one fed event by event; its counters pass the oracle's
// identities, and an independently built plan reproduces them bit for bit.
TEST(BackendPropertyTest, ReplayEnginesAreBitIdentical) {
  Rng rng(19);
  for (int trial = 0; trial < 10; ++trial) {
    const auto image = random_image(rng, 4);
    const auto trace = random_trace(*image, rng, 300);
    const auto layout = cfg::AddressMap::original(*image);
    const BackendParams bp = random_params(rng);
    const frontend::FrontEndParams fe = random_frontend(rng);
    const sim::ReplayPlan plan = testing::make_plan(
        trace, *image, layout, kGeometry.line_bytes, bp.spec());
    // A plan built with an enabled spec embeds the back-end tables.
    EXPECT_TRUE(plan.backend().valid());
    const verify::Report feed =
        verify::check_plan_feed(trace, *image, layout, plan, bp.spec());
    EXPECT_TRUE(feed.ok()) << "trial " << trial << ": " << feed.summary();
    sim::ICache cache(kGeometry);
    const Result<BackendResult> r =
        run_seq3_backend(plan, sim::FetchParams{}, fe, bp, &cache);
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    const verify::Report identities = verify::check_backend_result(
        r.value(), sim::FetchParams{}, fe, bp,
        verify::trace_instructions(trace, *image));
    EXPECT_TRUE(identities.ok())
        << "trial " << trial << ": " << identities.summary();
    CounterSet got;
    r.value().fetch.export_counters(got);
    r.value().frontend.export_counters(got);
    r.value().backend.export_counters(got);
    cache.stats().export_counters(got);
    const verify::Report report = verify::check_counters_equal(
        run_counters(trace, *image, layout, fe, bp), got, "rebuilt plan");
    EXPECT_TRUE(report.ok()) << "trial " << trial << ": " << report.summary();
  }
}

// The plan path reads op costs only from the plan's back-end table, so a
// plan built without the back-end spec is a caller bug: it aborts instead
// of replaying with costs the plan does not carry.
TEST(BackendPropertyDeathTest, PlanWithoutBackendTableAborts) {
  Rng rng(29);
  const auto image = random_image(rng, 4);
  const auto trace = random_trace(*image, rng, 50);
  const auto layout = cfg::AddressMap::original(*image);
  const sim::ReplayPlan plan =
      testing::make_plan(trace, *image, layout, kGeometry.line_bytes);
  ASSERT_FALSE(plan.backend().valid());
  BackendParams bp;
  bp.kind = BackendKind::kOoo;
  sim::ICache cache(kGeometry);
  EXPECT_DEATH((void)run_seq3_backend(plan, sim::FetchParams{},
                                      frontend::FrontEndParams{}, bp, &cache),
               "back-end replay needs a plan built with the back-end spec");
}

TEST(BackendPropertyTest, DegenerateFamiliesDoNotWedgeThePipeline) {
  Rng rng(23);
  for (int family = 0; family < testing::kNumDegenerateFamilies; ++family) {
    const auto image = degenerate_image(rng, family);
    trace::BlockTrace trace;
    if (image->num_blocks() > 0) trace = random_trace(*image, rng, 150);
    const auto layout = cfg::AddressMap::original(*image);
    const BackendParams bp = random_params(rng);
    sim::ICache cache(kGeometry);
    const Result<BackendResult> r = run_seq3_backend(
        testing::make_plan(trace, *image, layout, 0, bp.spec()),
        sim::FetchParams{}, frontend::FrontEndParams{}, bp, &cache);
    ASSERT_TRUE(r.is_ok())
        << testing::degenerate_family_name(family) << ": "
        << r.status().to_string();
    const verify::Report report = verify::check_backend_result(
        r.value(), sim::FetchParams{}, frontend::FrontEndParams{}, bp,
        verify::trace_instructions(trace, *image));
    EXPECT_TRUE(report.ok()) << testing::degenerate_family_name(family)
                             << ": " << report.summary();
  }
}

// The back end issues the same sim::seq3_request as the plain SEQ.3 loop,
// only on its own clock. With a transparent front end neither the group
// sequence nor the i-cache access order depends on back-end timing, so the
// fetch-side counters and the cache stats must equal sim::run_seq3's at
// every window depth.
void expect_fetch_side_matches_seq3(const trace::BlockTrace& trace,
                                    const cfg::ProgramImage& image,
                                    const cfg::AddressMap& layout,
                                    const char* what) {
  sim::ICache base_cache(kGeometry);
  const sim::FetchResult base = sim::run_seq3(
      testing::make_plan(trace, image, layout), sim::FetchParams{},
      &base_cache);
  for (const std::uint32_t depth : {1u, 16u, 1024u}) {
    for (const BackendKind kind : {BackendKind::kInOrder, BackendKind::kOoo}) {
      BackendParams bp;
      bp.kind = kind;
      bp.iq_depth = depth;
      bp.rob_depth = depth;
      sim::ICache cache(kGeometry);
      const Result<BackendResult> r = run_seq3_backend(
          testing::make_plan(trace, image, layout, 0, bp.spec()),
          sim::FetchParams{}, frontend::FrontEndParams{}, bp, &cache);
      ASSERT_TRUE(r.is_ok()) << what << ": " << r.status().to_string();
      const sim::FetchResult& fetch = r.value().fetch;
      SCOPED_TRACE(std::string(what) + " depth " + std::to_string(depth) +
                   " " + to_string(kind));
      EXPECT_EQ(fetch.instructions, base.instructions);
      EXPECT_EQ(fetch.fetch_requests, base.fetch_requests);
      EXPECT_EQ(fetch.miss_requests, base.miss_requests);
      EXPECT_EQ(fetch.lines_missed, base.lines_missed);
      EXPECT_EQ(cache.stats().accesses, base_cache.stats().accesses);
      EXPECT_EQ(cache.stats().misses, base_cache.stats().misses);
      EXPECT_EQ(cache.stats().victim_hits, base_cache.stats().victim_hits);
    }
  }
}

TEST(BackendPropertyTest, FetchSideMatchesSeq3AtEveryWindowDepth) {
  Rng rng(31);
  for (int trial = 0; trial < 8; ++trial) {
    const auto image = random_image(rng, 4);
    const auto trace = random_trace(*image, rng, 300);
    const auto layout = cfg::AddressMap::original(*image);
    expect_fetch_side_matches_seq3(trace, *image, layout, "random");
  }
  for (int family = 0; family < testing::kNumDegenerateFamilies; ++family) {
    const auto image = degenerate_image(rng, family);
    trace::BlockTrace trace;
    if (image->num_blocks() > 0) trace = random_trace(*image, rng, 150);
    const auto layout = cfg::AddressMap::original(*image);
    expect_fetch_side_matches_seq3(trace, *image, layout,
                                   testing::degenerate_family_name(family));
  }
}

TEST(BackendPropertyTest, EmptyTraceRunsZeroCycles) {
  Rng rng(29);
  const auto image = random_image(rng, 2);
  const auto layout = cfg::AddressMap::original(*image);
  BackendParams bp;
  bp.kind = BackendKind::kOoo;
  sim::ICache cache(kGeometry);
  const Result<BackendResult> r = run_seq3_backend(
      testing::make_plan(trace::BlockTrace{}, *image, layout, 0, bp.spec()),
      sim::FetchParams{}, frontend::FrontEndParams{}, bp, &cache);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value().backend.cycles, 0u);
  EXPECT_EQ(r.value().backend.retired_ops, 0u);
  EXPECT_EQ(r.value().fetch.cycles, 0u);
}

TEST(BackendPropertyTest, SingleEntryWindowStillDrainsDeepCallChains) {
  // iq=1/rob=1 is the most serializing legal machine; a call/return-heavy
  // trace exercises the mem-latency charge on every op.
  cfg::ProgramBuilder builder;
  const cfg::ModuleId mod = builder.module("m");
  builder.routine("caller", mod,
                  {{"c0", 4, cfg::BlockKind::kCall},
                   {"c1", 4, cfg::BlockKind::kCall},
                   {"c2", 2, cfg::BlockKind::kReturn}});
  builder.routine("leaf", mod, {{"l0", 6, cfg::BlockKind::kReturn}});
  const auto image = builder.build();
  const auto layout = cfg::AddressMap::original(*image);
  trace::BlockTrace trace;
  for (int i = 0; i < 50; ++i) {
    trace.append(0);  // c0 (call)
    trace.append(3);  // l0 (return)
    trace.append(1);  // c1 (call)
    trace.append(3);  // l0 (return)
    trace.append(2);  // c2 (return)
  }
  BackendParams bp;
  bp.kind = BackendKind::kInOrder;
  bp.iq_depth = 1;
  bp.rob_depth = 1;
  bp.decode_width = 1;
  bp.issue_width = 1;
  bp.commit_width = 1;
  sim::ICache cache(kGeometry);
  const Result<BackendResult> r = run_seq3_backend(
      testing::make_plan(trace, *image, layout, 0, bp.spec()),
      sim::FetchParams{}, frontend::FrontEndParams{}, bp, &cache);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  const BackendStats& be = r.value().backend;
  EXPECT_EQ(be.retired_ops, trace.num_events());
  EXPECT_EQ(be.retired_insns, verify::trace_instructions(trace, *image));
  EXPECT_EQ(be.iq_peak, 1u);
  EXPECT_EQ(be.rob_peak, 1u);
  // Every op pays the memory charge; the run must be latency-dominated.
  EXPECT_GT(be.cycles, trace.num_events() * 2);
  const verify::Report report = verify::check_backend_result(
      r.value(), sim::FetchParams{}, frontend::FrontEndParams{}, bp,
      verify::trace_instructions(trace, *image));
  EXPECT_TRUE(report.ok()) << report.summary();
}

}  // namespace
}  // namespace stc::backend
