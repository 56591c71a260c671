#include "sim/trace_cache.h"

#include <gtest/gtest.h>

#include "cfg/builder.h"
#include "sim/replay.h"
#include "testing/plan.h"

namespace stc::sim {
namespace {

using cfg::BlockKind;

// Hot loop body: A(4, branch) -> B(4, branch far away) -> back to A.
struct Fixture {
  Fixture() {
    cfg::ProgramBuilder b;
    const cfg::ModuleId m = b.module("mod");
    r = b.routine("f", m,
                  {{"A", 4, BlockKind::kBranch},
                   {"filler", 32, BlockKind::kBranch},
                   {"B", 4, BlockKind::kBranch},
                   {"C", 4, BlockKind::kReturn}});
    image = b.build();
    layout = cfg::AddressMap::original(*image);
    A = image->block_id(r, "A");
    B = image->block_id(r, "B");
    C = image->block_id(r, "C");
  }
  std::unique_ptr<cfg::ProgramImage> image;
  cfg::AddressMap layout;
  cfg::RoutineId r = 0;
  cfg::BlockId A = 0, B = 0, C = 0;
};

trace::BlockTrace loop_trace(const Fixture& f, int iterations) {
  trace::BlockTrace t;
  for (int i = 0; i < iterations; ++i) {
    t.append(f.A);
    t.append(f.B);
  }
  return t;
}

TEST(TraceCacheTest, FillThenHitOnRepeatedPath) {
  Fixture f;
  const auto t = loop_trace(f, 50);
  FetchParams params;
  params.perfect_icache = true;
  TraceCacheParams tc;
  tc.entries = 16;
  const FetchResult result =
      run_trace_cache(testing::make_plan(t, *f.image, f.layout), params, tc,
                      nullptr);
  EXPECT_GT(result.tc_hits, 0u);
  EXPECT_GT(result.tc_misses, 0u);
  // After warmup, the A->B trace (8 insns spanning a taken branch) is
  // supplied in one cycle; SEQ.3 alone needs two cycles per iteration.
  const FetchResult seq =
      run_seq3(testing::make_plan(t, *f.image, f.layout), params, nullptr);
  EXPECT_GT(result.ipc(), seq.ipc());
}

TEST(TraceCacheTest, TraceSpansTakenBranches) {
  Fixture f;
  const auto t = loop_trace(f, 50);
  FetchParams params;
  params.perfect_icache = true;
  TraceCacheParams tc;
  const FetchResult result =
      run_trace_cache(testing::make_plan(t, *f.image, f.layout), params, tc,
                      nullptr);
  // Steady state: one fetch per iteration (8 insns incl. the taken branch)
  // instead of two.
  EXPECT_GT(result.tc_hit_ratio(), 0.5);
}

TEST(TraceCacheTest, PathMismatchIsAMiss) {
  Fixture f;
  // Alternate A->B and A->C so the stored trace for A's address keeps
  // mismatching the actual path half the time.
  trace::BlockTrace t;
  for (int i = 0; i < 40; ++i) {
    t.append(f.A);
    t.append(i % 2 == 0 ? f.B : f.C);
  }
  FetchParams params;
  params.perfect_icache = true;
  TraceCacheParams tc;
  const FetchResult result =
      run_trace_cache(testing::make_plan(t, *f.image, f.layout), params, tc,
                      nullptr);
  // The A-indexed entry keeps flipping between the two paths; perfect path
  // comparison at probe time forces a substantial miss rate (a steady
  // workload like loop_trace reaches ~100% hits instead).
  EXPECT_LT(result.tc_hit_ratio(), 0.7);
  EXPECT_GT(result.tc_misses, 10u);
}

TEST(TraceCacheTest, DirectMappedEntriesConflict) {
  Fixture f;
  const auto t = loop_trace(f, 50);
  FetchParams params;
  params.perfect_icache = true;
  TraceCacheParams tiny;
  tiny.entries = 1;  // A- and B-started traces fight over one entry
  TraceCacheParams big;
  big.entries = 64;
  const FetchResult small_result =
      run_trace_cache(testing::make_plan(t, *f.image, f.layout), params, tiny,
                      nullptr);
  const FetchResult big_result =
      run_trace_cache(testing::make_plan(t, *f.image, f.layout), params, big,
                      nullptr);
  EXPECT_LE(small_result.tc_hits, big_result.tc_hits);
}

TEST(TraceCacheTest, MissPathChargesIcachePenalty) {
  Fixture f;
  trace::BlockTrace t;
  t.append(f.A);
  FetchParams params;
  params.miss_penalty = 5;
  TraceCacheParams tc;
  ICache cache({1024, 64, 1});
  const FetchResult result =
      run_trace_cache(testing::make_plan(t, *f.image, f.layout), params, tc,
                      &cache);
  EXPECT_EQ(result.tc_misses, 1u);
  EXPECT_EQ(result.cycles, 6u);  // 1 fetch + 5 penalty
}

TEST(TraceCacheTest, HitSuppliesWholeTraceInOneCycle) {
  Fixture f;
  const auto t = loop_trace(f, 3);
  FetchParams params;
  params.perfect_icache = true;
  TraceCacheParams tc;
  const FetchResult result =
      run_trace_cache(testing::make_plan(t, *f.image, f.layout), params, tc,
                      nullptr);
  // 3 iterations x 8 insns = 24 instructions total.
  EXPECT_EQ(result.instructions, 24u);
  EXPECT_EQ(result.cycles, result.fetch_requests);
}

TEST(TraceCacheUnitTest, ProbeChecksTagAndPath) {
  Fixture f;
  TraceCache tc(TraceCacheParams{16, 16, 3});
  trace::BlockTrace t;
  t.append(f.A);
  t.append(f.B);
  const ReplayPlan plan = testing::make_plan(t, *f.image, f.layout);
  FetchPipe pipe(plan);
  // Nothing stored yet.
  EXPECT_EQ(tc.probe(pipe.addr(), pipe), 0u);
  // Fill a trace for address of A covering A then B.
  tc.begin_fill(pipe.addr());
  FetchPipe::Insn insn;
  for (std::uint32_t k = 0; k < 8; ++k) {
    ASSERT_TRUE(pipe.peek(k, insn));
    tc.fill_push(insn);
  }
  EXPECT_TRUE(tc.fill_active());  // 8 insns / 2 branches: not yet complete
  // Push more to reach the 3-branch limit using the C tail.
  trace::BlockTrace t2;
  t2.append(f.A);
  t2.append(f.B);
  t2.append(f.C);
  const ReplayPlan plan2 = testing::make_plan(t2, *f.image, f.layout);
  FetchPipe pipe2(plan2);
  // Existing fill continues; feed C's instructions (4 more, third branch).
  for (std::uint32_t k = 8; k < 12; ++k) {
    ASSERT_TRUE(pipe2.peek(k, insn));
    tc.fill_push(insn);
  }
  EXPECT_FALSE(tc.fill_active());
  EXPECT_EQ(tc.stored_traces(), 1u);
  // Probe with the matching path: 12-instruction hit.
  EXPECT_EQ(tc.probe(pipe2.addr(), pipe2), 12u);
  // Probe with a mismatching path (A -> C): miss.
  trace::BlockTrace t3;
  t3.append(f.A);
  t3.append(f.C);
  const ReplayPlan plan3 = testing::make_plan(t3, *f.image, f.layout);
  FetchPipe pipe3(plan3);
  EXPECT_EQ(tc.probe(pipe3.addr(), pipe3), 0u);
}

TEST(TraceCacheUnitTest, FillStopsAtWidthLimit) {
  Fixture f;
  TraceCache tc(TraceCacheParams{16, 8, 3});
  tc.begin_fill(0);
  FetchPipe::Insn insn;
  insn.is_branch = false;
  for (int i = 0; i < 8; ++i) {
    insn.addr = static_cast<std::uint64_t>(i) * 4;
    tc.fill_push(insn);
  }
  EXPECT_FALSE(tc.fill_active());
  EXPECT_EQ(tc.stored_traces(), 1u);
}

}  // namespace
}  // namespace stc::sim
