#include "sim/fetch_unit.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cfg/builder.h"
#include "sim/replay.h"
#include "testing/plan.h"

namespace stc::sim {
namespace {

using cfg::BlockKind;

// One routine with parameterizable block shapes laid out at address 0.
struct Fixture {
  explicit Fixture(std::vector<cfg::BlockDef> defs) {
    cfg::ProgramBuilder b;
    const cfg::ModuleId m = b.module("mod");
    r = b.routine("f", m, std::move(defs));
    image = b.build();
    layout = cfg::AddressMap::original(*image);
  }
  std::unique_ptr<cfg::ProgramImage> image;
  cfg::AddressMap layout;
  cfg::RoutineId r = 0;
};

TEST(FetchPipeTest, PeekAndConsume) {
  Fixture f({{"A", 4, BlockKind::kFallThrough}, {"B", 2, BlockKind::kReturn}});
  trace::BlockTrace t;
  t.append(0);
  t.append(1);
  const ReplayPlan plan = testing::make_plan(t, *f.image, f.layout);
  FetchPipe pipe(plan);
  FetchPipe::Insn insn;
  ASSERT_TRUE(pipe.peek(0, insn));
  EXPECT_EQ(insn.addr, 0u);
  EXPECT_FALSE(insn.block_end);
  ASSERT_TRUE(pipe.peek(3, insn));  // last insn of A
  EXPECT_TRUE(insn.block_end);
  EXPECT_FALSE(insn.is_branch);  // fall-through block
  EXPECT_FALSE(insn.taken);      // B is contiguous
  ASSERT_TRUE(pipe.peek(5, insn));  // last insn of B
  EXPECT_TRUE(insn.is_branch);      // return block
  EXPECT_FALSE(pipe.peek(6, insn));
  pipe.consume(6);
  EXPECT_TRUE(pipe.done());
}

TEST(FetchPipeTest, AddrAdvancesWithinBlock) {
  Fixture f({{"A", 4, BlockKind::kReturn}});
  trace::BlockTrace t;
  t.append(0);
  const ReplayPlan plan = testing::make_plan(t, *f.image, f.layout);
  FetchPipe pipe(plan);
  EXPECT_EQ(pipe.addr(), 0u);
  pipe.consume(1);
  EXPECT_EQ(pipe.addr(), 4u);
  pipe.consume(2);
  EXPECT_EQ(pipe.addr(), 12u);
}

TEST(FetchPipeTest, EmptyPlanIsDoneAtConstruction) {
  Fixture f({{"A", 4, BlockKind::kReturn}});
  const ReplayPlan plan =
      testing::make_plan(trace::BlockTrace{}, *f.image, f.layout);
  const FetchPipe pipe(plan);
  EXPECT_TRUE(pipe.done());
  FetchPipe::Insn insn;
  EXPECT_FALSE(pipe.peek(0, insn));
}

// Peeks far past the cursor's own run walk one plan event per instruction.
TEST(FetchPipeTest, PeeksAcrossManyOneInstructionBlocks) {
  constexpr std::uint32_t kBlocks = 40;
  std::vector<cfg::BlockDef> defs;
  for (std::uint32_t i = 0; i < kBlocks; ++i) {
    defs.push_back({std::string("b").append(std::to_string(i)), 1,
                    i + 1 == kBlocks ? BlockKind::kReturn
                                     : BlockKind::kFallThrough});
  }
  Fixture f(std::move(defs));
  trace::BlockTrace t;
  for (cfg::BlockId b = 0; b < kBlocks; ++b) t.append(b);
  const ReplayPlan plan = testing::make_plan(t, *f.image, f.layout);
  FetchPipe pipe(plan);
  FetchPipe::Insn insn;
  for (const std::uint32_t k : {16u, 17u, 31u, kBlocks - 1}) {
    ASSERT_TRUE(pipe.peek(k, insn)) << k;
    EXPECT_EQ(insn.addr, std::uint64_t{k} * 4) << k;
    EXPECT_EQ(insn.block, k) << k;
    EXPECT_TRUE(insn.block_end) << k;
  }
  EXPECT_TRUE(insn.is_branch);  // the last block returns
  EXPECT_FALSE(pipe.peek(kBlocks, insn));  // one past the last instruction
  pipe.consume(20);
  ASSERT_TRUE(pipe.peek(kBlocks - 21, insn));
  EXPECT_EQ(insn.block, kBlocks - 1);
  EXPECT_FALSE(pipe.peek(kBlocks - 20, insn));
}

TEST(FetchPipeTest, ConsumeLandsOnBlockBoundary) {
  Fixture f({{"A", 4, BlockKind::kFallThrough},
             {"B", 3, BlockKind::kFallThrough},
             {"C", 2, BlockKind::kReturn}});
  trace::BlockTrace t;
  t.append(0);
  t.append(1);
  t.append(2);
  const ReplayPlan plan = testing::make_plan(t, *f.image, f.layout);
  FetchPipe pipe(plan);
  pipe.consume(4);  // exactly A
  EXPECT_EQ(pipe.addr(), 16u);
  FetchPipe::Insn insn;
  ASSERT_TRUE(pipe.peek(0, insn));
  EXPECT_EQ(insn.block, 1u);
  pipe.consume(3);  // exactly B
  EXPECT_EQ(pipe.addr(), 28u);
  pipe.consume(2);
  EXPECT_TRUE(pipe.done());
}

TEST(FetchPipeDeathTest, ConsumingMoreThanRemainsDies) {
  Fixture f({{"A", 4, BlockKind::kFallThrough}, {"B", 2, BlockKind::kReturn}});
  trace::BlockTrace t;
  t.append(0);
  t.append(1);
  const ReplayPlan plan = testing::make_plan(t, *f.image, f.layout);
  FetchPipe pipe(plan);
  pipe.consume(3);
  EXPECT_DEATH(pipe.consume(4), "consumed past the end of the trace");
}

TEST(Seq3Test, SuppliesUpTo16SequentialInstructions) {
  // 20-insn straight-line block: first fetch brings 16, the rest 4.
  Fixture f({{"A", 20, BlockKind::kReturn}});
  trace::BlockTrace t;
  t.append(0);
  FetchParams params;
  params.perfect_icache = true;
  const FetchResult result =
      run_seq3(testing::make_plan(t, *f.image, f.layout), params, nullptr);
  EXPECT_EQ(result.instructions, 20u);
  EXPECT_EQ(result.cycles, 2u);
}

TEST(Seq3Test, StopsAtFirstTakenBranch) {
  Fixture f({{"A", 4, BlockKind::kBranch}, {"B", 4, BlockKind::kReturn}});
  trace::BlockTrace t;
  // A -> A (taken backward branch) then A -> B sequential.
  t.append(0);
  t.append(0);
  t.append(1);
  FetchParams params;
  params.perfect_icache = true;
  const FetchResult result =
      run_seq3(testing::make_plan(t, *f.image, f.layout), params, nullptr);
  // Cycle 1: A (4 insns, taken). Cycle 2: A then B sequential = 8 insns but
  // A ends in a not-taken branch and B in a return: 2 branches < 3 -> one
  // cycle for both.
  EXPECT_EQ(result.instructions, 12u);
  EXPECT_EQ(result.cycles, 2u);
}

TEST(Seq3Test, ThreeBranchLimit) {
  // Four 1-insn branch blocks, all sequential (not taken): the unit may only
  // take 3 branches per cycle.
  Fixture f({{"A", 1, BlockKind::kBranch},
             {"B", 1, BlockKind::kBranch},
             {"C", 1, BlockKind::kBranch},
             {"D", 1, BlockKind::kReturn}});
  trace::BlockTrace t;
  t.append(0);
  t.append(1);
  t.append(2);
  t.append(3);
  FetchParams params;
  params.perfect_icache = true;
  const FetchResult result =
      run_seq3(testing::make_plan(t, *f.image, f.layout), params, nullptr);
  EXPECT_EQ(result.instructions, 4u);
  EXPECT_EQ(result.cycles, 2u);  // 3 insns (3 branches), then 1
}

TEST(Seq3Test, TwoLineWindowLimitsFetch) {
  // 32 straight-line insns starting at a line boundary with 32B lines:
  // window = 2 lines = 16 insns; width 16 allows it, so geometry matters
  // when the fetch starts mid-line.
  Fixture f({{"A", 8, BlockKind::kFallThrough},  // [0, 32)
             {"B", 24, BlockKind::kReturn}});    // [32, 128)
  trace::BlockTrace t;
  t.append(0);
  t.append(1);
  FetchParams params;
  ICache cache({1024, 32, 1});
  const FetchResult result =
      run_seq3(testing::make_plan(t, *f.image, f.layout), params, &cache);
  // Cycle 1: insns at [0,64) = 16 insns (2 lines). Cycle 2: [64,128) = 16.
  EXPECT_EQ(result.instructions, 32u);
  EXPECT_EQ(result.fetch_requests, 2u);
}

TEST(Seq3Test, MissPenaltyAddsStallCycles) {
  Fixture f({{"A", 16, BlockKind::kReturn}});
  trace::BlockTrace t;
  t.append(0);
  t.append(0);  // re-executed: second fetch hits
  FetchParams params;
  params.miss_penalty = 5;
  ICache cache({1024, 64, 1});
  const FetchResult result =
      run_seq3(testing::make_plan(t, *f.image, f.layout), params, &cache);
  // Fetch 1: miss (line 0) -> 1 + 5 cycles. Fetch 2: hit -> 1 cycle.
  EXPECT_EQ(result.instructions, 32u);
  EXPECT_EQ(result.cycles, 7u);
  EXPECT_EQ(result.miss_requests, 1u);
}

TEST(Seq3Test, PenaltyPerLineDoublesOnDoubleMiss) {
  // 32B lines; a 16-insn fetch spans two lines -> two cold misses.
  Fixture f({{"A", 16, BlockKind::kReturn}});
  trace::BlockTrace t;
  t.append(0);
  FetchParams params;
  params.penalty_per_line = true;
  ICache cache({1024, 32, 1});
  const FetchResult result =
      run_seq3(testing::make_plan(t, *f.image, f.layout), params, &cache);
  EXPECT_EQ(result.lines_missed, 2u);
  EXPECT_EQ(result.cycles, 1u + 10u);
}

TEST(Seq3Test, PerfectIcacheNeverStalls) {
  Fixture f({{"A", 16, BlockKind::kReturn}});
  trace::BlockTrace t;
  for (int i = 0; i < 100; ++i) t.append(0);
  FetchParams params;
  params.perfect_icache = true;
  const FetchResult result =
      run_seq3(testing::make_plan(t, *f.image, f.layout), params, nullptr);
  EXPECT_EQ(result.cycles, result.fetch_requests);
  EXPECT_DOUBLE_EQ(result.ipc(), 16.0);
}

TEST(Seq3Test, DisplacedFallThroughStopsFetchButIsNotABranch) {
  // A is fall-through but its successor is laid out far away: the transition
  // is taken (stops the fetch) yet contributes no branch instruction.
  cfg::ProgramBuilder b;
  const cfg::ModuleId m = b.module("mod");
  const cfg::RoutineId r = b.routine("f", m,
                                     {{"A", 4, BlockKind::kFallThrough},
                                      {"B", 4, BlockKind::kBranch},
                                      {"C", 4, BlockKind::kReturn}});
  auto image = b.build();
  cfg::AddressMap layout("x", image->num_blocks());
  layout.set(image->block_id(r, "A"), 0);
  layout.set(image->block_id(r, "B"), 512);
  layout.set(image->block_id(r, "C"), 1024);
  trace::BlockTrace t;
  t.append(image->block_id(r, "A"));
  t.append(image->block_id(r, "B"));
  FetchParams params;
  params.perfect_icache = true;
  const FetchResult result =
      run_seq3(testing::make_plan(t, *image, layout), params, nullptr);
  EXPECT_EQ(result.instructions, 8u);
  EXPECT_EQ(result.cycles, 2u);  // the displaced transition splits the fetch
}

TEST(Seq3Test, IpcImprovesWithPackedLayout) {
  // Hot path A -> C; orig layout separates them with B.
  cfg::ProgramBuilder b;
  const cfg::ModuleId m = b.module("mod");
  const cfg::RoutineId r = b.routine("f", m,
                                     {{"A", 4, BlockKind::kBranch},
                                      {"B", 8, BlockKind::kBranch},
                                      {"C", 4, BlockKind::kReturn}});
  auto image = b.build();
  trace::BlockTrace t;
  for (int i = 0; i < 50; ++i) {
    t.append(image->block_id(r, "A"));
    t.append(image->block_id(r, "C"));
  }
  FetchParams params;
  params.perfect_icache = true;
  const auto orig = cfg::AddressMap::original(*image);
  cfg::AddressMap packed("packed", image->num_blocks());
  packed.set(image->block_id(r, "A"), 0);
  packed.set(image->block_id(r, "C"), 16);
  packed.set(image->block_id(r, "B"), 128);
  const auto before =
      run_seq3(testing::make_plan(t, *image, orig), params, nullptr);
  const auto after =
      run_seq3(testing::make_plan(t, *image, packed), params, nullptr);
  EXPECT_GT(after.ipc(), before.ipc());
}

}  // namespace
}  // namespace stc::sim
