#include "trace/fetch_stream.h"

#include <gtest/gtest.h>

#include "cfg/builder.h"
#include "verify/reference.h"

namespace stc::trace {
namespace {

using cfg::BlockKind;

struct Fixture {
  Fixture() {
    cfg::ProgramBuilder b;
    const cfg::ModuleId m = b.module("mod");
    r = b.routine("f", m,
                  {{"A", 4, BlockKind::kFallThrough},
                   {"B", 2, BlockKind::kBranch},
                   {"C", 3, BlockKind::kReturn}});
    image = b.build();
    A = image->block_id(r, "A");
    B = image->block_id(r, "B");
    C = image->block_id(r, "C");
  }
  std::unique_ptr<cfg::ProgramImage> image;
  cfg::RoutineId r = 0;
  cfg::BlockId A = 0, B = 0, C = 0;
};

TEST(BlockRunStreamTest, SequentialTransitionsNotTaken) {
  Fixture f;
  BlockTrace t;
  t.append(f.A);
  t.append(f.B);  // B starts exactly at end of A under orig layout
  const auto layout = cfg::AddressMap::original(*f.image);
  BlockRunStream stream(t, *f.image, layout);
  BlockRun run;
  ASSERT_TRUE(stream.next(run));
  EXPECT_EQ(run.addr, f.image->block(f.A).orig_addr);
  EXPECT_EQ(run.insns, 4u);
  EXPECT_FALSE(run.ends_in_branch);  // fall-through block
  EXPECT_TRUE(run.has_next);
  EXPECT_FALSE(run.taken);
  ASSERT_TRUE(stream.next(run));
  EXPECT_TRUE(run.ends_in_branch);  // branch block
  EXPECT_FALSE(run.has_next);       // last run of the trace
  EXPECT_FALSE(stream.next(run));
}

TEST(BlockRunStreamTest, NonContiguousTransitionIsTaken) {
  Fixture f;
  BlockTrace t;
  t.append(f.A);
  t.append(f.C);  // skips B: addresses not adjacent
  const auto layout = cfg::AddressMap::original(*f.image);
  BlockRunStream stream(t, *f.image, layout);
  BlockRun run;
  ASSERT_TRUE(stream.next(run));
  EXPECT_TRUE(run.taken);
  EXPECT_EQ(run.next_addr, f.image->block(f.C).orig_addr);
}

TEST(BlockRunStreamTest, LayoutChangesTakenness) {
  Fixture f;
  BlockTrace t;
  t.append(f.A);
  t.append(f.C);
  // Custom layout placing C right after A.
  cfg::AddressMap layout("test", f.image->num_blocks());
  layout.set(f.A, 0);
  layout.set(f.C, 16);
  layout.set(f.B, 100);
  BlockRunStream stream(t, *f.image, layout);
  BlockRun run;
  ASSERT_TRUE(stream.next(run));
  EXPECT_FALSE(run.taken);  // A -> C is now sequential
}

TEST(BlockRunStreamTest, EmptyTrace) {
  Fixture f;
  BlockTrace t;
  const auto layout = cfg::AddressMap::original(*f.image);
  BlockRunStream stream(t, *f.image, layout);
  BlockRun run;
  EXPECT_FALSE(stream.next(run));
}

TEST(SequentialityTest, CountsInstructionsAndTakenBranches) {
  Fixture f;
  BlockTrace t;
  // A -> B sequential, B -> A taken (backward), A -> B sequential.
  t.append(f.A);
  t.append(f.B);
  t.append(f.A);
  t.append(f.B);
  const auto layout = cfg::AddressMap::original(*f.image);
  const SequentialityStats stats =
      verify::reference_sequentiality(t, *f.image, layout);
  EXPECT_EQ(stats.instructions, 12u);
  EXPECT_EQ(stats.dynamic_blocks, 4u);
  EXPECT_EQ(stats.taken_transitions, 1u);  // only B -> A
  EXPECT_DOUBLE_EQ(stats.insns_between_taken_branches(), 12.0);
}

TEST(SequentialityTest, NoTakenBranchesMeansFullLength) {
  Fixture f;
  BlockTrace t;
  t.append(f.A);
  t.append(f.B);
  const auto layout = cfg::AddressMap::original(*f.image);
  const SequentialityStats stats =
      verify::reference_sequentiality(t, *f.image, layout);
  EXPECT_EQ(stats.taken_transitions, 0u);
  EXPECT_DOUBLE_EQ(stats.insns_between_taken_branches(), 6.0);
}

TEST(SequentialityTest, LayoutImprovesMetric) {
  Fixture f;
  BlockTrace t;
  for (int i = 0; i < 10; ++i) {
    t.append(f.A);
    t.append(f.C);  // hot path A -> C
  }
  const auto orig = cfg::AddressMap::original(*f.image);
  cfg::AddressMap packed("packed", f.image->num_blocks());
  packed.set(f.A, 0);
  packed.set(f.C, 16);
  packed.set(f.B, 64);
  const auto before = verify::reference_sequentiality(t, *f.image, orig);
  const auto after = verify::reference_sequentiality(t, *f.image, packed);
  EXPECT_GT(after.insns_between_taken_branches(),
            before.insns_between_taken_branches());
}

}  // namespace
}  // namespace stc::trace
