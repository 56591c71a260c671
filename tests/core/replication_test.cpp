#include "core/replication.h"

#include "core/stc_layout.h"

#include <gtest/gtest.h>

#include "cfg/builder.h"
#include "cfg/exec.h"
#include "sim/replay.h"
#include "testing/plan.h"

namespace stc::core {
namespace {

using cfg::BlockId;
using cfg::BlockKind;
using cfg::RoutineId;

// Two callers invoking a shared helper; caller bodies differ. Traces are
// produced through a validated ExecContext so they obey the discipline the
// transformer relies on.
struct Fixture {
  Fixture() {
    cfg::ProgramBuilder b;
    const cfg::ModuleId m = b.module("mod");
    helper = b.routine("helper", m,
                       {{"entry", 2, BlockKind::kBranch},
                        {"ret", 2, BlockKind::kReturn}});
    caller_a = b.routine("caller_a", m,
                         {{"entry", 2, BlockKind::kCall},
                          {"after", 2, BlockKind::kBranch},
                          {"ret", 2, BlockKind::kReturn}});
    caller_b = b.routine("caller_b", m,
                         {{"entry", 2, BlockKind::kCall},
                          {"after", 2, BlockKind::kBranch},
                          {"ret", 2, BlockKind::kReturn}});
    image = b.build();
  }

  void run_helper(cfg::ExecContext& ctx) const {
    cfg::RoutineScope scope(ctx, helper);
    ctx.bb(image->block_id(helper, "entry"));
    ctx.bb(image->block_id(helper, "ret"));
  }
  void run_caller(cfg::ExecContext& ctx, RoutineId caller) const {
    cfg::RoutineScope scope(ctx, caller);
    ctx.bb(image->block_id(caller, "entry"));
    run_helper(ctx);
    ctx.bb(image->block_id(caller, "after"));
    ctx.bb(image->block_id(caller, "ret"));
  }

  // Alternating activations of both callers, `n` each.
  trace::BlockTrace record(int n, profile::Profile* prof = nullptr) const {
    trace::BlockTrace t;
    trace::TraceRecorder recorder(t);
    cfg::TeeSink tee;
    tee.add(&recorder);
    if (prof != nullptr) tee.add(prof);
    cfg::ExecContext ctx(*image, &tee, /*validate=*/true);
    for (int i = 0; i < n; ++i) {
      run_caller(ctx, caller_a);
      run_caller(ctx, caller_b);
    }
    return t;
  }

  std::unique_ptr<cfg::ProgramImage> image;
  RoutineId helper = 0, caller_a = 0, caller_b = 0;
};

ReplicationParams eager_params() {
  ReplicationParams params;
  params.min_routine_weight = 0.0001;
  params.min_call_sites = 2;
  params.max_code_growth = 4.0;
  return params;
}

TEST(ReplicatorTest, ClonesHotSharedRoutinePerCallSite) {
  Fixture f;
  profile::Profile prof(*f.image);
  const auto t = f.record(50, &prof);
  const Replicator repl(*f.image, prof, eager_params());
  EXPECT_EQ(repl.num_cloned_routines(), 1u);
  EXPECT_EQ(repl.num_clones(), 2u);  // one per call site
  EXPECT_GT(repl.code_growth(), 1.0);
  // Original block ids unchanged in the extended image.
  for (BlockId b = 0; b < f.image->num_blocks(); ++b) {
    EXPECT_EQ(repl.image().block(b).name, f.image->block(b).name);
    EXPECT_EQ(repl.image().block(b).insns, f.image->block(b).insns);
    EXPECT_EQ(repl.image().block(b).kind, f.image->block(b).kind);
  }
}

TEST(ReplicatorTest, TransformRoutesActivationsToTheirClones) {
  Fixture f;
  profile::Profile prof(*f.image);
  const auto t = f.record(10, &prof);
  const Replicator repl(*f.image, prof, eager_params());
  const auto transformed = repl.transform(t);
  ASSERT_EQ(transformed.num_events(), t.num_events());

  // Collect the helper-entry ids observed after each caller's call block.
  const BlockId site_a = f.image->block_id(f.caller_a, "entry");
  const BlockId site_b = f.image->block_id(f.caller_b, "entry");
  BlockId after_a = cfg::kInvalidBlock;
  BlockId after_b = cfg::kInvalidBlock;
  BlockId prev = cfg::kInvalidBlock;
  transformed.for_each([&](BlockId cur) {
    if (prev == site_a) after_a = cur;
    if (prev == site_b) after_b = cur;
    prev = cur;
  });
  // Each call site gets its own helper copy, and neither is the original.
  EXPECT_NE(after_a, after_b);
  EXPECT_NE(after_a, f.image->block_id(f.helper, "entry"));
  EXPECT_NE(after_b, f.image->block_id(f.helper, "entry"));
  // Clone blocks mirror the helper's shape.
  EXPECT_EQ(repl.image().block(after_a).name, "entry");
  EXPECT_EQ(repl.image().block(after_a).insns, 2);
}

TEST(ReplicatorTest, TransformPreservesInstructionCount) {
  Fixture f;
  profile::Profile prof(*f.image);
  const auto t = f.record(25, &prof);
  const Replicator repl(*f.image, prof, eager_params());
  const auto transformed = repl.transform(t);
  const auto orig_layout = cfg::AddressMap::original(*f.image);
  const auto repl_layout = cfg::AddressMap::original(repl.image());
  const auto before = sim::replay_sequentiality(
      testing::make_plan(t, *f.image, orig_layout, 0));
  const auto after = sim::replay_sequentiality(
      testing::make_plan(transformed, repl.image(), repl_layout, 0));
  EXPECT_EQ(before.instructions, after.instructions);
  EXPECT_EQ(before.dynamic_blocks, after.dynamic_blocks);
}

TEST(ReplicatorTest, NoQualifyingRoutinesMeansIdentity) {
  Fixture f;
  profile::Profile prof(*f.image);
  const auto t = f.record(5, &prof);
  ReplicationParams params;
  params.min_routine_weight = 0.99;  // nothing qualifies
  const Replicator repl(*f.image, prof, params);
  EXPECT_EQ(repl.num_clones(), 0u);
  const auto transformed = repl.transform(t);
  trace::BlockTrace::Cursor a(t);
  trace::BlockTrace::Cursor b(transformed);
  while (!a.done()) ASSERT_EQ(a.next(), b.next());
}

TEST(ReplicatorTest, GrowthBudgetCapsClones) {
  Fixture f;
  profile::Profile prof(*f.image);
  const auto t = f.record(50, &prof);
  ReplicationParams params = eager_params();
  params.max_code_growth = 1.0;  // no budget at all
  const Replicator repl(*f.image, prof, params);
  EXPECT_EQ(repl.num_clones(), 0u);
}

TEST(ReplicatorTest, ReplicationUnlocksSequentiality) {
  Fixture f;
  profile::Profile prof(*f.image);
  const auto t = f.record(50, &prof);
  const Replicator repl(*f.image, prof, eager_params());
  const auto transformed = repl.transform(t);

  // Rebuild profiles and STC layouts for both programs.
  profile::Profile prof_before(*f.image);
  prof_before.consume(t);
  profile::Profile prof_after(repl.image());
  prof_after.consume(transformed);
  StcParams stc;
  stc.cache_bytes = 1024;
  stc.cfa_bytes = 256;
  const auto before_layout =
      stc_layout(profile::WeightedCFG::from_profile(prof_before),
                 SeedKind::kAuto, stc)
          .layout;
  const auto after_layout =
      stc_layout(profile::WeightedCFG::from_profile(prof_after),
                 SeedKind::kAuto, stc)
          .layout;
  const auto before = sim::replay_sequentiality(
      testing::make_plan(t, *f.image, before_layout, 0));
  const auto after = sim::replay_sequentiality(
      testing::make_plan(transformed, repl.image(), after_layout, 0));
  // Without clones, at most one call site can fall through into the helper;
  // with per-site copies both can.
  EXPECT_LT(after.taken_transitions, before.taken_transitions);
}

TEST(ReplicatorTest, RecursionThroughDispatcherIsHandled) {
  // r calls itself through a trampoline: t(entry kCall) -> r. The
  // transformer's activation stack must keep clone deltas per activation.
  cfg::ProgramBuilder b;
  const cfg::ModuleId m = b.module("mod");
  const RoutineId tramp = b.routine("tramp", m,
                                    {{"entry", 2, BlockKind::kCall},
                                     {"ret", 2, BlockKind::kReturn}});
  const RoutineId rec = b.routine("rec", m,
                                  {{"entry", 2, BlockKind::kBranch},
                                   {"again", 2, BlockKind::kCall},
                                   {"ret", 2, BlockKind::kReturn}});
  auto image = b.build();

  trace::BlockTrace t;
  trace::TraceRecorder recorder(t);
  profile::Profile prof(*image);
  cfg::TeeSink tee;
  tee.add(&recorder);
  tee.add(&prof);
  cfg::ExecContext ctx(*image, &tee, true);

  // tramp -> rec -> (tramp -> rec)* bounded depth, repeated.
  struct Runner {
    const cfg::ProgramImage& im;
    RoutineId tramp, rec;
    cfg::ExecContext& ctx;
    void run_tramp(int depth) {
      cfg::RoutineScope scope(ctx, tramp);
      ctx.bb(im.block_id(tramp, "entry"));
      run_rec(depth);
      ctx.bb(im.block_id(tramp, "ret"));
    }
    void run_rec(int depth) {
      cfg::RoutineScope scope(ctx, rec);
      ctx.bb(im.block_id(rec, "entry"));
      if (depth > 0) {
        ctx.bb(im.block_id(rec, "again"));
        run_tramp(depth - 1);
      }
      ctx.bb(im.block_id(rec, "ret"));
    }
  } runner{*image, tramp, rec, ctx};
  for (int i = 0; i < 20; ++i) runner.run_tramp(3);

  ReplicationParams params;
  params.min_routine_weight = 0.0001;
  params.min_call_sites = 1;
  params.max_code_growth = 4.0;
  const Replicator repl(*image, prof, params);
  const auto transformed = repl.transform(t);
  ASSERT_EQ(transformed.num_events(), t.num_events());
  // Every transformed id must be a valid block of the extended image and
  // preserve the original block shape.
  trace::BlockTrace::Cursor orig_cursor(t);
  transformed.for_each([&](BlockId cur) {
    const BlockId orig = orig_cursor.next();
    ASSERT_LT(cur, repl.image().num_blocks());
    EXPECT_EQ(repl.image().block(cur).insns, image->block(orig).insns);
    EXPECT_EQ(repl.image().block(cur).kind, image->block(orig).kind);
    EXPECT_EQ(repl.image().block(cur).name, image->block(orig).name);
  });
}

}  // namespace
}  // namespace stc::core
