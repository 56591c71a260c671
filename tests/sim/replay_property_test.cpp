// Property tests for the replay engine's containers: chunk-batched slab
// decode (boundary shapes: empty traces, single events, chunk-straddling
// runs), compiled-table construction (deterministic across thread counts),
// and the replay.compile faultpoint's structured, retryable failure.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "cfg/address_map.h"
#include "sim/replay.h"
#include "support/faultpoint.h"
#include "support/rng.h"
#include "testing/synthetic.h"
#include "trace/block_trace.h"

namespace stc::sim {
namespace {

std::vector<cfg::BlockId> reference_events(const trace::BlockTrace& trace) {
  std::vector<cfg::BlockId> out;
  trace.for_each([&](cfg::BlockId b) { out.push_back(b); });
  return out;
}

void expect_slab_equals_trace(const trace::BlockTrace& trace) {
  const std::vector<cfg::BlockId> expected = reference_events(trace);
  EventSlab slab;
  slab.build(trace);
  ASSERT_EQ(slab.size(), expected.size());
  cfg::BlockId max_id = 0;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(slab[i], expected[i]) << "event " << i;
    max_id = std::max(max_id, expected[i]);
  }
  EXPECT_EQ(slab.max_id(), max_id);

  // decode_chunk must partition the same sequence: the per-chunk event
  // counts sum to the total and the concatenation is identical.
  std::vector<cfg::BlockId> concatenated;
  std::size_t counted = 0;
  for (std::size_t c = 0; c < trace.num_chunks(); ++c) {
    counted += trace.decode_chunk(c, concatenated);
  }
  EXPECT_EQ(counted, expected.size());
  EXPECT_EQ(concatenated, expected);
}

TEST(EventSlabTest, EmptyTrace) {
  trace::BlockTrace trace;
  expect_slab_equals_trace(trace);
  EventSlab slab;
  slab.build(trace);
  EXPECT_EQ(slab.size(), 0u);
  EXPECT_EQ(slab.max_id(), 0u);
}

TEST(EventSlabTest, SingleEvent) {
  trace::BlockTrace trace;
  trace.append(42);
  expect_slab_equals_trace(trace);
}

TEST(EventSlabTest, SingleEventPerChunkExtremes) {
  // One huge id then zero: large svarint deltas in a tiny chunk.
  trace::BlockTrace trace;
  trace.append(0x00ffffff);
  trace.append(0);
  trace.append(0x00ffffff);
  expect_slab_equals_trace(trace);
}

TEST(EventSlabTest, EventsStraddlingChunkBoundaries) {
  // Push well past one 64KB chunk so multiple chunks exist, with deltas
  // mixing 1-byte and multi-byte varints right around the split points.
  Rng rng(99);
  trace::BlockTrace trace;
  std::uint32_t id = 0;
  while (trace.byte_size() < (1u << 16) * 3 + 777) {
    if (rng.chance(0.05)) {
      id = static_cast<std::uint32_t>(rng.uniform(1u << 22));
    } else {
      const std::int64_t next =
          static_cast<std::int64_t>(id) + rng.uniform_range(-100, 100);
      id = static_cast<std::uint32_t>(std::max<std::int64_t>(0, next));
    }
    trace.append(id);
  }
  ASSERT_GT(trace.num_chunks(), 2u);
  expect_slab_equals_trace(trace);
}

TEST(EventSlabTest, MaxSizeChunksOfIdenticalIds) {
  // Identical ids delta-encode to one byte each, producing maximally full
  // chunks; the chunk boundary falls mid-run of equal values.
  trace::BlockTrace trace;
  for (int i = 0; i < 200000; ++i) trace.append(7);
  ASSERT_GT(trace.num_chunks(), 1u);
  expect_slab_equals_trace(trace);
}

// Compiled-table construction is pure: plans built concurrently from many
// threads (any thread count) are identical table for table.
TEST(CompiledTableTest, DeterministicAcrossThreadCounts) {
  Rng rng(4242);
  const auto image = testing::random_image(rng, 40);
  const trace::BlockTrace trace = testing::random_trace(*image, rng, 4000);
  const cfg::AddressMap layout = cfg::AddressMap::original(*image);
  constexpr std::uint32_t kLine = 32;

  const auto fingerprint = [&](const ReplayPlan& plan) {
    std::vector<std::uint64_t> fp;
    const BlockMetaTable& meta = plan.meta();
    const CompiledTable& table = plan.compiled();
    for (cfg::BlockId b = 0; b < meta.size(); ++b) {
      fp.push_back(meta.addr(b));
      fp.push_back(meta.end_addr(b));
      fp.push_back(meta.insns(b));
      fp.push_back(table.first_line(b));
      fp.push_back(table.last_line(b));
    }
    return fp;
  };

  Result<ReplayPlan> reference = build_replay_plan(
      ReplayMode::kCompiled, trace, *image, layout, kLine);
  ASSERT_TRUE(reference.is_ok());
  const std::vector<std::uint64_t> expected = fingerprint(reference.value());

  for (const int nthreads : {1, 2, 4, 8}) {
    std::vector<std::vector<std::uint64_t>> got(
        static_cast<std::size_t>(nthreads));
    std::vector<std::thread> threads;
    for (int t = 0; t < nthreads; ++t) {
      threads.emplace_back([&, t] {
        Result<ReplayPlan> plan = build_replay_plan(
            ReplayMode::kCompiled, trace, *image, layout, kLine);
        if (plan.is_ok()) got[static_cast<std::size_t>(t)] =
            fingerprint(plan.value());
      });
    }
    for (std::thread& t : threads) t.join();
    for (int t = 0; t < nthreads; ++t) {
      EXPECT_EQ(got[static_cast<std::size_t>(t)], expected)
          << nthreads << " threads, thread " << t;
    }
  }
}

// The plan cache keys on CONTENT, not object addresses. Regression: the
// ablate benches rebuild layouts per cell and the allocator recycles the
// dead layout's address, so an address-keyed cache served a stale plan
// (caught by the STC_VERIFY cross-check as diverging miss counts; the feed
// check, verify::check_plan_feed, catches the same class).
// Mutating a layout in place — same address, new content — is the
// deterministic version of that aliasing.
TEST(ReplayPlanCacheTest, KeysOnContentNotAddress) {
  Rng rng(6060);
  const auto image = testing::random_image(rng, 10);
  const trace::BlockTrace trace = testing::random_trace(*image, rng, 500);
  cfg::AddressMap layout = cfg::AddressMap::original(*image);

  ReplayPlanCache cache;
  const ReplayPlan* before = cache.get(trace, *image, layout, 32).value();
  ASSERT_NE(before, nullptr);
  const std::uint64_t addr0 = before->meta().addr(0);

  // Identical content at a different address must hit the same entry.
  const cfg::AddressMap copy = layout;
  EXPECT_EQ(cache.get(trace, *image, copy, 32).value(), before);

  // Same address, shifted content: must be a fresh plan with the shifted
  // addresses, not the memoized stale one.
  for (cfg::BlockId b = 0; b < layout.size(); ++b) {
    layout.set(b, layout.addr(b) + 1024);
  }
  const ReplayPlan* after = cache.get(trace, *image, layout, 32).value();
  ASSERT_NE(after, nullptr);
  EXPECT_NE(after, before);
  EXPECT_EQ(after->meta().addr(0), addr0 + 1024);
}

// The compiled tables specialize for one line size, so two line sizes over
// the same (trace, image, layout) must get distinct plans.
TEST(ReplayPlanCacheTest, DistinctLineSizesGetDistinctPlans) {
  Rng rng(6161);
  const auto image = testing::random_image(rng, 10);
  const trace::BlockTrace trace = testing::random_trace(*image, rng, 500);
  const cfg::AddressMap layout = cfg::AddressMap::original(*image);

  ReplayPlanCache cache;
  const ReplayPlan* a = cache.get(trace, *image, layout, 32).value();
  const ReplayPlan* b = cache.get(trace, *image, layout, 64).value();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  EXPECT_EQ(a->compiled().line_bytes(), 32u);
  EXPECT_EQ(b->compiled().line_bytes(), 64u);
}

// Two distinct enabled back-end specs bake different latencies into their
// compiled tables, so they must never share a cache entry; the same spec
// must keep hitting its own entry, and spec-less lookups keep the pre-spec
// key shape (fingerprint 0).
TEST(ReplayPlanCacheTest, KeysOnBackendSpec) {
  Rng rng(7070);
  const auto image = testing::random_image(rng, 10);
  const trace::BlockTrace trace = testing::random_trace(*image, rng, 500);
  const cfg::AddressMap layout = cfg::AddressMap::original(*image);

  BackendSpec spec_a;
  spec_a.enabled = true;
  BackendSpec spec_b = spec_a;
  spec_b.mem_latency += 2;

  ReplayPlanCache cache;
  const ReplayPlan* none = cache.get(trace, *image, layout, 32).value();
  const ReplayPlan* a = cache.get(trace, *image, layout, 32, spec_a).value();
  const ReplayPlan* b = cache.get(trace, *image, layout, 32, spec_b).value();
  ASSERT_NE(none, nullptr);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(none, a);
  EXPECT_NE(none, b);
  EXPECT_NE(a, b);
  EXPECT_FALSE(none->backend().valid());
  EXPECT_TRUE(a->backend().valid());
  EXPECT_EQ(a->backend().spec(), spec_a);
  EXPECT_EQ(b->backend().spec(), spec_b);
  // Repeat lookups hit their memoized entries.
  EXPECT_EQ(cache.get(trace, *image, layout, 32, spec_a).value(), a);
  EXPECT_EQ(cache.get(trace, *image, layout, 32).value(), none);
}

// The compiled back-end tables agree entry for entry with the shared cost
// helpers — the identity verify::check_plan_feed re-proves from the image
// and layout.
TEST(CompiledTableTest, BackendTableMatchesCostHelpers) {
  Rng rng(8080);
  const auto image = testing::random_image(rng, 12);
  const trace::BlockTrace trace = testing::random_trace(*image, rng, 400);
  const cfg::AddressMap layout = cfg::AddressMap::original(*image);

  BackendSpec spec;
  spec.enabled = true;
  spec.base_latency = 2;
  spec.mem_latency = 5;
  spec.size_shift = 1;
  Result<ReplayPlan> plan = build_replay_plan(ReplayMode::kCompiled, trace,
                                              *image, layout, 32, spec);
  ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
  const BackendTable& table = plan.value().backend();
  ASSERT_TRUE(table.valid());
  EXPECT_EQ(table.spec(), spec);
  const BlockMetaTable& meta = plan.value().meta();
  for (cfg::BlockId b = 0; b < meta.size(); ++b) {
    EXPECT_EQ(table.latency(b),
              backend_op_latency(spec, meta.insns(b), meta.kind(b)))
        << "block " << b;
    std::uint8_t dest, src1, src2;
    backend_op_regs(meta.addr(b), meta.insns(b), &dest, &src1, &src2);
    EXPECT_EQ(table.dest(b), dest) << "block " << b;
    EXPECT_EQ(table.src1(b), src1) << "block " << b;
    EXPECT_EQ(table.src2(b), src2) << "block " << b;
  }
}

// Faultpoint replay.compile: a failed compiled-table build surfaces as a
// structured error from build_replay_plan, the plan cache returns that
// error, and — because a failure is not cached — the next lookup rebuilds
// and succeeds once the one-shot fault has fired.
TEST(ReplayFaultTest, CompileFaultIsReturnedAndRetryRebuilds) {
  Rng rng(5050);
  const auto image = testing::random_image(rng, 10);
  const trace::BlockTrace trace = testing::random_trace(*image, rng, 500);
  const cfg::AddressMap layout = cfg::AddressMap::original(*image);

  fault::reset();
  fault::arm("replay.compile", 1);
  Result<ReplayPlan> direct =
      build_replay_plan(ReplayMode::kCompiled, trace, *image, layout, 32);
  EXPECT_FALSE(direct.is_ok());
  EXPECT_NE(direct.status().to_string().find("replay.compile"),
            std::string::npos)
      << direct.status().to_string();

  fault::reset();
  fault::arm("replay.compile", 1);
  ReplayPlanCache cache;
  const Result<const ReplayPlan*> failed = cache.get(trace, *image, layout, 32);
  ASSERT_FALSE(failed.is_ok());
  EXPECT_NE(failed.status().to_string().find("replay.compile"),
            std::string::npos)
      << failed.status().to_string();
  const Result<const ReplayPlan*> retried =
      cache.get(trace, *image, layout, 32);
  ASSERT_TRUE(retried.is_ok()) << retried.status().to_string();
  ASSERT_NE(retried.value(), nullptr);
  EXPECT_EQ(retried.value()->num_events(), trace.num_events());
  // The rebuilt plan is memoized like any other.
  EXPECT_EQ(cache.get(trace, *image, layout, 32).value(), retried.value());
  EXPECT_EQ(fault::hits("replay.compile"), 2u);
  fault::reset();
}

}  // namespace
}  // namespace stc::sim
