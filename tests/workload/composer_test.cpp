// Unit and property tests for the multi-tenant composer (src/workload):
// exact round-robin scheduling, event conservation under every arrival
// model, determinism under a seed (including across concurrent callers),
// the tenants=1 byte-identity lock the acceptance criteria pin, and
// structured fault behaviour (no partial trace escapes a mid-compose or
// mid-write fault).
#include "workload/composer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "support/error.h"
#include "support/faultpoint.h"
#include "trace/block_trace.h"

namespace stc::workload {
namespace {

// A recognizable per-tenant stream: tenant `base` emits base*100 + i for
// event i, so any reordering or cross-tenant mixup changes the bytes.
trace::BlockTrace ramp_trace(std::uint32_t base, std::uint64_t events) {
  trace::BlockTrace trace;
  for (std::uint64_t i = 0; i < events; ++i) {
    trace.append(static_cast<cfg::BlockId>(base * 100 + i));
  }
  return trace;
}

std::vector<TenantStream> ramp_streams(
    const std::vector<std::uint64_t>& sizes) {
  std::vector<TenantStream> streams;
  for (std::uint32_t t = 0; t < sizes.size(); ++t) {
    streams.push_back(
        {std::string("t").append(std::to_string(t)), ramp_trace(t, sizes[t])});
  }
  return streams;
}

std::vector<cfg::BlockId> events_of(const trace::BlockTrace& trace) {
  std::vector<cfg::BlockId> out;
  trace.for_each([&](cfg::BlockId b) { out.push_back(b); });
  return out;
}

constexpr ArrivalKind kAllArrivals[] = {
    ArrivalKind::kRoundRobin, ArrivalKind::kPoisson, ArrivalKind::kBursty,
    ArrivalKind::kDiurnal};

TEST(ComposerTest, ParseArrivalRoundTrips) {
  for (const ArrivalKind kind : kAllArrivals) {
    const Result<ArrivalKind> parsed = parse_arrival(to_string(kind));
    ASSERT_TRUE(parsed.is_ok()) << to_string(kind);
    EXPECT_EQ(parsed.value(), kind);
  }
  const Result<ArrivalKind> bad = parse_arrival("fifo");
  ASSERT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.status().code(), ErrorCode::kInvalidArgument);
}

TEST(ComposerTest, RoundRobinInterleavesAtExactQuantum) {
  ComposeParams params;
  params.quantum_events = 2;
  params.arrival = ArrivalKind::kRoundRobin;
  Result<ComposedTrace> composed = compose(ramp_streams({6, 6}), params);
  ASSERT_TRUE(composed.is_ok()) << composed.status().to_string();
  const ComposedTrace& out = composed.value();
  const std::vector<cfg::BlockId> expected = {0,   1,   100, 101, 2,   3,
                                              102, 103, 4,   5,   104, 105};
  EXPECT_EQ(events_of(out.trace), expected);
  ASSERT_EQ(out.segments.size(), 6u);
  for (std::size_t i = 0; i < out.segments.size(); ++i) {
    EXPECT_EQ(out.segments[i].tenant, i % 2) << "segment " << i;
    EXPECT_EQ(out.segments[i].events, 2u) << "segment " << i;
  }
  EXPECT_EQ(out.context_switches, 5u);
}

TEST(ComposerTest, ConservationHoldsUnderEveryArrivalModel) {
  const std::vector<std::uint64_t> sizes = {100, 7, 53, 260};
  const auto streams = ramp_streams(sizes);
  for (const ArrivalKind kind : kAllArrivals) {
    ComposeParams params;
    params.quantum_events = 5;
    params.arrival = kind;
    Result<ComposedTrace> composed = compose(streams, params);
    ASSERT_TRUE(composed.is_ok()) << to_string(kind);
    const ComposedTrace& out = composed.value();

    std::uint64_t total = 0;
    for (std::size_t t = 0; t < sizes.size(); ++t) {
      EXPECT_EQ(out.tenant_events[t], sizes[t])
          << to_string(kind) << " tenant " << t;
      total += sizes[t];
    }
    EXPECT_EQ(out.trace.num_events(), total) << to_string(kind);

    // Segment provenance tiles the composed trace exactly, with merged
    // (never adjacent-equal) tenants, and replays every stream in order.
    std::uint64_t segment_total = 0;
    std::vector<std::uint64_t> per_tenant(sizes.size(), 0);
    for (std::size_t i = 0; i < out.segments.size(); ++i) {
      EXPECT_GT(out.segments[i].events, 0u);
      if (i > 0) {
        EXPECT_NE(out.segments[i].tenant, out.segments[i - 1].tenant)
            << to_string(kind) << " segment " << i;
      }
      segment_total += out.segments[i].events;
      per_tenant[out.segments[i].tenant] += out.segments[i].events;
    }
    EXPECT_EQ(segment_total, total) << to_string(kind);
    EXPECT_EQ(per_tenant, out.tenant_events) << to_string(kind);
    EXPECT_EQ(out.context_switches,
              out.segments.empty() ? 0 : out.segments.size() - 1);

    // Projecting the composed trace through the segments recovers each
    // input stream byte for byte.
    std::vector<std::vector<cfg::BlockId>> projected(sizes.size());
    const std::vector<cfg::BlockId> all = events_of(out.trace);
    std::size_t pos = 0;
    for (const TenantSegment& seg : out.segments) {
      for (std::uint64_t i = 0; i < seg.events; ++i) {
        projected[seg.tenant].push_back(all[pos++]);
      }
    }
    for (std::size_t t = 0; t < sizes.size(); ++t) {
      EXPECT_EQ(projected[t], events_of(streams[t].trace))
          << to_string(kind) << " tenant " << t;
    }
  }
}

TEST(ComposerTest, SameSeedIsByteIdenticalAcrossConcurrentCallers) {
  const auto streams = ramp_streams({40, 90, 17});
  ComposeParams params;
  params.quantum_events = 3;
  params.arrival = ArrivalKind::kPoisson;
  params.seed = 42;

  const auto reference = compose(streams, params);
  ASSERT_TRUE(reference.is_ok());
  const std::vector<std::uint8_t> expected =
      reference.value().trace.serialize();

  // The composer keeps no hidden global state: four concurrent compositions
  // of the same input are all byte-identical to the serial reference.
  std::vector<std::vector<std::uint8_t>> got(4);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < got.size(); ++i) {
    threads.emplace_back([&, i] {
      const auto composed = compose(streams, params);
      if (composed.is_ok()) got[i] = composed.value().trace.serialize();
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expected) << "thread " << i;
  }

  // A different seed schedules differently (the streams carry distinct
  // block ids, so a different interleave changes the bytes).
  ComposeParams reseeded = params;
  reseeded.seed = 43;
  const auto other = compose(streams, reseeded);
  ASSERT_TRUE(other.is_ok());
  EXPECT_NE(other.value().trace.serialize(), expected);
}

TEST(ComposerTest, SingleTenantCompositionIsByteIdentical) {
  const trace::BlockTrace input = ramp_trace(3, 257);
  std::vector<TenantStream> streams;
  streams.push_back({"only", ramp_trace(3, 257)});
  for (const ArrivalKind kind : kAllArrivals) {
    for (const std::uint64_t quantum : {std::uint64_t{0}, std::uint64_t{7}}) {
      ComposeParams params;
      params.quantum_events = quantum;
      params.arrival = kind;
      Result<ComposedTrace> composed = compose(streams, params);
      ASSERT_TRUE(composed.is_ok()) << to_string(kind);
      const ComposedTrace& out = composed.value();
      EXPECT_EQ(out.trace.serialize(), input.serialize())
          << to_string(kind) << " quantum " << quantum;
      ASSERT_EQ(out.segments.size(), 1u);
      EXPECT_EQ(out.segments[0].tenant, 0u);
      EXPECT_EQ(out.segments[0].events, input.num_events());
      EXPECT_EQ(out.context_switches, 0u);
    }
  }
}

TEST(ComposerTest, ZeroQuantumRoundRobinConcatenatesInStreamOrder) {
  const auto streams = ramp_streams({5, 3, 4});
  ComposeParams params;
  params.quantum_events = 0;
  params.arrival = ArrivalKind::kRoundRobin;
  Result<ComposedTrace> composed = compose(streams, params);
  ASSERT_TRUE(composed.is_ok());

  trace::BlockTrace expected;
  for (const TenantStream& s : streams) {
    s.trace.for_each([&](cfg::BlockId b) { expected.append(b); });
  }
  EXPECT_EQ(composed.value().trace.serialize(), expected.serialize());
  EXPECT_EQ(composed.value().context_switches, 2u);
}

TEST(ComposerTest, EmptyAndOversizedStreamListsAreStructuredErrors) {
  const Result<ComposedTrace> none = compose({}, ComposeParams{});
  ASSERT_FALSE(none.is_ok());
  EXPECT_EQ(none.status().code(), ErrorCode::kInvalidArgument);

  std::vector<TenantStream> too_many;
  for (int i = 0; i < 65; ++i) too_many.push_back({"t", ramp_trace(0, 1)});
  const Result<ComposedTrace> overflow = compose(too_many, ComposeParams{});
  ASSERT_FALSE(overflow.is_ok());
  EXPECT_EQ(overflow.status().code(), ErrorCode::kInvalidArgument);
}

TEST(ComposerTest, EmptyTenantStreamsContributeNothing) {
  auto streams = ramp_streams({4, 0, 2});
  ComposeParams params;
  params.quantum_events = 0;
  params.arrival = ArrivalKind::kRoundRobin;
  Result<ComposedTrace> composed = compose(streams, params);
  ASSERT_TRUE(composed.is_ok());
  const ComposedTrace& out = composed.value();
  EXPECT_EQ(out.tenant_events[1], 0u);
  for (const TenantSegment& seg : out.segments) EXPECT_NE(seg.tenant, 1u);
  EXPECT_EQ(out.trace.num_events(), 6u);
}

// Fault-point tests own the process-global fault registry.
class ComposerFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::reset(); }
  void TearDown() override { fault::reset(); }
};

TEST_F(ComposerFaultTest, ArmedFaultFailsWithStructuredError) {
  fault::arm("workload.compose");
  const Result<ComposedTrace> composed =
      compose(ramp_streams({10, 10}), ComposeParams{});
  ASSERT_FALSE(composed.is_ok());
  EXPECT_EQ(composed.status().code(), ErrorCode::kFaultInjected);
  EXPECT_NE(composed.status().message().find("workload.compose"),
            std::string::npos);
}

TEST_F(ComposerFaultTest, MidComposeFaultFailsCleanly) {
  // The point fires once per scheduled slice; arming the 4th hit fails
  // mid-merge, after several slices have already been emitted. The Result
  // carries only the error — no partial ComposedTrace escapes.
  fault::arm("workload.compose", 4);
  ComposeParams params;
  params.quantum_events = 2;
  params.arrival = ArrivalKind::kRoundRobin;
  const Result<ComposedTrace> composed =
      compose(ramp_streams({10, 10}), params);
  ASSERT_FALSE(composed.is_ok());
  EXPECT_EQ(composed.status().code(), ErrorCode::kFaultInjected);
  // The registry entry was consumed: a retry succeeds in full.
  const Result<ComposedTrace> retry = compose(ramp_streams({10, 10}), params);
  ASSERT_TRUE(retry.is_ok());
  EXPECT_EQ(retry.value().trace.num_events(), 20u);
}

TEST_F(ComposerFaultTest, ComposeToFileLeavesNoFileOnComposeFault) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "composed_fault.trace")
          .string();
  std::filesystem::remove(path);
  fault::arm("workload.compose", 3);
  ComposeParams params;
  params.quantum_events = 2;
  const Status status = compose_to_file(ramp_streams({10, 10}), params, path);
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), ErrorCode::kFaultInjected);
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST_F(ComposerFaultTest, ComposeToFileLeavesNoFileOnWriteFault) {
  // Composition succeeds in memory; the atomic save's rename step fails.
  // The temp-plus-rename discipline means no file appears at `path`.
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "composed_rename.trace")
          .string();
  std::filesystem::remove(path);
  fault::arm("trace.save.rename");
  const Status status =
      compose_to_file(ramp_streams({10, 10}), ComposeParams{}, path);
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), ErrorCode::kFaultInjected);
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST_F(ComposerFaultTest, ComposeToFileRoundTripsThroughDisk) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "composed_ok.trace")
          .string();
  ComposeParams params;
  params.quantum_events = 3;
  params.arrival = ArrivalKind::kBursty;
  const auto streams = ramp_streams({25, 13});
  ASSERT_TRUE(compose_to_file(streams, params, path).is_ok());
  Result<trace::BlockTrace> loaded = trace::BlockTrace::load(path);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  const auto composed = compose(streams, params);
  ASSERT_TRUE(composed.is_ok());
  EXPECT_EQ(loaded.value().serialize(), composed.value().trace.serialize());
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace stc::workload
