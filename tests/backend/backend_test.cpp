// Unit tests for the execution back end: parameter parsing and environment
// knobs, the BackendSpec cost model shared with the replay plans, and the
// issue/commit machine's scoreboard semantics (true dependencies stall,
// renamed hazards do not, in-order stops at the queue head, commit is
// strictly program order, the dispatch faultpoint surfaces structurally).
#include "backend/backend.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "backend/pipeline.h"
#include "support/faultpoint.h"
#include "support/rng.h"
#include "support/stats.h"
#include "testing/plan.h"
#include "testing/synthetic.h"

namespace stc::backend {
namespace {

// Sets one environment variable for the test's scope, restoring the previous
// value (or unsetting) on destruction.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      had_old_ = true;
      old_ = old;
    }
    if (value == nullptr) {
      ::unsetenv(name);
    } else {
      ::setenv(name, value, 1);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  bool had_old_ = false;
  std::string old_;
};

BackendParams ooo_params() {
  BackendParams p;
  p.kind = BackendKind::kOoo;
  return p;
}

BackendOp op(std::uint8_t dest, std::uint8_t src1, std::uint32_t latency = 1,
             std::uint32_t insns = 1, std::uint8_t src2 = 15) {
  BackendOp o;
  o.addr = 0;
  o.insns = insns;
  o.latency = latency;
  o.dest = dest;
  o.src1 = src1;
  o.src2 = src2;
  return o;
}

// Steps until the machine drains (bounded so a scheduling bug fails the
// test instead of hanging it). Returns the cycle count consumed.
std::uint64_t drain(Backend& be, std::uint64_t start = 0) {
  std::uint64_t now = start;
  for (; !be.empty() && now < start + 10000; ++now) be.step(now);
  EXPECT_TRUE(be.empty()) << "machine failed to drain";
  return now;
}

TEST(BackendParamsTest, ToStringAndParseRoundTrip) {
  for (const BackendKind kind :
       {BackendKind::kOff, BackendKind::kInOrder, BackendKind::kOoo}) {
    BackendKind parsed;
    ASSERT_TRUE(parse_backend(to_string(kind), &parsed)) << to_string(kind);
    EXPECT_EQ(parsed, kind);
  }
  BackendKind parsed;
  EXPECT_FALSE(parse_backend("tomasulo", &parsed));
  EXPECT_FALSE(parse_backend("Ooo", &parsed));
  EXPECT_FALSE(parse_backend("", &parsed));
}

TEST(BackendParamsTest, EnvironmentDefaultsAreOff) {
  ScopedEnv b("STC_BACKEND", nullptr);
  ScopedEnv iq("STC_IQ_DEPTH", nullptr);
  ScopedEnv rob("STC_ROB_DEPTH", nullptr);
  const Result<BackendParams> p = BackendParams::try_from_environment();
  ASSERT_TRUE(p.is_ok());
  EXPECT_TRUE(p.value().off());
  EXPECT_EQ(p.value().iq_depth, 16u);
  EXPECT_EQ(p.value().rob_depth, 64u);
}

TEST(BackendParamsTest, EnvironmentOverridesApply) {
  ScopedEnv b("STC_BACKEND", "ooo");
  ScopedEnv iq("STC_IQ_DEPTH", "8");
  ScopedEnv rob("STC_ROB_DEPTH", "24");
  const Result<BackendParams> p = BackendParams::try_from_environment();
  ASSERT_TRUE(p.is_ok());
  EXPECT_EQ(p.value().kind, BackendKind::kOoo);
  EXPECT_EQ(p.value().iq_depth, 8u);
  EXPECT_EQ(p.value().rob_depth, 24u);
}

TEST(BackendParamsTest, EnvironmentGarbageIsAStructuredError) {
  {
    ScopedEnv b("STC_BACKEND", "scoreboard");
    const Result<BackendParams> p = BackendParams::try_from_environment();
    ASSERT_FALSE(p.is_ok());
    EXPECT_NE(p.status().message().find("STC_BACKEND"), std::string::npos);
  }
  ScopedEnv b("STC_BACKEND", "ooo");
  ScopedEnv iq("STC_IQ_DEPTH", "0");
  const Result<BackendParams> p = BackendParams::try_from_environment();
  ASSERT_FALSE(p.is_ok());
  EXPECT_NE(p.status().message().find("STC_IQ_DEPTH"), std::string::npos);
}

TEST(BackendSpecTest, FingerprintSeparatesConfigsAndZeroesWhenDisabled) {
  sim::BackendSpec off;
  EXPECT_EQ(off.fingerprint(), 0u);
  sim::BackendSpec a;
  a.enabled = true;
  sim::BackendSpec b = a;
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a, b);
  b.mem_latency += 1;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  EXPECT_NE(a, b);
  sim::BackendSpec c = a;
  c.size_shift += 1;
  EXPECT_NE(a.fingerprint(), c.fingerprint());
  // A params struct projects into the spec used for plan keying.
  BackendParams p = ooo_params();
  p.mem_latency = a.mem_latency;
  p.base_latency = a.base_latency;
  p.size_shift = a.size_shift;
  EXPECT_EQ(p.spec(), a);
  EXPECT_TRUE(p.spec().enabled);
}

TEST(BackendSpecTest, OpLatencyFollowsCostModelAndClampsToOne) {
  sim::BackendSpec spec;
  spec.enabled = true;
  spec.base_latency = 1;
  spec.mem_latency = 3;
  spec.size_shift = 2;
  // base + insns/4, plus the memory charge only for call/return blocks.
  EXPECT_EQ(sim::backend_op_latency(spec, 1, cfg::BlockKind::kFallThrough),
            1u);
  EXPECT_EQ(sim::backend_op_latency(spec, 8, cfg::BlockKind::kBranch), 3u);
  EXPECT_EQ(sim::backend_op_latency(spec, 8, cfg::BlockKind::kCall), 6u);
  EXPECT_EQ(sim::backend_op_latency(spec, 8, cfg::BlockKind::kReturn), 6u);
  // A zero-base config still never produces a free op.
  spec.base_latency = 0;
  spec.mem_latency = 0;
  spec.size_shift = 20;
  EXPECT_EQ(sim::backend_op_latency(spec, 3, cfg::BlockKind::kFallThrough),
            1u);
}

TEST(BackendSpecTest, OpRegistersDeriveFromLayoutAddress) {
  std::uint8_t dest = 0xff, src1 = 0xff, src2 = 0xff;
  sim::backend_op_regs(/*addr=*/16, /*insns=*/4, &dest, &src1, &src2);
  // word = addr / 4 = 4: dest 4, src1 (4+4)%16, src2 (4/16+7)%16.
  EXPECT_EQ(dest, 4);
  EXPECT_EQ(src1, 8);
  EXPECT_EQ(src2, 7);
  for (std::uint64_t addr = 0; addr < 4096; addr += 52) {
    sim::backend_op_regs(addr, 13, &dest, &src1, &src2);
    EXPECT_LT(dest, sim::kBackendRegs);
    EXPECT_LT(src1, sim::kBackendRegs);
    EXPECT_LT(src2, sim::kBackendRegs);
  }
}

TEST(BackendTest, DispatchRespectsIqAndRobBounds) {
  BackendParams p = ooo_params();
  p.iq_depth = 2;
  p.rob_depth = 3;
  BackendStats stats;
  Backend be(p, &stats);
  ASSERT_TRUE(be.can_dispatch());
  be.dispatch(op(1, 2));
  be.dispatch(op(2, 3));
  // Two waiting ops fill the issue queue before the ROB fills.
  EXPECT_TRUE(be.iq_full());
  EXPECT_FALSE(be.rob_full());
  EXPECT_FALSE(be.can_dispatch());
  // Issuing frees IQ entries but not ROB entries.
  be.step(0);
  EXPECT_FALSE(be.iq_full());
  be.dispatch(op(3, 4));
  EXPECT_TRUE(be.rob_full());
  EXPECT_FALSE(be.can_dispatch());
  EXPECT_EQ(stats.iq_peak, 2u);
  EXPECT_EQ(stats.rob_peak, 3u);
  drain(be, 1);
}

TEST(BackendTest, TrueDependencyBlocksIssueUntilProducerCompletes) {
  BackendStats stats;
  Backend be(ooo_params(), &stats);
  be.dispatch(op(/*dest=*/1, /*src1=*/0, /*latency=*/3));
  be.dispatch(op(/*dest=*/2, /*src1=*/1));  // RAW on r1
  be.step(0);  // producer issues (done at cycle 3), consumer waits
  EXPECT_EQ(stats.issued_ops, 1u);
  EXPECT_EQ(be.iq_size(), 1u);
  be.step(1);
  be.step(2);
  EXPECT_EQ(stats.issued_ops, 1u);  // still waiting at cycles 1-2
  EXPECT_GE(stats.issue_stall_cycles, 2u);
  be.step(3);  // producer completes and retires; consumer issues
  EXPECT_EQ(stats.issued_ops, 2u);
  EXPECT_EQ(stats.retired_ops, 1u);
  drain(be, 4);
  EXPECT_EQ(stats.retired_ops, 2u);
}

TEST(BackendTest, WriteHazardsNeverStall) {
  BackendStats stats;
  Backend be(ooo_params(), &stats);
  // WAW: both write r1; WAR: the second reads r2 which the third writes.
  be.dispatch(op(/*dest=*/1, /*src1=*/0, /*latency=*/5));
  be.dispatch(op(/*dest=*/1, /*src1=*/2));
  be.dispatch(op(/*dest=*/2, /*src1=*/3));
  be.step(0);
  // Renamed-by-sequence dependence tracking: none of these wait.
  EXPECT_EQ(stats.issued_ops, 3u);
  EXPECT_EQ(be.iq_size(), 0u);
  drain(be, 1);
}

TEST(BackendTest, InOrderStopsAtNotReadyQueueHead) {
  BackendParams p = ooo_params();
  p.kind = BackendKind::kInOrder;
  BackendStats stats;
  Backend be(p, &stats);
  be.dispatch(op(/*dest=*/1, /*src1=*/0, /*latency=*/4));
  be.dispatch(op(/*dest=*/2, /*src1=*/1));  // blocked
  be.dispatch(op(/*dest=*/3, /*src1=*/4));  // ready
  be.step(0);
  EXPECT_EQ(stats.issued_ops, 1u);  // only the producer
  be.step(1);
  // The ready young op must NOT issue around the blocked head in order.
  EXPECT_EQ(stats.issued_ops, 1u);
  EXPECT_EQ(be.iq_size(), 2u);
  const std::uint64_t cycles = drain(be, 2);
  EXPECT_EQ(stats.issued_ops, 3u);
  EXPECT_GT(cycles, 4u);
}

TEST(BackendTest, OooIssuesAroundBlockedHead) {
  BackendStats stats;
  Backend be(ooo_params(), &stats);
  be.dispatch(op(/*dest=*/1, /*src1=*/0, /*latency=*/4));
  be.dispatch(op(/*dest=*/2, /*src1=*/1));  // blocked
  be.dispatch(op(/*dest=*/3, /*src1=*/4));  // ready
  be.step(0);
  EXPECT_EQ(stats.issued_ops, 2u);  // producer + independent young op
  EXPECT_EQ(be.iq_size(), 1u);
  drain(be, 1);
}

TEST(BackendTest, CommitObserverSeesStrictProgramOrder) {
  BackendParams p = ooo_params();
  p.iq_depth = 32;
  p.rob_depth = 32;
  p.commit_width = 2;
  BackendStats stats;
  Backend be(p, &stats);
  std::vector<std::uint64_t> committed;
  be.set_commit_observer(
      [&](const BackendOp& o) { committed.push_back(o.addr); });
  // Independent ops with wildly different latencies: out-of-order
  // completion, in-order retirement.
  std::vector<std::uint64_t> expected;
  for (std::uint64_t i = 0; i < 12; ++i) {
    BackendOp o = op(static_cast<std::uint8_t>(i % 8),
                     static_cast<std::uint8_t>(8 + i % 7),
                     /*latency=*/1 + ((i * 7) % 9));
    o.addr = 1000 + i * 4;
    expected.push_back(o.addr);
    be.dispatch(o);
  }
  drain(be);
  EXPECT_EQ(committed, expected);
}

TEST(BackendTest, StatsExportOrderIsStable) {
  BackendStats stats;
  stats.cycles = 1;
  CounterSet out;
  stats.export_counters(out);
  const std::vector<std::string> expected = {
      "be_cycles",          "be_retired_ops",
      "be_retired_insns",   "be_dispatched_ops",
      "be_issued_ops",      "be_iq_peak",
      "be_rob_peak",        "be_iq_occupancy",
      "be_rob_occupancy",   "be_frontend_stalls",
      "be_dispatch_stall_iq", "be_dispatch_stall_rob",
      "be_issue_stalls",    "be_empty_cycles"};
  ASSERT_EQ(out.items().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(out.items()[i].first, expected[i]) << "counter #" << i;
  }
}

// A random program's trace replayed through the default ooo pipeline.
struct PipelineRun {
  explicit PipelineRun(std::uint64_t events) {
    Rng rng(31);
    image = testing::random_image(rng, 20);
    trace = testing::random_trace(*image, rng, events);
    layout = cfg::AddressMap::original(*image);
    plan = std::make_unique<const sim::ReplayPlan>(
        testing::make_plan(trace, *image, layout, 0, ooo_params().spec()));
  }
  Result<BackendResult> run() const {
    sim::ICache cache({1024, 32, 1});
    return run_seq3_backend(*plan, sim::FetchParams{},
                            frontend::FrontEndParams{}, ooo_params(), &cache);
  }

  std::unique_ptr<cfg::ProgramImage> image;
  trace::BlockTrace trace;
  cfg::AddressMap layout;
  std::unique_ptr<const sim::ReplayPlan> plan;
};

CounterSet counters(const BackendResult& r) {
  CounterSet out;
  r.fetch.export_counters(out);
  r.frontend.export_counters(out);
  r.backend.export_counters(out);
  return out;
}

// Faultpoint "backend.dispatch" fires once per pipeline run: a faulted run
// returns a structured error naming the point, and the retry (the fault was
// one-shot) produces exactly a clean run's counters.
TEST(BackendTest, DispatchFaultpointSurfacesStructurally) {
  const PipelineRun p(2000);
  fault::reset();
  const Result<BackendResult> clean = p.run();
  ASSERT_TRUE(clean.is_ok()) << clean.status().to_string();
  fault::arm("backend.dispatch", 1);
  const Result<BackendResult> faulted = p.run();
  ASSERT_FALSE(faulted.is_ok());
  EXPECT_NE(faulted.status().to_string().find("backend.dispatch"),
            std::string::npos)
      << faulted.status().to_string();
  const Result<BackendResult> retried = p.run();
  ASSERT_TRUE(retried.is_ok()) << retried.status().to_string();
  EXPECT_EQ(counters(retried.value()).items(),
            counters(clean.value()).items());
  fault::reset();
}

// The point sits outside the per-op loop: one hit per run, however many ops
// the run dispatches.
TEST(BackendTest, DispatchFaultpointIsHitOncePerRun) {
  const PipelineRun p(12000);
  fault::reset();
  const Result<BackendResult> r = p.run();
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_GE(r.value().backend.dispatched_ops, 10000u);
  EXPECT_EQ(fault::hits("backend.dispatch"), 1u);
  fault::reset();
}

TEST(BackendTest, RetiredInsnsAccumulateBlockSizes) {
  BackendStats stats;
  Backend be(ooo_params(), &stats);
  be.dispatch(op(1, 2, 1, /*insns=*/7));
  be.dispatch(op(2, 3, 1, /*insns=*/5));
  drain(be);
  EXPECT_EQ(stats.retired_ops, 2u);
  EXPECT_EQ(stats.retired_insns, 12u);
  EXPECT_EQ(stats.dispatched_ops, 2u);
  EXPECT_EQ(stats.issued_ops, 2u);
}

}  // namespace
}  // namespace stc::backend
