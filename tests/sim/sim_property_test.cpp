// Parameterized simulator invariants over random programs, traces and
// layouts: conservation of instruction counts, bandwidth bounds, cache
// accounting identities. These hold for ANY input, so they run across a
// family of random seeds. The oracle test at the end runs the full
// src/verify suite — independent line-probe recounts, observer-based cache
// cross-checks and counter identities — over every input.
#include <gtest/gtest.h>

#include "core/layouts.h"
#include "sim/fetch_unit.h"
#include "sim/icache.h"
#include "sim/replay.h"
#include "sim/trace_cache.h"
#include "support/rng.h"
#include "testing/plan.h"
#include "testing/synthetic.h"
#include "verify/oracle.h"

namespace stc::sim {
namespace {

struct PropertyInput {
  std::uint64_t seed;
  core::LayoutKind layout;
  std::uint32_t cache_bytes;
  std::uint32_t line_bytes;
  bool degenerate;  // use the degenerate program/profile families
};

class SimPropertyTest : public ::testing::TestWithParam<PropertyInput> {
 protected:
  void SetUp() override {
    const PropertyInput& p = GetParam();
    Rng rng(p.seed);
    if (p.degenerate) {
      const int family =
          1 + static_cast<int>(rng.uniform(testing::kNumDegenerateFamilies - 1));
      image = testing::degenerate_image(rng, family);
      wcfg = testing::degenerate_wcfg(*image, rng);
    } else {
      image = testing::random_image(rng, 60);
      wcfg = testing::random_wcfg(*image, rng);
    }
    trace = testing::random_trace(*image, rng, 20000);
    layout = std::make_unique<cfg::AddressMap>(core::make_layout(
        p.layout, wcfg, p.cache_bytes, p.cache_bytes / 4));
    plan = std::make_unique<ReplayPlan>(
        testing::make_plan(trace, *image, *layout, p.line_bytes));
    expected_insns = 0;
    trace.for_each(
        [&](cfg::BlockId b) { expected_insns += image->block(b).insns; });
  }

  std::unique_ptr<cfg::ProgramImage> image;
  profile::WeightedCFG wcfg;
  trace::BlockTrace trace;
  std::unique_ptr<cfg::AddressMap> layout;
  std::unique_ptr<ReplayPlan> plan;
  std::uint64_t expected_insns = 0;
};

TEST_P(SimPropertyTest, MissRateConservesInstructions) {
  const PropertyInput& p = GetParam();
  ICache cache({p.cache_bytes, p.line_bytes, 1});
  const MissRateResult result = replay_missrate(*plan, cache);
  EXPECT_EQ(result.instructions, expected_insns);
  EXPECT_LE(result.misses, result.line_accesses);
  EXPECT_EQ(result.line_accesses, cache.stats().accesses);
  EXPECT_EQ(result.misses, cache.stats().misses);
  const auto report =
      verify::check_missrate_result(result, cache.stats(), expected_insns);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST_P(SimPropertyTest, Seq3ConservesInstructionsAndBoundsIpc) {
  const PropertyInput& p = GetParam();
  FetchParams params;
  ICache cache({p.cache_bytes, p.line_bytes, 1});
  const FetchResult result = run_seq3(*plan, params, &cache);
  EXPECT_EQ(result.instructions, expected_insns);
  EXPECT_GE(result.cycles, result.fetch_requests);
  EXPECT_LE(result.ipc(), static_cast<double>(params.width));
  if (expected_insns > 0) {
    EXPECT_GT(result.ipc(), 0.0);
  }
  // Stall accounting: cycles = requests + penalty * missed requests.
  EXPECT_EQ(result.cycles,
            result.fetch_requests + params.miss_penalty * result.miss_requests);
  const auto report = verify::check_fetch_result(
      result, params, expected_insns, /*with_trace_cache=*/false);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST_P(SimPropertyTest, PerfectCacheIsAnUpperBound) {
  const PropertyInput& p = GetParam();
  FetchParams realistic;
  ICache cache({p.cache_bytes, p.line_bytes, 1});
  const double with_cache = run_seq3(*plan, realistic, &cache).ipc();
  FetchParams perfect;
  perfect.perfect_icache = true;
  const double ideal = run_seq3(*plan, perfect, nullptr).ipc();
  EXPECT_GE(ideal, with_cache);
}

TEST_P(SimPropertyTest, TraceCacheConservesInstructions) {
  const PropertyInput& p = GetParam();
  FetchParams params;
  TraceCacheParams tc;
  tc.entries = 32;
  ICache cache({p.cache_bytes, p.line_bytes, 1});
  const FetchResult result = run_trace_cache(*plan, params, tc, &cache);
  EXPECT_EQ(result.instructions, expected_insns);
  EXPECT_EQ(result.tc_hits + result.tc_misses, result.fetch_requests);
  EXPECT_EQ(result.tc_probes, result.tc_hits + result.tc_misses);
  EXPECT_LE(result.tc_fills, result.tc_probes);
  const auto report = verify::check_fetch_result(
      result, params, expected_insns, /*with_trace_cache=*/true);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST_P(SimPropertyTest, AssociativityNeverIncreasesMisses) {
  const PropertyInput& p = GetParam();
  // With full LRU and the same capacity, 2-way can in adversarial cases lose
  // to direct-mapped (Belady), but a fully-associative cache of the same
  // capacity never loses to direct-mapped on these streams... which is also
  // not guaranteed in general. What IS an invariant: doubling capacity at
  // fixed associativity cannot increase misses for LRU (stack property).
  ICache small({p.cache_bytes, p.line_bytes, 1});
  const auto small_result = replay_missrate(*plan, small);
  ICache big({p.cache_bytes * 2, p.line_bytes, 2});
  const auto big_result = replay_missrate(*plan, big);
  // LRU stack property holds for fully/set-assoc growth that keeps every
  // set a superset; (2x capacity, 2x assoc) has identical sets with double
  // the ways -> misses cannot increase.
  EXPECT_LE(big_result.misses, small_result.misses);
}

// The full oracle: structure + replay + all three simulators cross-checked
// against independent recounts, at this input's geometry.
TEST_P(SimPropertyTest, FullOracleIsClean) {
  const PropertyInput& p = GetParam();
  verify::OracleOptions options;
  options.geometry = {p.cache_bytes, p.line_bytes, 1};
  const auto report =
      verify::verify_layout(trace, *image, *layout, nullptr, options);
  EXPECT_TRUE(report.ok()) << report.summary();
}

std::vector<PropertyInput> inputs() {
  std::vector<PropertyInput> out;
  std::uint64_t seed = 9000;
  for (core::LayoutKind kind :
       {core::LayoutKind::kOrig, core::LayoutKind::kStcAuto,
        core::LayoutKind::kPettisHansen}) {
    for (std::uint32_t cache : {512u, 2048u}) {
      for (std::uint32_t line : {16u, 64u}) {
        // Two random-program seeds plus one degenerate-family seed per
        // geometry point.
        out.push_back({seed++, kind, cache, line, false});
        out.push_back({seed++, kind, cache, line, false});
        out.push_back({seed++, kind, cache, line, true});
      }
    }
  }
  return out;
}

std::string name(const ::testing::TestParamInfo<PropertyInput>& info) {
  std::string kind = core::to_string(info.param.layout);
  for (char& c : kind) {
    if (c == '&') c = 'n';
  }
  return kind + "_c" + std::to_string(info.param.cache_bytes) + "_l" +
         std::to_string(info.param.line_bytes) + "_s" +
         std::to_string(info.param.seed) +
         (info.param.degenerate ? "_degen" : "");
}

INSTANTIATE_TEST_SUITE_P(RandomInputs, SimPropertyTest,
                         ::testing::ValuesIn(inputs()), name);

}  // namespace
}  // namespace stc::sim
