// Property: with the perfect predictor (the default STC_BPRED) the bench
// measurement cells, which run the speculative front end's Engine policy,
// are byte-identical to cells rebuilt from the paper's simulators
// (sim::run_seq3 / sim::run_trace_cache, the NoFrontEnd policy) — the
// speculative front end cannot perturb the paper's reproduced numbers.
// Compares serialized results_json, so metrics, counters, key order and
// formatting are all covered.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "cfg/address_map.h"
#include "sim/fetch_unit.h"
#include "sim/icache.h"
#include "sim/trace_cache.h"
#include "support/experiment.h"
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

// The baseline cells re-derive the plain Table 4 measurement from the
// simulators directly, in the bench cells' metric and counter order.
TEST(BpredEquivalenceTest, TransparentFrontEndLeavesSeq3CellsByteIdentical) {
  if (!bench::backend_params().off()) {
    GTEST_SKIP() << "STC_BACKEND is set; the seq3 cells run the back end";
  }
  const sim::CacheGeometry geometry{1024, 32, 1};
  const frontend::FrontEndParams transparent;
  ASSERT_TRUE(transparent.transparent());
  const std::string baseline = grid_json(
      [&](const trace::BlockTrace& t, const cfg::ProgramImage& i,
          const cfg::AddressMap& l) {
        sim::ICache cache(geometry);
        const sim::FetchResult sim = sim::run_seq3(
            testing::make_plan(t, i, l, geometry.line_bytes),
            sim::FetchParams{}, &cache);
        ExperimentResult result;
        result.metric("ipc", sim.ipc());
        sim.export_counters(result.counters());
        cache.stats().export_counters(result.counters());
        result.counters().add("blocks", t.num_events());
        return result;
      });
  const std::string frontend = grid_json(
      [&](const trace::BlockTrace& t, const cfg::ProgramImage& i,
          const cfg::AddressMap& l) {
        return bench::measure_seq3(t, i, l, geometry, /*perfect=*/false,
                                   transparent);
      });
  EXPECT_EQ(baseline, frontend);
}

TEST(BpredEquivalenceTest, TransparentFrontEndLeavesTraceCacheCellsByteIdentical) {
  const sim::CacheGeometry geometry{1024, 32, 1};
  const sim::TraceCacheParams tc;
  const frontend::FrontEndParams transparent;
  const std::string baseline = grid_json(
      [&](const trace::BlockTrace& t, const cfg::ProgramImage& i,
          const cfg::AddressMap& l) {
        sim::ICache cache(geometry);
        const sim::FetchResult sim = sim::run_trace_cache(
            testing::make_plan(t, i, l, geometry.line_bytes),
            sim::FetchParams{}, tc, &cache);
        ExperimentResult result;
        result.metric("ipc", sim.ipc());
        result.metric("tc_hit_pct", 100.0 * sim.tc_hit_ratio());
        sim.export_counters(result.counters());
        cache.stats().export_counters(result.counters());
        result.counters().add("blocks", t.num_events());
        return result;
      });
  const std::string frontend = grid_json(
      [&](const trace::BlockTrace& t, const cfg::ProgramImage& i,
          const cfg::AddressMap& l) {
        return bench::measure_tc(t, i, l, geometry, tc, /*perfect=*/false,
                                 transparent);
      });
  EXPECT_EQ(baseline, frontend);
}

}  // namespace
}  // namespace stc
