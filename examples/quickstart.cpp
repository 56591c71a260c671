// Quickstart: the whole Software Trace Cache pipeline on a toy database.
//
//   1. build a small database and run a query workload while profiling,
//   2. build the STC layout from the profile,
//   3. replay the workload through the i-cache and fetch-unit simulators
//      under the original and the optimized layout.
//
// Build & run:  ./examples/quickstart
#include <cstdio>

#include "core/layouts.h"
#include "db/database.h"
#include "profile/profile.h"
#include "sim/fetch_unit.h"
#include "sim/icache.h"
#include "sim/replay.h"
#include "trace/block_trace.h"

using namespace stc;

int main() {
  // ---- 1. a tiny database ------------------------------------------------
  db::Database database(/*buffer_frames=*/64);
  db::TableInfo& items = database.create_table(
      "items", db::Schema({{"id", db::ValueType::kInt},
                           {"category", db::ValueType::kInt},
                           {"price", db::ValueType::kDouble}}));
  for (std::int64_t i = 0; i < 2000; ++i) {
    database.insert(items, {db::Value(i), db::Value(i % 8),
                            db::Value(9.99 + static_cast<double>(i % 50))});
  }
  database.create_index("items", "id", db::IndexKind::kBTree, true);

  // ---- 2. profile a workload ---------------------------------------------
  profile::Profile prof(db::kernel_image());
  trace::BlockTrace trace;
  trace::TraceRecorder recorder(trace);
  cfg::TeeSink tee;
  tee.add(&prof);
  tee.add(&recorder);
  database.kernel().set_sink(&tee);
  const char* workload[] = {
      "SELECT category, COUNT(*) AS n, SUM(price) AS total FROM items "
      "GROUP BY category ORDER BY category",
      "SELECT price FROM items WHERE id = 1234",
      "SELECT id FROM items WHERE price > 50.0 AND category = 3",
  };
  for (const char* sql : workload) {
    const db::QueryResult result = database.run_query(sql);
    std::printf("query -> %zu rows; plan:\n%s\n", result.rows.size(),
                result.plan_text.c_str());
  }
  database.kernel().set_sink(nullptr);
  std::printf("captured %llu basic-block events (%llu instructions)\n\n",
              static_cast<unsigned long long>(trace.num_events()),
              static_cast<unsigned long long>(prof.total_instructions()));

  // ---- 3. build layouts and simulate --------------------------------------
  const auto wcfg = profile::WeightedCFG::from_profile(prof);
  const std::uint32_t cache_bytes = 2048;
  const auto orig = core::make_layout(core::LayoutKind::kOrig, wcfg,
                                      cache_bytes, cache_bytes / 4);
  const auto stc_layout = core::make_layout(core::LayoutKind::kStcAuto, wcfg,
                                            cache_bytes, cache_bytes / 4);

  for (const auto* entry : {&orig, &stc_layout}) {
    // A replay plan resolves the trace under one layout and line size once;
    // every simulator reads it.
    const sim::ReplayPlan plan =
        sim::build_replay_plan(sim::ReplayMode::kCompiled, trace,
                               db::kernel_image(), *entry, /*line_bytes=*/32)
            .take();
    sim::ICache cache({cache_bytes, 32, 1});
    const auto miss = sim::replay_missrate(plan, cache);
    sim::FetchParams params;
    sim::ICache cache2({cache_bytes, 32, 1});
    const auto fetch = sim::run_seq3(plan, params, &cache2);
    std::printf("%-8s  miss/insn = %5.2f%%   fetch bandwidth = %4.2f IPC\n",
                entry->name().c_str(), miss.misses_per_100_insns(),
                fetch.ipc());
  }
  std::printf("\nThe profile-guided layout packs the hot query path, cutting\n"
              "i-cache misses and lengthening sequential fetch runs.\n");
  return 0;
}
