// Layout explorer: compare the code layouts on the TPC-D workload for one
// cache geometry from the command line.
//
// Usage: layout_explorer [cache_kb] [cfa_fraction] [scale_factor]
//   e.g. layout_explorer 2 0.25 0.002
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "core/layouts.h"
#include "core/stc_layout.h"
#include "db/tpcd/workload.h"
#include "profile/profile.h"
#include "sim/fetch_unit.h"
#include "sim/icache.h"
#include "sim/replay.h"
#include "sim/trace_cache.h"
#include "support/table.h"

using namespace stc;

int main(int argc, char** argv) {
  const std::uint32_t cache_kb = argc > 1 ? std::atoi(argv[1]) : 2;
  const double cfa_fraction = argc > 2 ? std::atof(argv[2]) : 0.25;
  db::tpcd::WorkloadConfig config;
  if (argc > 3) config.scale_factor = std::atof(argv[3]);
  const std::uint32_t cache_bytes = cache_kb * 1024;
  const auto cfa_bytes =
      static_cast<std::uint32_t>(cfa_fraction * cache_bytes);

  std::printf("cache %uKB, CFA %uB, SF %.4g\n", cache_kb, cfa_bytes,
              config.scale_factor);
  auto btree = db::tpcd::make_database(config, db::IndexKind::kBTree);
  auto hash = db::tpcd::make_database(config, db::IndexKind::kHash);

  profile::Profile prof(db::kernel_image());
  db::tpcd::run_training_workload(*btree, &prof);
  trace::BlockTrace test;
  trace::TraceRecorder recorder(test);
  db::tpcd::run_test_workload(*btree, *hash, &recorder);
  const auto wcfg = profile::WeightedCFG::from_profile(prof);
  const auto& image = db::kernel_image();

  // Show the STC construction details for the chosen geometry.
  {
    core::StcParams params;
    params.cache_bytes = cache_bytes;
    params.cfa_bytes = cfa_bytes;
    const auto result = core::stc_layout(wcfg, core::SeedKind::kOps, params);
    std::printf(
        "stc-ops: fitted ExecThreshold=%llu, pass-1 fills %llu/%u CFA "
        "bytes, %zu passes, %zu sequences\n\n",
        static_cast<unsigned long long>(result.exec_threshold_pass1),
        static_cast<unsigned long long>(result.pass1_bytes), cfa_bytes,
        result.num_passes, result.num_sequences);
  }

  // The trace decodes once; each layout's replay plan shares the slab.
  auto slab = std::make_shared<sim::EventSlab>();
  slab->build(test);

  TextTable table;
  table.header({"layout", "miss/insn", "SEQ.3 IPC", "insn/taken", "TC IPC"});
  for (const auto kind :
       {core::LayoutKind::kOrig, core::LayoutKind::kPettisHansen,
        core::LayoutKind::kTorrellas, core::LayoutKind::kStcAuto,
        core::LayoutKind::kStcOps}) {
    const auto layout = core::make_layout(kind, wcfg, cache_bytes, cfa_bytes);
    const sim::ReplayPlan plan =
        sim::build_replay_plan(sim::ReplayMode::kCompiled, slab, image, layout,
                               /*line_bytes=*/32)
            .take();
    sim::ICache c1({cache_bytes, 32, 1});
    const auto miss = sim::replay_missrate(plan, c1);
    sim::FetchParams params;
    sim::ICache c2({cache_bytes, 32, 1});
    const auto fetch = sim::run_seq3(plan, params, &c2);
    const auto seq = sim::replay_sequentiality(plan);
    sim::TraceCacheParams tc;
    tc.entries = 64;
    sim::ICache c3({cache_bytes, 32, 1});
    const auto tcr = sim::run_trace_cache(plan, params, tc, &c3);
    table.row({core::to_string(kind),
               fmt_fixed(miss.misses_per_100_insns(), 2) + "%",
               fmt_fixed(fetch.ipc(), 2),
               fmt_fixed(seq.insns_between_taken_branches(), 1),
               fmt_fixed(tcr.ipc(), 2)});
  }
  std::fputs(table.render().c_str(), stdout);
  return 0;
}
