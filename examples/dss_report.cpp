// DSS workload characterization report - the paper's Section 4 analysis as a
// standalone tool. Builds the TPC-D database, profiles the Training set and
// prints the footprint, concentration, reuse and determinism measurements,
// then the per-module execution mix (which the paper uses to motivate the
// choice of Training queries).
//
// Usage: dss_report [scale_factor]      (default 0.002)
#include <cstdio>
#include <cstdlib>
#include <map>

#include "core/layouts.h"
#include "db/tpcd/workload.h"
#include "profile/locality.h"
#include "profile/profile.h"
#include "sim/icache.h"
#include "sim/replay.h"
#include "support/table.h"

using namespace stc;

int main(int argc, char** argv) {
  db::tpcd::WorkloadConfig config;
  if (argc > 1) config.scale_factor = std::atof(argv[1]);

  std::printf("building TPC-D database (SF=%.4g)...\n", config.scale_factor);
  auto database = db::tpcd::make_database(config, db::IndexKind::kBTree);

  profile::Profile prof(db::kernel_image());
  trace::BlockTrace trace;
  trace::TraceRecorder recorder(trace);
  cfg::TeeSink tee;
  tee.add(&prof);
  tee.add(&recorder);
  db::tpcd::run_training_workload(*database, &tee);

  const auto& image = db::kernel_image();
  std::printf("Training set (Q3,Q4,Q5,Q6,Q9): %llu block events, %llu "
              "instructions\n\n",
              static_cast<unsigned long long>(trace.num_events()),
              static_cast<unsigned long long>(prof.total_instructions()));

  // ---- footprint -----------------------------------------------------------
  const auto fp = profile::footprint(prof);
  std::printf("footprint: %llu/%llu routines (%.1f%%), %llu/%llu blocks "
              "(%.1f%%), %llu/%llu instructions (%.1f%%)\n",
              static_cast<unsigned long long>(fp.executed_routines),
              static_cast<unsigned long long>(fp.total_routines),
              100.0 * fp.routine_fraction(),
              static_cast<unsigned long long>(fp.executed_blocks),
              static_cast<unsigned long long>(fp.total_blocks),
              100.0 * fp.block_fraction(),
              static_cast<unsigned long long>(fp.executed_instructions),
              static_cast<unsigned long long>(fp.total_instructions),
              100.0 * fp.instruction_fraction());

  // ---- concentration --------------------------------------------------------
  const auto curve = profile::cumulative_reference_curve(prof);
  std::printf("reference concentration: 90%% of references from %llu blocks, "
              "99%% from %llu (of %zu executed)\n",
              static_cast<unsigned long long>(
                  profile::blocks_for_fraction(curve, 0.90)),
              static_cast<unsigned long long>(
                  profile::blocks_for_fraction(curve, 0.99)),
              curve.size());

  // ---- temporal locality ----------------------------------------------------
  const auto reuse = profile::reuse_distances(trace, prof, 0.75);
  std::printf("temporal locality (top-75%% blocks): %.0f%% re-referenced "
              "within 100 insns, %.0f%% within 250\n",
              100.0 * reuse.fraction_below(100),
              100.0 * reuse.fraction_below(250));

  // ---- determinism -----------------------------------------------------------
  const auto types = profile::block_type_stats(prof);
  std::printf("transition determinism: %.0f%% of dynamic transitions are "
              "fixed\n\n",
              100.0 * types.overall_predictable);

  // ---- per-module mix ---------------------------------------------------------
  std::map<std::string, std::uint64_t> insns_by_module;
  for (cfg::BlockId b = 0; b < image.num_blocks(); ++b) {
    const auto& info = image.block(b);
    insns_by_module[image.module_name(image.routine(info.routine).module)] +=
        prof.block_count(b) * info.insns;
  }
  TextTable table;
  table.header({"Module", "Dynamic instructions", "Share"});
  for (const auto& [module, insns] : insns_by_module) {
    table.row({module, fmt_count(insns),
               fmt_percent(static_cast<double>(insns) /
                           static_cast<double>(prof.total_instructions()))});
  }
  std::fputs(table.render().c_str(), stdout);

  // ---- hottest routines --------------------------------------------------------
  std::map<std::uint64_t, std::string, std::greater<>> hottest;
  for (cfg::RoutineId r = 0; r < image.num_routines(); ++r) {
    std::uint64_t insns = 0;
    const auto& info = image.routine(r);
    for (std::uint32_t i = 0; i < info.num_blocks; ++i) {
      insns += prof.block_count(info.entry + i) *
               image.block(info.entry + i).insns;
    }
    if (insns > 0) hottest.emplace(insns, info.name);
  }
  std::printf("\nhottest routines:\n");
  int shown = 0;
  for (const auto& [insns, name] : hottest) {
    std::printf("  %-24s %12s insns\n", name.c_str(),
                fmt_count(insns).c_str());
    if (++shown == 12) break;
  }

  // ---- per-module miss attribution (original layout, 2KB cache) ------------
  // The paper motivates its Training-set choice with "the large number of
  // misses attributed to the Access Methods and Buffer Manager modules".
  const auto orig = cfg::AddressMap::original(image);
  const sim::ReplayPlan plan =
      sim::build_replay_plan(sim::ReplayMode::kCompiled, trace, image, orig,
                             /*line_bytes=*/32)
          .take();
  sim::ICache cache({2048, 32, 1});
  std::vector<std::uint64_t> per_block;
  const auto miss = sim::replay_missrate(plan, cache, &per_block);
  std::map<std::string, std::uint64_t> misses_by_module;
  for (cfg::BlockId b = 0; b < image.num_blocks(); ++b) {
    if (per_block[b] == 0) continue;
    misses_by_module[image.module_name(
        image.routine(image.block(b).routine).module)] += per_block[b];
  }
  std::printf("\ni-cache misses by module (orig layout, 2KB direct-mapped; "
              "%.2f%% overall):\n",
              miss.misses_per_100_insns());
  for (const auto& [module, count] : misses_by_module) {
    std::printf("  %-10s %10s misses (%.1f%%)\n", module.c_str(),
                fmt_count(count).c_str(),
                100.0 * static_cast<double>(count) /
                    static_cast<double>(miss.misses));
  }
  return 0;
}
