// trace_tool: record workload traces to disk and analyze them offline —
// the capture/replay split the paper's methodology relies on, as a CLI.
//
// Usage:
//   trace_tool record <file> [training|test|oltp] [scale_factor]
//   trace_tool info   <file>
//   trace_tool sim    <file> <layout> [cache_bytes] [cfa_bytes]
//     layout: orig | ph | torr | auto | ops
//
// Note: `sim` rebuilds the Training profile to construct the layout, so the
// trace file must come from the same kernel build and scale factor.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "core/layouts.h"
#include "db/tpcd/oltp.h"
#include "db/tpcd/workload.h"
#include "profile/locality.h"
#include "profile/profile.h"
#include "sim/fetch_unit.h"
#include "sim/icache.h"
#include "sim/replay.h"

using namespace stc;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  trace_tool record <file> [training|test|oltp] [sf]\n"
               "  trace_tool info   <file>\n"
               "  trace_tool sim    <file> <orig|ph|torr|auto|ops> "
               "[cache] [cfa] [sf]\n");
  return 1;
}

core::LayoutKind parse_layout(const char* name) {
  if (std::strcmp(name, "orig") == 0) return core::LayoutKind::kOrig;
  if (std::strcmp(name, "ph") == 0) return core::LayoutKind::kPettisHansen;
  if (std::strcmp(name, "torr") == 0) return core::LayoutKind::kTorrellas;
  if (std::strcmp(name, "auto") == 0) return core::LayoutKind::kStcAuto;
  if (std::strcmp(name, "ops") == 0) return core::LayoutKind::kStcOps;
  std::fprintf(stderr, "unknown layout '%s'\n", name);
  std::exit(1);
}

// Loads a trace file, turning a structured load error (missing file,
// corruption) into a diagnostic + exit 1 instead of a crash.
trace::BlockTrace load_or_die(const std::string& path) {
  auto loaded = trace::BlockTrace::load(path);
  if (!loaded.is_ok()) {
    std::fprintf(stderr, "trace_tool: %s\n",
                 loaded.status().to_string().c_str());
    std::exit(1);
  }
  return std::move(loaded).take();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string command = argv[1];
  const std::string path = argv[2];

  if (command == "record") {
    const std::string which = argc > 3 ? argv[3] : "test";
    db::tpcd::WorkloadConfig config;
    if (argc > 4) config.scale_factor = std::atof(argv[4]);
    auto btree = db::tpcd::make_database(config, db::IndexKind::kBTree);
    trace::BlockTrace trace;
    trace::TraceRecorder recorder(trace);
    if (which == "training") {
      db::tpcd::run_training_workload(*btree, &recorder);
    } else if (which == "test") {
      auto hash = db::tpcd::make_database(config, db::IndexKind::kHash);
      db::tpcd::run_test_workload(*btree, *hash, &recorder);
    } else if (which == "oltp") {
      db::tpcd::OltpConfig oltp;
      db::tpcd::run_oltp_workload(*btree, oltp, &recorder);
    } else {
      return usage();
    }
    if (const Status saved = trace.save(path); !saved.is_ok()) {
      std::fprintf(stderr, "trace_tool: %s\n", saved.to_string().c_str());
      return 1;
    }
    std::printf("recorded %llu block events (%llu bytes on disk) to %s\n",
                static_cast<unsigned long long>(trace.num_events()),
                static_cast<unsigned long long>(trace.byte_size()),
                path.c_str());
    return 0;
  }

  if (command == "info") {
    const trace::BlockTrace trace = load_or_die(path);
    const auto& image = db::kernel_image();
    profile::Profile prof(image);
    prof.consume(trace);
    std::printf("%llu events, %llu instructions\n",
                static_cast<unsigned long long>(trace.num_events()),
                static_cast<unsigned long long>(prof.total_instructions()));
    const auto fp = profile::footprint(prof);
    std::printf("touches %llu/%llu blocks (%.1f%%), %llu/%llu routines\n",
                static_cast<unsigned long long>(fp.executed_blocks),
                static_cast<unsigned long long>(fp.total_blocks),
                100.0 * fp.block_fraction(),
                static_cast<unsigned long long>(fp.executed_routines),
                static_cast<unsigned long long>(fp.total_routines));
    const auto orig = cfg::AddressMap::original(image);
    const auto seq = sim::replay_sequentiality(
        sim::build_replay_plan(sim::ReplayMode::kCompiled, trace, image, orig,
                               /*line_bytes=*/0)
            .take());
    std::printf("original layout: %.1f instructions between taken branches\n",
                seq.insns_between_taken_branches());
    return 0;
  }

  if (command == "sim") {
    if (argc < 4) return usage();
    const core::LayoutKind kind = parse_layout(argv[3]);
    const std::uint32_t cache_bytes = argc > 4 ? std::atoi(argv[4]) : 2048;
    const std::uint32_t cfa_bytes = argc > 5 ? std::atoi(argv[5]) : cache_bytes / 4;
    db::tpcd::WorkloadConfig config;
    if (argc > 6) config.scale_factor = std::atof(argv[6]);

    const trace::BlockTrace trace = load_or_die(path);
    const auto& image = db::kernel_image();

    // Rebuild the Training profile to drive the layout algorithms.
    auto btree = db::tpcd::make_database(config, db::IndexKind::kBTree);
    profile::Profile prof(image);
    db::tpcd::run_training_workload(*btree, &prof);
    const auto wcfg = profile::WeightedCFG::from_profile(prof);
    const auto layout = core::make_layout(kind, wcfg, cache_bytes, cfa_bytes);

    const sim::ReplayPlan plan =
        sim::build_replay_plan(sim::ReplayMode::kCompiled, trace, image,
                               layout, /*line_bytes=*/32)
            .take();
    sim::ICache cache({cache_bytes, 32, 1});
    const auto miss = sim::replay_missrate(plan, cache);
    sim::FetchParams params;
    sim::ICache cache2({cache_bytes, 32, 1});
    const auto fetch = sim::run_seq3(plan, params, &cache2);
    const auto seq = sim::replay_sequentiality(plan);
    std::printf("%s @ %uB cache / %uB CFA: miss/insn %.2f%%, SEQ.3 %.2f IPC, "
                "%.1f insns between taken branches\n",
                core::to_string(kind), cache_bytes, cfa_bytes,
                miss.misses_per_100_insns(), fetch.ipc(),
                seq.insns_between_taken_branches());
    return 0;
  }
  return usage();
}
