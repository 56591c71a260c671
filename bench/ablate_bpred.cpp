// Ablation: speculative front end — predictor type x layout x cache size.
//
// The paper evaluates SEQ.3 under perfect branch prediction (Table 4). This
// sweep replaces the oracle with realistic direction predictors (always-
// taken, bimodal, gshare, 2-level local) plus a BTB, a return-address stack
// and FDIP-style fetch-directed prefetching (src/frontend), and asks how
// much of each layout's fetch-bandwidth advantage survives a real front
// end. Two effects compete: reordering turns taken branches into
// fall-throughs (fewer chances to mispredict a target), but it also changes
// which (addr, history) pairs alias in the pattern tables.
//
// The perfect rows run the transparent configuration — byte-identical to
// Table 4's simulator — so every realistic row reads as a delta against the
// paper's numbers in the same report.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"

int main() {
  using namespace stc;
  using core::LayoutKind;
  using frontend::BpredKind;
  const auto env = bench::Env::from_environment();
  bench::Setup setup(env);
  bench::print_banner("Ablation: branch prediction + FDIP front end", env,
                      setup);

  // The environment's front-end geometry (STC_FTQ_DEPTH etc.); the predictor
  // kind is the sweep axis, overridden per row.
  frontend::FrontEndParams base = frontend::FrontEndParams::from_environment();

  const BpredKind kinds[] = {BpredKind::kPerfect, BpredKind::kAlwaysTaken,
                             BpredKind::kBimodal, BpredKind::kGshare,
                             BpredKind::kLocal};
  const struct {
    LayoutKind kind;
    const char* name;
  } layouts[] = {
      {LayoutKind::kOrig, "orig"},         {LayoutKind::kPettisHansen, "ph"},
      {LayoutKind::kTorrellas, "torr"},    {LayoutKind::kStcAuto, "auto"},
      {LayoutKind::kStcOps, "ops"},
  };
  const std::uint32_t caches[] = {2048, 8192};

  auto runner = bench::make_runner("ablate_bpred", env, setup);
  runner.meta("table_bits", std::uint64_t{base.table_bits});
  runner.meta("btb_entries", std::uint64_t{base.btb_entries});
  runner.meta("ras_depth", std::uint64_t{base.ras_depth});
  runner.meta("ftq_depth", std::uint64_t{base.ftq_depth});
  runner.meta("prefetch_width", std::uint64_t{base.prefetch_width});
  runner.meta("mispredict_penalty", std::uint64_t{base.mispredict_penalty});

  runner.time_phase("layouts", [&] {
    for (const std::uint32_t cache : caches) {
      for (const auto& l : layouts) setup.layout(l.kind, cache, cache / 4);
    }
  });

  // jobs[cache][layout][kind]
  std::vector<std::vector<std::vector<std::size_t>>> jobs;
  for (const std::uint32_t cache : caches) {
    const sim::CacheGeometry dm{cache, env.line_bytes, 1};
    jobs.emplace_back();
    for (const auto& l : layouts) {
      const auto& layout = setup.layout(l.kind, cache, cache / 4);
      jobs.back().emplace_back();
      for (const BpredKind kind : kinds) {
        frontend::FrontEndParams fe = base;
        fe.kind = kind;
        fe.prefetch = kind != BpredKind::kPerfect && base.ftq_depth > 0;
        const std::string name = std::string(frontend::to_string(kind)) + " " +
                                 l.name + " " + fmt_size(cache);
        jobs.back().back().push_back(runner.add(
            name,
            {{"bpred", frontend::to_string(kind)},
             {"layout", l.name},
             {"cache", std::to_string(cache)}},
            [&setup, &layout, dm, fe] {
              return bench::measure_seq3(setup, layout, dm, /*perfect=*/false,
                                         fe);
            }));
      }
    }
  }
  runner.run();

  for (std::size_t c = 0; c < std::size(caches); ++c) {
    std::printf("-- %s i-cache, IPC (mispredicts/1000 insns) --\n",
                fmt_size(caches[c]).c_str());
    TextTable table;
    table.header({"bpred", "orig", "ph", "torr", "auto", "ops"});
    for (std::size_t k = 0; k < std::size(kinds); ++k) {
      std::vector<std::string> row{frontend::to_string(kinds[k])};
      for (std::size_t l = 0; l < std::size(layouts); ++l) {
        const std::size_t job = jobs[c][l][k];
        std::string cell = fmt_fixed(runner.metric_or(job, "ipc"), 2);
        if (kinds[k] != BpredKind::kPerfect) {
          cell += " (" + fmt_fixed(runner.metric_or(job, "mpki"), 1) + ")";
        }
        row.push_back(cell);
      }
      table.row(row);
    }
    std::fputs(table.render().c_str(), stdout);
    std::printf("\n");
  }

  // Headline: how much of the layout win survives a realistic front end.
  const std::size_t g_orig_job = jobs[1][0][3];        // gshare orig 8K
  const std::size_t g_ops_job = jobs[1][4][3];         // gshare ops 8K
  const auto& g_ops = runner.result(g_ops_job);
  std::printf(
      "ops/orig fetch-bandwidth ratio at 8K: %.2fx perfect -> %.2fx gshare\n"
      "(gshare ops: %.1f mispredicts/1000 insns, %llu prefetches issued,\n"
      " %llu useful, %llu late)\n",
      runner.metric_or(jobs[1][4][0], "ipc") /
          runner.metric_or(jobs[1][0][0], "ipc"),
      runner.metric_or(g_ops_job, "ipc") / runner.metric_or(g_orig_job, "ipc"),
      runner.metric_or(g_ops_job, "mpki"),
      static_cast<unsigned long long>(g_ops.counters().get("prefetch_issued")),
      static_cast<unsigned long long>(g_ops.counters().get("prefetch_useful")),
      static_cast<unsigned long long>(g_ops.counters().get("prefetch_late")));

  return bench::write_report(runner);
}
