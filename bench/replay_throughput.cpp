// Replay-engine throughput: events/second for every simulator — including
// the full back-end pipeline ("backend", fixed default-ooo machine) — under
// the interp and compiled replay engines over the pinned Test trace.
//
// Every cell times its own replay loop (and, for compiled mode, the plan
// build) and then re-runs the interpreter untimed to prove the
// counters are bit-identical — a cell that diverges is recorded as a failed
// job, never as a throughput number. The grid runs on a single worker so
// the timings are not distorted by sibling cells.
//
// tools/perf_gate.py consumes this bench's BENCH_replay_throughput.json:
// it checks the compiled speedup ratios over interp against
// bench/perf_baseline.json with a tolerance band, failing CI on a >15%
// throughput regression. Two extra rows cover the multi-tenant composer
// (src/workload): "compose" replays a composed multi-tenant trace through
// the miss-rate simulator in both modes (ratio-gated like any other sim),
// and "compose_build" times compose() itself — labelled interp so the
// gate records its events/sec without a ratio.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/common.h"
#include "support/check.h"
#include "support/env.h"
#include "workload/composer.h"

int main() {
  using namespace stc;
  using core::LayoutKind;
  const auto env = bench::Env::from_environment();
  bench::Setup setup(env);
  bench::print_banner("Replay-engine throughput (orig layout, 4K cache)", env,
                      setup);

  const std::uint32_t cache = 4096;
  const sim::CacheGeometry geometry{cache, env.line_bytes, 1};

  auto runner = bench::make_runner("replay_throughput", env, setup);
  runner.meta("cache_bytes", std::uint64_t{cache});
  runner.time_phase("layouts", [&] { setup.layout(LayoutKind::kOrig, 0, 0); });
  const cfg::AddressMap& layout = setup.layout(LayoutKind::kOrig, 0, 0);

  const sim::ReplayMode modes[] = {sim::ReplayMode::kInterp,
                                   sim::ReplayMode::kCompiled};
  constexpr std::size_t kNumModes = std::size(modes);
  const bench::ReplaySimKind kinds[] = {bench::ReplaySimKind::kMissRate,
                                        bench::ReplaySimKind::kSequentiality,
                                        bench::ReplaySimKind::kSeq3,
                                        bench::ReplaySimKind::kTraceCache,
                                        bench::ReplaySimKind::kBackend};
  constexpr std::size_t kNumKinds = std::size(kinds);

  // jobs[kind][mode]
  std::size_t jobs[kNumKinds][kNumModes];
  for (std::size_t k = 0; k < kNumKinds; ++k) {
    for (std::size_t m = 0; m < kNumModes; ++m) {
      const bench::ReplaySimKind kind = kinds[k];
      const sim::ReplayMode mode = modes[m];
      jobs[k][m] = runner.add(
          std::string(bench::to_string(kind)) + " " + sim::to_string(mode),
          {{"sim", bench::to_string(kind)}, {"mode", sim::to_string(mode)}},
          [&setup, &layout, geometry, kind, mode] {
            return bench::measure_replay_cell(setup.test_trace(),
                                              setup.image(), layout, geometry,
                                              kind, mode);
          });
    }
  }

  // ---- composer rows -------------------------------------------------------
  // The composed trace splits the Test trace into STC_TENANTS contiguous
  // streams and re-interleaves them at STC_QUANTUM/STC_ARRIVAL — no database
  // work, so the rows time exactly the composer and the replay engines.
  const std::uint32_t tenants = env::tenants().value_or(4);
  const auto arrival = workload::parse_arrival(env::arrival().value_or(
                           "poisson"))
                           .value_or(workload::ArrivalKind::kPoisson);
  workload::ComposeParams compose_params;
  compose_params.quantum_events = env::quantum().value_or(1000);
  compose_params.arrival = arrival;
  compose_params.seed = env.seed;
  std::vector<workload::TenantStream> streams(tenants);
  {
    std::vector<cfg::BlockId> events;
    events.reserve(setup.test_trace().num_events());
    setup.test_trace().for_each([&](cfg::BlockId b) { events.push_back(b); });
    for (std::uint32_t t = 0; t < tenants; ++t) {
      streams[t].name = "span#" + std::to_string(t);
      const std::size_t lo = events.size() * t / tenants;
      const std::size_t hi = events.size() * (t + 1) / tenants;
      for (std::size_t i = lo; i < hi; ++i) streams[t].trace.append(events[i]);
    }
  }
  workload::ComposedTrace composed;
  runner.time_phase("compose", [&] {
    auto r = workload::compose(streams, compose_params);
    STC_CHECK_MSG(r.is_ok(), r.status().to_string().c_str());
    composed = std::move(r).take();
  });
  runner.meta("compose_tenants", std::uint64_t{tenants});
  runner.meta("compose_quantum", compose_params.quantum_events);
  runner.meta("compose_switches", composed.context_switches);

  const std::size_t build_job = runner.add(
      "compose build", {{"sim", "compose_build"}, {"mode", "interp"}},
      [&streams, compose_params] {
        const auto start = std::chrono::steady_clock::now();
        auto r = workload::compose(streams, compose_params);
        const double seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
        STC_CHECK_MSG(r.is_ok(), r.status().to_string().c_str());
        ExperimentResult result;
        result.metric("seconds", seconds);
        result.metric("events_per_sec",
                      seconds > 0 ? r.value().trace.num_events() / seconds
                                  : 0.0);
        result.counters().add("blocks", r.value().trace.num_events());
        return result;
      });
  std::size_t compose_jobs[kNumModes];
  for (std::size_t m = 0; m < kNumModes; ++m) {
    const sim::ReplayMode mode = modes[m];
    compose_jobs[m] = runner.add(
        std::string("compose ") + sim::to_string(mode),
        {{"sim", "compose"}, {"mode", sim::to_string(mode)}},
        [&setup, &layout, geometry, &composed, mode] {
          return bench::measure_replay_cell(composed.trace, setup.image(),
                                            layout, geometry,
                                            bench::ReplaySimKind::kMissRate,
                                            mode);
        });
  }
  // Single worker: the cells time themselves, so they must not compete for
  // cores with sibling jobs.
  runner.run(1);

  TextTable table;
  table.header({"simulator", "interp ev/s", "compiled ev/s", "compiled x"});
  const auto row = [&](const std::string& name, const std::size_t* cell) {
    const double interp = runner.metric_or(cell[0], "events_per_sec");
    const double compiled = runner.metric_or(cell[1], "events_per_sec");
    table.row({name, fmt_fixed(interp, 0), fmt_fixed(compiled, 0),
               fmt_fixed(interp > 0 ? compiled / interp : 0.0, 2)});
  };
  for (std::size_t k = 0; k < kNumKinds; ++k) {
    row(bench::to_string(kinds[k]), jobs[k]);
  }
  row("compose (missrate)", compose_jobs);
  std::fputs(table.render().c_str(), stdout);
  std::printf(
      "\ncompose() itself: %.0f events/sec over %llu tenants.\n"
      "Compiled replay decodes the trace once into a contiguous slab and\n"
      "pre-resolves per-block line indices.\n",
      runner.metric_or(build_job, "events_per_sec"),
      static_cast<unsigned long long>(tenants));

  return bench::write_report(runner);
}
