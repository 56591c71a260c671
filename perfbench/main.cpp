// Benchmark program for the trace-replay pipeline.
//
//   stc_perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//                 [--scratch DIR] [--spans FILE] [--digests FILE]
//                 [--record-digests]
//   stc_perfbench --self-test
//
// One process sets a workload up three times (setup_s is the median), then
// runs its grid through support's ExperimentRunner on two worker threads,
// pass after pass, until --seconds have gone by. The last line of standard
// output is the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 passes
// alternate between untraced and traced, and the metrics are the per-layer
// ones computed from the spans (README.md lists them all).
#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "grid.h"
#include "spans.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {

// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;

#ifndef STC_PERFBENCH_BUILD_TYPE
#define STC_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

// ---- digests file ---------------------------------------------------------
//
// One line per cell: "<workload> <cell> <16 hex digits>". Written by
// --record-digests at the default seed.

std::optional<DigestMap> load_digests(const std::string& path,
                                      const std::string& workload) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  DigestMap map;
  std::string w, cell, hex;
  while (in >> w >> cell >> hex) {
    if (w == workload) map[cell] = std::strtoull(hex.c_str(), nullptr, 16);
  }
  return map;
}

bool save_digests(const std::string& path, const std::string& workload,
                  const DigestMap& digests) {
  std::vector<std::string> kept;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind(workload + " ", 0) != 0 && !line.empty()) {
        kept.push_back(line);
      }
    }
  }
  for (const auto& [cell, d] : digests) {
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016" PRIx64, d);
    kept.push_back(workload + " " + cell + " " + hex);
  }
  std::sort(kept.begin(), kept.end());
  std::ofstream out(path, std::ios::trunc);
  for (const std::string& line : kept) out << line << '\n';
  return static_cast<bool>(out);
}

// ---- environment ----------------------------------------------------------

// Every STC_* knob is refused except STC_REPLAY=auto|compiled (both select
// the compiled replay this benchmark builds): a stray knob must not measure
// a different program.
std::vector<std::string> refused_knobs() {
  std::vector<std::string> refused;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string_view kv(*e);
    if (kv.substr(0, 4) != "STC_") continue;
    const std::size_t eq = kv.find('=');
    const std::string_view name = kv.substr(0, eq);
    const std::string_view value =
        eq == std::string_view::npos ? std::string_view() : kv.substr(eq + 1);
    if (name == "STC_REPLAY" && (value == "auto" || value == "compiled")) {
      continue;
    }
    refused.emplace_back(kv);
  }
  return refused;
}

// Debug and sanitizer builds measure a different program.
std::optional<std::string> refused_build() {
  const std::string type = STC_PERFBENCH_BUILD_TYPE;
  if (type == "Debug" || type == "debug") return "a Debug build";
#if !defined(__OPTIMIZE__)
  return "an unoptimized build";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(STC_PERFBENCH_SANITIZED)
  return "a sanitizer build";
#endif
  return std::nullopt;
}

// ---- output ---------------------------------------------------------------

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string result_json(bool correct, std::size_t attempted,
                        std::size_t failed,
                        const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + metrics[i].name +
         "\": {\"value\": " + number(metrics[i].value) + ", \"unit\": \"" +
         metrics[i].unit + "\"}";
  }
  s += "}}";
  return s;
}

// ---- per-layer accounting --------------------------------------------------

struct LayerTotals {
  std::map<std::string, double> self_s;          // by span name
  std::map<std::string, std::uint64_t> count;    // by span name
  std::map<std::string, std::uint64_t> spans;    // occurrences by name
  std::map<std::string, double> module_self_s;   // by module
};

LayerTotals totals_of(const std::vector<Span>& spans) {
  LayerTotals t;
  const std::vector<double> self = self_seconds(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    t.self_s[spans[i].name] += self[i];
    t.count[spans[i].name] += spans[i].count;
    t.spans[spans[i].name] += 1;
    t.module_self_s[module_of(spans[i].name)] += self[i];
  }
  return t;
}

double get(const std::map<std::string, double>& m, const std::string& k) {
  const auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}
std::uint64_t get(const std::map<std::string, std::uint64_t>& m,
                  const std::string& k) {
  const auto it = m.find(k);
  return it == m.end() ? 0 : it->second;
}

// Worker-seconds of a pass not covered by cell spans or tail idle:
// dispatch, journal appends and pool start-up inside the runner.
double unattributed_s(const PassResult& pass) {
  const RunnerStats r = runner_stats(pass);
  return static_cast<double>(kWorkers) * pass.wall_s - r.busy_s -
         r.worker_idle_s;
}

std::vector<Metric> per_layer_metrics(const LayerTotals& setup, int setups,
                                      const LayerTotals& grid,
                                      const std::vector<PassResult>& traced,
                                      const std::vector<PassResult>& untraced) {
  const double ns = setups;
  const double np = static_cast<double>(traced.size());
  const auto s_self = [&](const char* n) { return get(setup.self_s, n) / ns; };
  const auto s_count = [&](const char* n) {
    return static_cast<double>(get(setup.count, n)) / ns;
  };
  const auto s_spans = [&](const char* n) {
    return static_cast<double>(get(setup.spans, n)) / ns;
  };
  const auto g_self = [&](const char* n) { return get(grid.self_s, n) / np; };
  const auto rate = [](double events, double seconds) {
    return seconds > 0.0 ? events / seconds / 1e6 : 0.0;
  };
  const auto g_rate = [&](const char* n) {
    return rate(static_cast<double>(get(grid.count, n)), get(grid.self_s, n));
  };

  // Counter-derived ratios, from the first traced pass (every pass simulates
  // the same cells, so the counters repeat exactly).
  const stc::CounterSet& totals = traced.front().totals;
  const double fe_insns = static_cast<double>(totals.get("instructions"));
  const double mispredicts = static_cast<double>(totals.get("bp_mispredicts"));
  const double issued = static_cast<double>(totals.get("prefetch_issued"));
  const double useful = static_cast<double>(totals.get("prefetch_useful"));

  RunnerStats rs;
  double sys = 0.0, ctx = 0.0, report = 0.0, unattributed = 0.0;
  for (const PassResult& p : traced) {
    const RunnerStats r = runner_stats(p);
    rs.queue_wait_s += r.queue_wait_s / np;
    rs.worker_idle_s += r.worker_idle_s / np;
    rs.runner_overhead_s += r.runner_overhead_s / np;
    sys += p.usage.sys_s / np;
    ctx += static_cast<double>(p.usage.ctx_switches) / np;
    report += p.report_s / np;
    unattributed += unattributed_s(p) / np;
  }
  std::vector<double> traced_wall, untraced_wall;
  for (const PassResult& p : traced) traced_wall.push_back(p.wall_s);
  for (const PassResult& p : untraced) untraced_wall.push_back(p.wall_s);

  return {
      {"db.build_s", s_self("db.build"), "s"},
      {"db.record_s", s_self("db.record"), "s"},
      {"db.record_events", s_count("db.record"), "count"},
      {"db.record_mev_s", rate(s_count("db.record"), s_self("db.record")),
       "Mev/s"},
      {"core.layout_s", s_self("core.layout"), "s"},
      {"core.layouts", s_spans("core.layout"), "count"},
      {"sim.slab_s", s_self("sim.slab"), "s"},
      {"sim.plan_s", s_self("sim.plan"), "s"},
      {"sim.plans", s_spans("sim.plan"), "count"},
      {"sim.missrate_s", g_self("sim.missrate"), "s"},
      {"sim.missrate_mev_s", g_rate("sim.missrate"), "Mev/s"},
      {"sim.seq3_s", g_self("sim.seq3"), "s"},
      {"sim.seq3_mev_s", g_rate("sim.seq3"), "Mev/s"},
      {"sim.tc_s", g_self("sim.tc"), "s"},
      {"sim.tc_mev_s", g_rate("sim.tc"), "Mev/s"},
      {"frontend.run_s", g_self("frontend.run"), "s"},
      {"frontend.mev_s", g_rate("frontend.run"), "Mev/s"},
      {"frontend.mispredict_pki",
       fe_insns > 0.0 ? 1000.0 * mispredicts / fe_insns : 0.0, "pki"},
      {"frontend.prefetch_useful_ratio", issued > 0.0 ? useful / issued : 0.0,
       "ratio"},
      {"backend.run_s", g_self("backend.run"), "s"},
      {"backend.mev_s", g_rate("backend.run"), "Mev/s"},
      {"backend.ops", static_cast<double>(totals.get("be_retired_ops")),
       "count"},
      {"workload.streams_s", s_self("workload.streams"), "s"},
      {"workload.compose_s", s_self("workload.compose"), "s"},
      {"workload.slices", s_count("workload.compose"), "count"},
      {"trace.write_s", s_self("trace.write"), "s"},
      {"trace.write_mb", s_count("trace.write") / (1024.0 * 1024.0), "MB"},
      {"sim.stream_missrate_s", g_self("sim.stream_missrate"), "s"},
      {"sim.stream_missrate_mev_s", g_rate("sim.stream_missrate"), "Mev/s"},
      {"support.queue_wait_s", rs.queue_wait_s, "s"},
      {"support.worker_idle_s", rs.worker_idle_s, "s"},
      {"support.runner_overhead_s", rs.runner_overhead_s, "s"},
      {"support.sys_s", sys, "s"},
      {"support.ctx_switches", ctx, "count"},
      {"support.report_s", report, "s"},
      {"verify.check_s", g_self("verify.check"), "s"},
      {"tracing_overhead_s", median(traced_wall) - median(untraced_wall), "s"},
      {"unattributed_s", unattributed, "s"},
  };
}

// Prints each module's self time as a share of the traced passes'
// worker-seconds, and each module's self time per set-up.
void print_layer_shares(const LayerTotals& setup, const LayerTotals& grid,
                        const std::vector<PassResult>& traced) {
  double worker_s = 0.0, idle_s = 0.0, unattributed = 0.0;
  for (const PassResult& p : traced) {
    worker_s += static_cast<double>(kWorkers) * p.wall_s;
    idle_s += runner_stats(p).worker_idle_s;
    unattributed += unattributed_s(p);
  }
  const double np = static_cast<double>(traced.size());
  std::printf("traced grid, per pass: %.3f worker-seconds (%zu workers)\n",
              worker_s / np, kWorkers);
  const auto row = [&](const std::string& what, double s, const char* note) {
    std::printf("  %-16s %10.4f s  %5.1f%%%s\n", what.c_str(), s / np,
                100.0 * s / worker_s, note);
  };
  for (const auto& [module, s] : grid.module_self_s) row(module, s, "");
  row("tail idle", idle_s, "");
  row("unattributed", unattributed, "  (runner dispatch, journal, pool)");
  std::printf("set-up, per set-up:\n");
  for (const auto& [module, s] : setup.module_self_s) {
    std::printf("  %-16s %10.4f s\n", module.c_str(), s / kSetups);
  }
}

// ---- options --------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 30.0;
  bool trace = false;
  std::string scratch = ".";
  std::string spans_path;
  std::string digests_path;
  bool record_digests = false;
  bool self_test = false;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(arg + " needs a value");
      return argv[++i];
    };
    const auto unsigned_value = [&](const std::string& v) {
      errno = 0;
      char* end = nullptr;
      const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0' || errno != 0 || v[0] == '-') {
        usage_error(arg + " expects a whole number, got '" + v + "'");
      }
      return n;
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = unsigned_value(value());
    } else if (arg == "--seconds") {
      o.seconds = static_cast<double>(unsigned_value(value()));
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage_error("--trace expects 0 or 1");
      o.trace = v == "1";
    } else if (arg == "--scratch") {
      o.scratch = value();
    } else if (arg == "--spans") {
      o.spans_path = value();
    } else if (arg == "--digests") {
      o.digests_path = value();
    } else if (arg == "--record-digests") {
      o.record_digests = true;
    } else if (arg == "--self-test") {
      o.self_test = true;
    } else {
      usage_error("unknown argument '" + arg + "'");
    }
  }
  return o;
}

}  // namespace

int run_self_tests();  // selftest.cpp

int main_impl(int argc, char** argv) {
  const std::int64_t process_start = now_ns();
  const Options opt = parse(argc, argv);

  if (const auto knobs = refused_knobs(); !knobs.empty()) {
    for (const std::string& k : knobs) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set: it changes the "
                   "measured program (only STC_REPLAY=auto|compiled is "
                   "accepted)\n",
                   k.c_str());
    }
    return 2;
  }
  if (const auto build = refused_build()) {
    std::fprintf(stderr, "perfbench: refusing to measure %s\n", build->c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(opt.scratch, ec);
  // The runner's journal and reports land in the scratch directory.
  setenv("STC_BENCH_DIR", opt.scratch.c_str(), 1);

  if (opt.self_test) return run_self_tests();

  if (std::find(workload_names().begin(), workload_names().end(),
                opt.workload) == workload_names().end()) {
    std::string known;
    for (const std::string& n : workload_names()) known += " " + n;
    usage_error("unknown workload '" + opt.workload + "' (known:" + known +
                ")");
  }

  const bool default_seed = opt.seed == kDefaultSeed;
  std::printf(
      "env: {\"nproc\": %u, \"workers\": %zu, \"build_type\": \"%s\", "
      "\"scale_factor\": %g, \"seed\": %" PRIu64
      ", \"replay\": \"compiled\", \"workload\": \"%s\", \"seconds\": %g, "
      "\"trace\": %d}\n",
      std::thread::hardware_concurrency(), kWorkers, STC_PERFBENCH_BUILD_TYPE,
      kScaleFactor, opt.seed, opt.workload.c_str(), opt.seconds,
      opt.trace ? 1 : 0);

  std::optional<DigestMap> reference;
  if (opt.record_digests) {
    if (!default_seed) usage_error("--record-digests needs the default seed");
  } else if (default_seed) {
    reference = load_digests(opt.digests_path, opt.workload);
    if (!reference || reference->empty()) {
      std::fprintf(stderr,
                   "perfbench: no reference digests for %s in '%s'\n",
                   opt.workload.c_str(), opt.digests_path.c_str());
      return 1;
    }
    std::printf("correctness: verify counter identities + reference digests "
                "(%zu cells)\n", reference->size());
  } else {
    std::printf("correctness: verify counter identities only (reference "
                "digests exist for seed %" PRIu64 " alone)\n", kDefaultSeed);
  }

  // ---- set-up, repeated; the last one is kept for the grid ----
  set_tracing(opt.trace);
  std::vector<double> setup_times;
  std::unique_ptr<Workload> workload;
  for (int k = 0; k < kSetups; ++k) {
    workload.reset();
    const std::int64_t t0 = k == 0 ? process_start : now_ns();
    workload = make_workload(opt.workload, opt.seed, opt.scratch);
    setup_times.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  const std::vector<Span> setup_spans = take_spans();
  set_tracing(false);
  std::printf("inputs: training_events=%" PRIu64 " test_events=%" PRIu64
              "\n", workload->training_events(), workload->test_events());
  std::printf("setup: %zu cells; set-ups took", workload->cells().size());
  for (const double t : setup_times) std::printf(" %.3f", t);
  std::printf(" s\n");

  PassInput in;
  in.workload = opt.workload;
  in.seed = opt.seed;
  in.setup_s = median(setup_times);
  in.training_events = workload->training_events();
  in.test_events = workload->test_events();
  in.reference = reference ? &*reference : nullptr;

  if (opt.record_digests) {
    DigestMap recorded;
    in.record = &recorded;
    const PassResult pass = run_pass(workload->cells(), in);
    if (pass.failed != 0 || recorded.size() != workload->cells().size()) {
      std::fprintf(stderr, "perfbench: %zu cells failed; digests not saved\n",
                   pass.failed);
      return 1;
    }
    if (!save_digests(opt.digests_path, opt.workload, recorded)) {
      std::fprintf(stderr, "perfbench: cannot write '%s'\n",
                   opt.digests_path.c_str());
      return 1;
    }
    std::printf("recorded %zu digests for %s in %s\n", recorded.size(),
                opt.workload.c_str(), opt.digests_path.c_str());
    return 0;
  }

  // ---- timed grid passes ----
  std::vector<PassResult> untraced, traced;
  std::vector<Span> grid_spans;
  std::vector<std::vector<double>> cell_cpu;  // by untraced pass, by cell
  std::size_t attempted = 0, failed = 0;
  std::uint64_t pass_instructions = 0;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  for (int p = 0;; ++p) {
    const bool traced_pass = opt.trace && p % 2 == 1;
    const bool enough = now_ns() >= deadline &&
                        (!opt.trace || (!traced.empty() && !untraced.empty()));
    if (p > 0 && enough) break;
    set_tracing(traced_pass);
    PassResult pass = run_pass(workload->cells(), in);
    set_tracing(false);
    if (traced_pass) append_spans(grid_spans, take_spans());
    attempted += pass.attempted;
    failed += pass.failed;
    for (const std::string& f : pass.failures) {
      std::fprintf(stderr, "perfbench: failed cell: %s\n", f.c_str());
    }
    if (!traced_pass) {
      std::vector<double> cpu;
      for (const CellTiming& c : pass.cells) cpu.push_back(c.cpu_s);
      cell_cpu.push_back(std::move(cpu));
    }
    pass_instructions = pass.totals.get("instructions");
    std::printf("pass %d%s: wall %.3f s, cpu %.3f s, steal %.2f s, %zu/%zu "
                "cells ok\n", p, traced_pass ? " (traced)" : "", pass.wall_s,
                pass.cpu_s, pass.steal_s, pass.attempted - pass.failed,
                pass.attempted);
    (traced_pass ? traced : untraced).push_back(std::move(pass));
  }

  const bool correct = failed == 0 && attempted > 0;
  std::vector<Metric> metrics;
  if (!opt.trace) {
    // One value per cell, its median over the passes; the grid's median
    // and tail are taken over these.
    const std::vector<double> per_cell = cell_medians(cell_cpu);
    const std::optional<Tail> t = tail(per_cell);
    if (!t) {
      std::fprintf(stderr,
                   "perfbench: a grid of %zu cells is too small for a tail "
                   "with 10 cells beyond it; the grid is rejected\n",
                   per_cell.size());
      return 1;
    }
    // Pass wall and CPU times are printed but not reported: on a shared
    // host they spread by 18-36% over ten runs even as the fastest of a
    // run's passes, while per-cell CPU times held within 2-13% (README.md).
    double wall = untraced.front().wall_s;
    double cpu = untraced.front().cpu_s;
    for (const PassResult& p : untraced) {
      wall = std::min(wall, p.wall_s);
      cpu = std::min(cpu, p.cpu_s);
    }
    std::printf("fastest of %zu passes: wall %.6f s, cpu %.6f s, %.3f "
                "Minsn/s\n", untraced.size(), wall, cpu,
                static_cast<double>(pass_instructions) / wall / 1e6);
    metrics = {
        {"setup_s", median(setup_times), "s"},
        {"cell_cpu_p50_s", median(per_cell), "s"},
        {"cell_cpu_tail_s", t->value, "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    for (const Metric& m : metrics) {
      std::printf("  %-16s %14.6f %s", m.name.c_str(), m.value,
                  m.unit.c_str());
      if (m.name == "cell_cpu_tail_s") {
        std::printf("  (p%.1f of %zu cells, %zu beyond; each cell's median "
                    "over %zu passes)", t->percentile, t->samples, t->beyond,
                    cell_cpu.size());
      }
      std::printf("\n");
    }
  } else {
    const LayerTotals setup_totals = totals_of(setup_spans);
    const LayerTotals grid_totals = totals_of(grid_spans);
    metrics = per_layer_metrics(setup_totals, kSetups, grid_totals, traced,
                                untraced);
    print_layer_shares(setup_totals, grid_totals, traced);
    for (const Metric& m : metrics) {
      std::printf("  %-32s %14.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    if (!opt.spans_path.empty()) {
      std::vector<Span> all = setup_spans;
      append_spans(all, grid_spans);
      if (!write_spans(opt.spans_path, all)) {
        std::fprintf(stderr, "perfbench: cannot write spans to '%s'\n",
                     opt.spans_path.c_str());
        return 1;
      }
      std::printf("spans: %zu written to %s\n", all.size(),
                  opt.spans_path.c_str());
    }
  }
  std::printf("%s\n", result_json(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
