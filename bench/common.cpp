#include "bench/common.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <tuple>

#include "support/check.h"
#include "support/env.h"
#include "trace/fetch_stream.h"
#include "verify/oracle.h"
#include "verify/reference.h"

namespace stc::bench {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

// ---- STC_VERIFY --------------------------------------------------------
// With STC_VERIFY=1 every measurement cell runs under the layout-equivalence
// oracle (src/verify): each distinct (trace, image, layout) triple gets one
// full structure + replay verification, and every simulator result is
// counter-checked. A violation aborts the bench — corrupted layouts must
// never produce numbers.

bool verify_enabled() {
  // Validated centrally (env::verify aborts the bench at startup on garbage
  // values); by this point the knob is a clean boolean.
  static const bool enabled = env::verify().value_or(false);
  return enabled;
}

void require_clean(const verify::Report& report, const char* what) {
  if (report.ok()) return;
  std::fprintf(stderr, "STC_VERIFY: %s failed verification:\n%s", what,
               report.summary().c_str());
  STC_CHECK_MSG(false, "STC_VERIFY violation (see report above)");
}

// Full oracle runs are memoized by identity so a grid sweeping many cells
// over few layouts verifies each layout once. The instruction-by-instruction
// replay walk is additionally bounded to a trace prefix: structure and the
// per-cell counter checks cover the whole trace, and a remapping bug corrupts
// the stream within the first events it touches, so the prefix keeps the
// whole-grid overhead under 2x wall-clock without losing detection power.
constexpr std::uint64_t kReplayPrefixEvents = 250000;

void verify_triple(const trace::BlockTrace& trace,
                   const cfg::ProgramImage& image,
                   const cfg::AddressMap& layout) {
  static std::mutex mu;
  static std::set<std::tuple<const void*, const void*, const void*>> seen;
  {
    const std::lock_guard<std::mutex> lock(mu);
    if (!seen.insert({&trace, &image, &layout}).second) return;
  }
  verify::OracleOptions options;
  options.simulators = false;  // per-cell counter checks cover the sims
  if (trace.num_events() <= kReplayPrefixEvents) {
    require_clean(
        verify::verify_layout(trace, image, layout, nullptr, options),
        layout.name().c_str());
    return;
  }
  trace::BlockTrace prefix;
  std::uint64_t taken = 0;
  trace.for_each([&](cfg::BlockId b) {
    if (taken++ < kReplayPrefixEvents) prefix.append(b);
  });
  require_clean(verify::verify_layout(prefix, image, layout, nullptr, options),
                layout.name().c_str());
}

// STC_VERIFY cross-check for a missrate or sequentiality cell:
// `fill_reference` runs the oracle's reference (verify/reference.h) into a
// fresh counter set, which must match the span kernel's counters bit for
// bit.
void cross_check_reference(
    const char* what, const CounterSet& actual,
    const std::function<void(CounterSet&)>& fill_reference) {
  CounterSet expected;
  fill_reference(expected);
  require_clean(verify::check_counters_equal(expected, actual, what),
                "reference cross-check");
}

// The memoized plan a fetch-family cell replays. Under STC_VERIFY each plan
// is checked once to feed exactly what the reference stream would
// (verify::check_plan_feed), which proves every fetch-family simulator's
// counters equal to a per-event walk's. Cached plans live as long as the
// process, so their addresses key the memo.
const sim::ReplayPlan& fetch_plan(const trace::BlockTrace& trace,
                                  const cfg::ProgramImage& image,
                                  const cfg::AddressMap& layout,
                                  std::uint32_t line_bytes,
                                  const sim::BackendSpec& backend = {}) {
  const sim::ReplayPlan& plan =
      plan_for(trace, image, layout, line_bytes, backend);
  if (!verify_enabled()) return plan;
  static std::mutex mu;
  static std::set<const sim::ReplayPlan*> checked;
  {
    const std::lock_guard<std::mutex> lock(mu);
    if (!checked.insert(&plan).second) return plan;
  }
  require_clean(verify::check_plan_feed(trace, image, layout, plan, backend),
                "plan feed");
  return plan;
}

}  // namespace

std::vector<CfaPoint> Env::cfa_sweep() const {
  // Structured like the paper's Table 3 rows (cache / CFA):
  // 8/2 8/4 8/6 | 16/4 16/8 16/12 | 32/4 32/8 32/16 32/24 | 64/8 64/16 64/24,
  // scaled to this kernel (divide by 8).
  return {
      {1024, 256},  {1024, 512},  {1024, 768},
      {2048, 512},  {2048, 1024}, {2048, 1536},
      {4096, 512},  {4096, 1024}, {4096, 2048}, {4096, 3072},
      {8192, 1024}, {8192, 2048}, {8192, 3072},
  };
}

Env Env::from_environment() {
  // Fail fast on any malformed knob — including ones this struct does not
  // carry (STC_THREADS, STC_BENCH_DIR, STC_FAULT, ...) — so a typo kills the
  // bench in milliseconds with a message instead of mid-sweep or silently.
  env::validate_all_or_exit();
  Env env;
  env.scale_factor = env::scale_factor().value();
  env.seed = env::seed().value();
  env.line_bytes = env::line_bytes().value();
  return env;
}

Setup::Setup(const Env& env) : env_(env) {
  const auto setup_start = std::chrono::steady_clock::now();
  db::tpcd::WorkloadConfig config;
  config.scale_factor = env.scale_factor;
  config.seed = env.seed;
  btree_ = db::tpcd::make_database(config, db::IndexKind::kBTree);
  hash_ = db::tpcd::make_database(config, db::IndexKind::kHash);
  setup_seconds_ = seconds_since(setup_start);

  const auto workload_start = std::chrono::steady_clock::now();
  profile_ = std::make_unique<profile::Profile>(db::kernel_image());
  {
    trace::TraceRecorder recorder(training_);
    cfg::TeeSink tee;
    tee.add(profile_.get());
    tee.add(&recorder);
    db::tpcd::run_training_workload(*btree_, &tee);
  }
  {
    trace::TraceRecorder recorder(test_);
    db::tpcd::run_test_workload(*btree_, *hash_, &recorder);
  }
  wcfg_ = std::make_unique<profile::WeightedCFG>(
      profile::WeightedCFG::from_profile(*profile_));
  workload_seconds_ = seconds_since(workload_start);
}

const cfg::ProgramImage& Setup::image() const { return db::kernel_image(); }

const cfg::AddressMap& Setup::layout(core::LayoutKind kind,
                                     std::uint32_t cache_bytes,
                                     std::uint32_t cfa_bytes) {
  // orig and P&H ignore the geometry; cache them once.
  if (kind == core::LayoutKind::kOrig || kind == core::LayoutKind::kPettisHansen) {
    cache_bytes = 0;
    cfa_bytes = 0;
  }
  for (const auto& cached : layouts_) {
    if (cached->kind == kind && cached->cache_bytes == cache_bytes &&
        cached->cfa_bytes == cfa_bytes) {
      return cached->map;
    }
  }
  const std::uint32_t effective_cache = cache_bytes == 0 ? 4096 : cache_bytes;
  const std::uint32_t effective_cfa = cache_bytes == 0 ? 1024 : cfa_bytes;
  layouts_.push_back(std::make_unique<CachedLayout>(CachedLayout{
      kind, cache_bytes, cfa_bytes,
      core::make_layout(kind, *wcfg_, effective_cache, effective_cfa)}));
  return layouts_.back()->map;
}

ExperimentResult measure_miss(const trace::BlockTrace& trace,
                              const cfg::ProgramImage& image,
                              const cfg::AddressMap& layout,
                              const sim::CacheGeometry& geometry,
                              std::uint32_t victim_lines) {
  if (verify_enabled()) verify_triple(trace, image, layout);
  const sim::ReplayPlan& plan =
      plan_for(trace, image, layout, geometry.line_bytes);
  sim::ICache cache(geometry, victim_lines);
  const auto sim = sim::replay_missrate(plan, cache);
  if (verify_enabled()) {
    require_clean(verify::check_missrate_result(
                      sim, cache.stats(),
                      verify::trace_instructions(trace, image)),
                  "missrate counters");
  }
  ExperimentResult result;
  result.metric("miss_pct", sim.misses_per_100_insns());
  sim.export_counters(result.counters());
  cache.stats().export_counters(result.counters());
  result.counters().add("blocks", trace.num_events());
  if (verify_enabled()) {
    cross_check_reference("missrate", result.counters(), [&](CounterSet& out) {
      sim::ICache ref(geometry, victim_lines);
      const auto r = verify::reference_missrate(trace, image, layout, ref);
      r.export_counters(out);
      ref.stats().export_counters(out);
      out.add("blocks", trace.num_events());
    });
  }
  return result;
}

ExperimentResult measure_tenant_miss(const workload::ComposedTrace& composed,
                                     const cfg::ProgramImage& image,
                                     const cfg::AddressMap& layout,
                                     const sim::CacheGeometry& geometry) {
  const trace::BlockTrace& trace = composed.trace;
  if (verify_enabled()) verify_triple(trace, image, layout);
  const std::uint32_t line = geometry.line_bytes;
  sim::ICache cache(geometry);
  struct TenantStats {
    std::uint64_t instructions = 0;
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
  };
  std::vector<TenantStats> per(composed.tenant_events.size());
  TenantStats total;
  // Mirrors verify::reference_missrate line-crossing semantics exactly (the
  // aggregate counters must equal a plain run over the composed trace); the
  // extra state is the provenance-segment cursor selecting the charged
  // tenant.
  trace::BlockRunStream stream(trace, image, layout);
  trace::BlockRun run;
  std::size_t seg = 0;
  std::uint64_t seg_left =
      composed.segments.empty() ? 0 : composed.segments[0].events;
  std::uint64_t prev_line = ~std::uint64_t{0};
  while (stream.next(run)) {
    while (seg_left == 0 && seg + 1 < composed.segments.size()) {
      seg_left = composed.segments[++seg].events;
    }
    STC_CHECK_MSG(seg_left > 0, "composed trace outruns its segments");
    --seg_left;
    TenantStats& t = per[composed.segments[seg].tenant];
    t.instructions += run.insns;
    total.instructions += run.insns;
    const std::uint64_t first = run.addr / line;
    const std::uint64_t last = (run.end_addr() - 1) / line;
    for (std::uint64_t l = first; l <= last; ++l) {
      if (l == prev_line) continue;
      ++t.accesses;
      ++total.accesses;
      if (!cache.access(l * line)) {
        ++t.misses;
        ++total.misses;
      }
      prev_line = l;
    }
  }
  if (verify_enabled()) {
    // Independent recount: the attributed totals must match a plain
    // reference_missrate pass over the same trace with a fresh cache.
    sim::ICache ref(geometry);
    const auto r = verify::reference_missrate(trace, image, layout, ref);
    STC_CHECK_MSG(r.instructions == total.instructions &&
                      r.line_accesses == total.accesses &&
                      r.misses == total.misses,
                  "tenant-attributed counters diverge from the reference");
  }
  auto pct = [](const TenantStats& t) {
    return t.instructions == 0 ? 0.0
                               : 100.0 * static_cast<double>(t.misses) /
                                     static_cast<double>(t.instructions);
  };
  ExperimentResult result;
  result.metric("miss_pct", pct(total));
  double worst = 0.0;
  for (std::size_t i = 0; i < per.size(); ++i) {
    result.metric("miss_pct_t" + std::to_string(i), pct(per[i]));
    result.counters().add("t" + std::to_string(i) + "_misses", per[i].misses);
    worst = std::max(worst, pct(per[i]));
  }
  result.metric("worst_miss_pct", worst);
  result.counters().add("instructions", total.instructions);
  result.counters().add("line_accesses", total.accesses);
  result.counters().add("misses", total.misses);
  result.counters().add("blocks", trace.num_events());
  return result;
}

namespace {

// Baseline (perfect-prediction) cells: the exact code paths the paper's
// tables are measured with. measure_seq3/measure_tc dispatch here unless
// STC_BPRED selects a realistic predictor.
ExperimentResult measure_seq3_plain(const trace::BlockTrace& trace,
                                    const cfg::ProgramImage& image,
                                    const cfg::AddressMap& layout,
                                    const sim::CacheGeometry& geometry,
                                    bool perfect) {
  if (verify_enabled()) verify_triple(trace, image, layout);
  const sim::ReplayPlan& plan =
      fetch_plan(trace, image, layout, geometry.line_bytes);
  sim::FetchParams params;
  params.perfect_icache = perfect;
  sim::ICache cache(geometry);
  const auto sim = sim::run_seq3(plan, params, perfect ? nullptr : &cache);
  if (verify_enabled()) {
    require_clean(verify::check_fetch_result(
                      sim, params, verify::trace_instructions(trace, image),
                      /*with_trace_cache=*/false),
                  "seq3 counters");
  }
  ExperimentResult result;
  result.metric("ipc", sim.ipc());
  sim.export_counters(result.counters());
  if (!perfect) cache.stats().export_counters(result.counters());
  result.counters().add("blocks", trace.num_events());
  return result;
}

ExperimentResult measure_tc_plain(const trace::BlockTrace& trace,
                                  const cfg::ProgramImage& image,
                                  const cfg::AddressMap& layout,
                                  const sim::CacheGeometry& geometry,
                                  const sim::TraceCacheParams& tc,
                                  bool perfect) {
  if (verify_enabled()) verify_triple(trace, image, layout);
  const sim::ReplayPlan& plan =
      fetch_plan(trace, image, layout, geometry.line_bytes);
  sim::FetchParams params;
  params.perfect_icache = perfect;
  sim::ICache cache(geometry);
  const auto sim =
      sim::run_trace_cache(plan, params, tc, perfect ? nullptr : &cache);
  if (verify_enabled()) {
    require_clean(verify::check_fetch_result(
                      sim, params, verify::trace_instructions(trace, image),
                      /*with_trace_cache=*/true),
                  "trace-cache counters");
  }
  ExperimentResult result;
  result.metric("ipc", sim.ipc());
  result.metric("tc_hit_pct", 100.0 * sim.tc_hit_ratio());
  sim.export_counters(result.counters());
  if (!perfect) cache.stats().export_counters(result.counters());
  result.counters().add("blocks", trace.num_events());
  return result;
}

}  // namespace

const frontend::FrontEndParams& frontend_params() {
  static const frontend::FrontEndParams params =
      frontend::FrontEndParams::from_environment();
  return params;
}

const backend::BackendParams& backend_params() {
  static const backend::BackendParams params =
      backend::BackendParams::from_environment();
  return params;
}

const sim::ReplayPlan& plan_for(const trace::BlockTrace& trace,
                                const cfg::ProgramImage& image,
                                const cfg::AddressMap& layout,
                                std::uint32_t line_bytes,
                                const sim::BackendSpec& backend) {
  static sim::ReplayPlanCache cache;
  // value() throws the build Status as a StatusError: the runner records
  // the cell as failed, and a retry asks the cache again.
  return *cache.get(trace, image, layout, line_bytes, backend).value();
}

const char* to_string(ReplaySimKind kind) {
  switch (kind) {
    case ReplaySimKind::kMissRate: return "missrate";
    case ReplaySimKind::kSequentiality: return "sequentiality";
    case ReplaySimKind::kSeq3: return "seq3";
    case ReplaySimKind::kTraceCache: return "trace_cache";
    case ReplaySimKind::kBackend: return "backend";
  }
  return "unknown";
}

namespace {

// The fixed machine the replay-throughput "backend" rows measure: the
// default out-of-order window. Deliberately independent of the STC_BACKEND
// knobs — the throughput bench measures replay speed, not machine shapes.
backend::BackendParams replay_bench_backend() {
  backend::BackendParams bp;
  bp.kind = backend::BackendKind::kOoo;
  return bp;
}

// Runs one simulator kind on `plan` and exports its counters in the cell's
// canonical order.
void run_plan_sim(ReplaySimKind kind, const sim::ReplayPlan& plan,
                  const sim::CacheGeometry& geometry, CounterSet& out) {
  switch (kind) {
    case ReplaySimKind::kMissRate: {
      sim::ICache cache(geometry);
      sim::replay_missrate(plan, cache).export_counters(out);
      cache.stats().export_counters(out);
      return;
    }
    case ReplaySimKind::kSequentiality:
      sim::replay_sequentiality(plan).export_counters(out);
      return;
    case ReplaySimKind::kSeq3: {
      sim::ICache cache(geometry);
      sim::run_seq3(plan, sim::FetchParams{}, &cache).export_counters(out);
      cache.stats().export_counters(out);
      return;
    }
    case ReplaySimKind::kTraceCache: {
      sim::ICache cache(geometry);
      sim::run_trace_cache(plan, sim::FetchParams{}, sim::TraceCacheParams{},
                           &cache)
          .export_counters(out);
      cache.stats().export_counters(out);
      return;
    }
    case ReplaySimKind::kBackend: {
      const frontend::FrontEndParams fe;  // transparent front end
      sim::ICache cache(geometry);
      const auto r = backend::run_seq3_backend(
          plan, sim::FetchParams{}, fe, replay_bench_backend(), &cache);
      if (!r.is_ok()) {
        throw StatusError(r.status().with_context("replay backend cell"));
      }
      r.value().fetch.export_counters(out);
      r.value().frontend.export_counters(out);
      r.value().backend.export_counters(out);
      cache.stats().export_counters(out);
      return;
    }
  }
}

// Runs the oracle's reference for a missrate or sequentiality cell, with the
// same counter order as run_plan_sim.
void run_reference_sim(ReplaySimKind kind, const trace::BlockTrace& trace,
                       const cfg::ProgramImage& image,
                       const cfg::AddressMap& layout,
                       const sim::CacheGeometry& geometry, CounterSet& out) {
  if (kind == ReplaySimKind::kSequentiality) {
    verify::reference_sequentiality(trace, image, layout).export_counters(out);
    return;
  }
  STC_REQUIRE(kind == ReplaySimKind::kMissRate);
  sim::ICache cache(geometry);
  verify::reference_missrate(trace, image, layout, cache).export_counters(out);
  cache.stats().export_counters(out);
}

bool has_reference(ReplaySimKind kind) {
  return kind == ReplaySimKind::kMissRate ||
         kind == ReplaySimKind::kSequentiality;
}

}  // namespace

ExperimentResult measure_replay_cell(const trace::BlockTrace& trace,
                                     const cfg::ProgramImage& image,
                                     const cfg::AddressMap& layout,
                                     const sim::CacheGeometry& geometry,
                                     ReplaySimKind sim_kind) {
  const std::uint32_t line_bytes =
      sim_kind == ReplaySimKind::kSequentiality ? 0 : geometry.line_bytes;
  const sim::BackendSpec spec = sim_kind == ReplaySimKind::kBackend
                                    ? replay_bench_backend().spec()
                                    : sim::BackendSpec{};

  // Plan build (timed separately: it amortizes over a whole grid in real
  // benches but must still be visible in the throughput report).
  const auto plan_start = std::chrono::steady_clock::now();
  Result<sim::ReplayPlan> built = sim::build_replay_plan(
      sim::ReplayMode::kCompiled, trace, image, layout, line_bytes, spec);
  const double plan_seconds = seconds_since(plan_start);
  if (!built.is_ok()) {
    throw StatusError(built.status().with_context("replay cell plan"));
  }
  const sim::ReplayPlan& plan = built.value();

  ExperimentResult result;
  const auto replay_start = std::chrono::steady_clock::now();
  run_plan_sim(sim_kind, plan, geometry, result.counters());
  const double seconds = seconds_since(replay_start);

  // Correctness gate: the kernels must reproduce their references bit for
  // bit, and the fetch family's plan must feed what the reference stream
  // would.
  verify::Report check;
  if (has_reference(sim_kind)) {
    CounterSet expected;
    run_reference_sim(sim_kind, trace, image, layout, geometry, expected);
    check = verify::check_counters_equal(expected, result.counters(),
                                         to_string(sim_kind));
  } else {
    check = verify::check_plan_feed(trace, image, layout, plan, spec);
  }
  if (!check.ok()) {
    throw StatusError(internal_error(std::string(to_string(sim_kind)) +
                                     " replay diverged from the reference: " +
                                     check.summary()));
  }

  const double events = static_cast<double>(trace.num_events());
  result.metric("events_per_sec", seconds > 0.0 ? events / seconds : 0.0);
  result.metric("seconds", seconds);
  result.metric("plan_seconds", plan_seconds);
  result.counters().add("blocks", trace.num_events());
  return result;
}

ExperimentResult measure_reference_cell(const trace::BlockTrace& trace,
                                        const cfg::ProgramImage& image,
                                        const cfg::AddressMap& layout,
                                        const sim::CacheGeometry& geometry,
                                        ReplaySimKind sim_kind) {
  STC_REQUIRE(has_reference(sim_kind));
  ExperimentResult result;
  const auto start = std::chrono::steady_clock::now();
  run_reference_sim(sim_kind, trace, image, layout, geometry,
                    result.counters());
  const double seconds = seconds_since(start);
  const double events = static_cast<double>(trace.num_events());
  result.metric("events_per_sec", seconds > 0.0 ? events / seconds : 0.0);
  result.metric("seconds", seconds);
  result.counters().add("blocks", trace.num_events());
  return result;
}

ExperimentResult measure_seq3(const trace::BlockTrace& trace,
                              const cfg::ProgramImage& image,
                              const cfg::AddressMap& layout,
                              const sim::CacheGeometry& geometry,
                              bool perfect) {
  const frontend::FrontEndParams& fe = frontend_params();
  const backend::BackendParams& bp = backend_params();
  if (!bp.off()) {
    return measure_seq3_backend(trace, image, layout, geometry, fe, bp,
                                perfect);
  }
  if (fe.transparent()) {
    return measure_seq3_plain(trace, image, layout, geometry, perfect);
  }
  return measure_seq3_bpred(trace, image, layout, geometry, fe, perfect);
}

ExperimentResult measure_tc(const trace::BlockTrace& trace,
                            const cfg::ProgramImage& image,
                            const cfg::AddressMap& layout,
                            const sim::CacheGeometry& geometry,
                            const sim::TraceCacheParams& tc, bool perfect) {
  const frontend::FrontEndParams& fe = frontend_params();
  if (fe.transparent()) {
    return measure_tc_plain(trace, image, layout, geometry, tc, perfect);
  }
  return measure_tc_bpred(trace, image, layout, geometry, tc, fe, perfect);
}

ExperimentResult measure_seq3_bpred(const trace::BlockTrace& trace,
                                    const cfg::ProgramImage& image,
                                    const cfg::AddressMap& layout,
                                    const sim::CacheGeometry& geometry,
                                    const frontend::FrontEndParams& fe,
                                    bool perfect) {
  if (fe.transparent()) {
    return measure_seq3_plain(trace, image, layout, geometry, perfect);
  }
  if (verify_enabled()) verify_triple(trace, image, layout);
  const sim::ReplayPlan& plan =
      fetch_plan(trace, image, layout, geometry.line_bytes);
  sim::FetchParams params;
  params.perfect_icache = perfect;
  sim::ICache cache(geometry);
  const auto sim = frontend::run_seq3_frontend(plan, params, fe,
                                               perfect ? nullptr : &cache);
  if (verify_enabled()) {
    require_clean(verify::check_frontend_result(
                      sim, params, fe,
                      verify::trace_instructions(trace, image),
                      /*with_trace_cache=*/false),
                  "front-end seq3 counters");
  }
  ExperimentResult result;
  result.metric("ipc", sim.fetch.ipc());
  result.metric("mpki", sim.frontend.mispredicts_per_ki(sim.fetch.instructions));
  sim.fetch.export_counters(result.counters());
  sim.frontend.export_counters(result.counters());
  if (!perfect) cache.stats().export_counters(result.counters());
  result.counters().add("blocks", trace.num_events());
  return result;
}

ExperimentResult measure_tc_bpred(const trace::BlockTrace& trace,
                                  const cfg::ProgramImage& image,
                                  const cfg::AddressMap& layout,
                                  const sim::CacheGeometry& geometry,
                                  const sim::TraceCacheParams& tc,
                                  const frontend::FrontEndParams& fe,
                                  bool perfect) {
  if (fe.transparent()) {
    return measure_tc_plain(trace, image, layout, geometry, tc, perfect);
  }
  if (verify_enabled()) verify_triple(trace, image, layout);
  const sim::ReplayPlan& plan =
      fetch_plan(trace, image, layout, geometry.line_bytes);
  sim::FetchParams params;
  params.perfect_icache = perfect;
  sim::ICache cache(geometry);
  const auto sim = frontend::run_trace_cache_frontend(
      plan, params, tc, fe, perfect ? nullptr : &cache);
  if (verify_enabled()) {
    require_clean(verify::check_frontend_result(
                      sim, params, fe,
                      verify::trace_instructions(trace, image),
                      /*with_trace_cache=*/true),
                  "front-end trace-cache counters");
  }
  ExperimentResult result;
  result.metric("ipc", sim.fetch.ipc());
  result.metric("tc_hit_pct", 100.0 * sim.fetch.tc_hit_ratio());
  result.metric("mpki", sim.frontend.mispredicts_per_ki(sim.fetch.instructions));
  sim.fetch.export_counters(result.counters());
  sim.frontend.export_counters(result.counters());
  if (!perfect) cache.stats().export_counters(result.counters());
  result.counters().add("blocks", trace.num_events());
  return result;
}

ExperimentResult measure_seq3_backend(const trace::BlockTrace& trace,
                                      const cfg::ProgramImage& image,
                                      const cfg::AddressMap& layout,
                                      const sim::CacheGeometry& geometry,
                                      const frontend::FrontEndParams& fe,
                                      const backend::BackendParams& bp,
                                      bool perfect) {
  STC_CHECK_MSG(!bp.off(),
                "measure_seq3_backend requires a non-off back end");
  if (verify_enabled()) verify_triple(trace, image, layout);
  const sim::ReplayPlan& plan =
      fetch_plan(trace, image, layout, geometry.line_bytes, bp.spec());
  sim::FetchParams params;
  params.perfect_icache = perfect;
  sim::ICache cache(geometry);
  const auto run = backend::run_seq3_backend(plan, params, fe, bp,
                                             perfect ? nullptr : &cache);
  if (!run.is_ok()) {
    throw StatusError(run.status().with_context("backend cell"));
  }
  const backend::BackendResult& sim = run.value();
  if (verify_enabled()) {
    require_clean(verify::check_backend_result(
                      sim, params, fe, bp,
                      verify::trace_instructions(trace, image)),
                  "back-end pipeline counters");
  }
  ExperimentResult result;
  result.metric("ipc", sim.ipc());
  if (!fe.transparent()) {
    result.metric("mpki",
                  sim.frontend.mispredicts_per_ki(sim.fetch.instructions));
  }
  sim.fetch.export_counters(result.counters());
  if (!fe.transparent()) sim.frontend.export_counters(result.counters());
  sim.backend.export_counters(result.counters());
  if (!perfect) cache.stats().export_counters(result.counters());
  result.counters().add("blocks", trace.num_events());
  return result;
}

ExperimentResult measure_seq(const trace::BlockTrace& trace,
                             const cfg::ProgramImage& image,
                             const cfg::AddressMap& layout) {
  if (verify_enabled()) verify_triple(trace, image, layout);
  // Sequentiality needs no cache-line tables: a layout-only plan suffices.
  const auto seq =
      sim::replay_sequentiality(plan_for(trace, image, layout, 0));
  ExperimentResult result;
  result.metric("insn_per_taken", seq.insns_between_taken_branches());
  seq.export_counters(result.counters());
  if (verify_enabled()) {
    cross_check_reference("sequentiality", result.counters(),
                          [&](CounterSet& out) {
                            verify::reference_sequentiality(trace, image,
                                                            layout)
                                .export_counters(out);
                          });
  }
  return result;
}

ExperimentResult measure_miss(Setup& setup, const cfg::AddressMap& layout,
                              const sim::CacheGeometry& geometry,
                              std::uint32_t victim_lines) {
  return measure_miss(setup.test_trace(), setup.image(), layout, geometry,
                      victim_lines);
}

ExperimentResult measure_seq3(Setup& setup, const cfg::AddressMap& layout,
                              const sim::CacheGeometry& geometry,
                              bool perfect) {
  return measure_seq3(setup.test_trace(), setup.image(), layout, geometry,
                      perfect);
}

ExperimentResult measure_tc(Setup& setup, const cfg::AddressMap& layout,
                            const sim::CacheGeometry& geometry,
                            const sim::TraceCacheParams& tc, bool perfect) {
  return measure_tc(setup.test_trace(), setup.image(), layout, geometry, tc,
                    perfect);
}

ExperimentResult measure_seq(Setup& setup, const cfg::AddressMap& layout) {
  return measure_seq(setup.test_trace(), setup.image(), layout);
}

ExperimentResult measure_seq3_bpred(Setup& setup, const cfg::AddressMap& layout,
                                    const sim::CacheGeometry& geometry,
                                    const frontend::FrontEndParams& fe,
                                    bool perfect) {
  return measure_seq3_bpred(setup.test_trace(), setup.image(), layout,
                            geometry, fe, perfect);
}

ExperimentResult measure_tc_bpred(Setup& setup, const cfg::AddressMap& layout,
                                  const sim::CacheGeometry& geometry,
                                  const sim::TraceCacheParams& tc,
                                  const frontend::FrontEndParams& fe,
                                  bool perfect) {
  return measure_tc_bpred(setup.test_trace(), setup.image(), layout, geometry,
                          tc, fe, perfect);
}

ExperimentResult measure_seq3_backend(Setup& setup,
                                      const cfg::AddressMap& layout,
                                      const sim::CacheGeometry& geometry,
                                      const frontend::FrontEndParams& fe,
                                      const backend::BackendParams& bp,
                                      bool perfect) {
  return measure_seq3_backend(setup.test_trace(), setup.image(), layout,
                              geometry, fe, bp, perfect);
}

double miss_pct(Setup& setup, const cfg::AddressMap& layout,
                const sim::CacheGeometry& geometry,
                std::uint32_t victim_lines) {
  return measure_miss(setup, layout, geometry, victim_lines)
      .metric("miss_pct");
}

double seq3_ipc(Setup& setup, const cfg::AddressMap& layout,
                const sim::CacheGeometry& geometry, bool perfect) {
  return measure_seq3(setup, layout, geometry, perfect).metric("ipc");
}

double tc_ipc(Setup& setup, const cfg::AddressMap& layout,
              const sim::CacheGeometry& geometry,
              const sim::TraceCacheParams& tc, bool perfect) {
  return measure_tc(setup, layout, geometry, tc, perfect).metric("ipc");
}

void print_banner(const char* title, const Env& env, const Setup& setup) {
  std::printf("== %s ==\n", title);
  std::printf(
      "setup: SF=%.4g seed=%llu line=%uB | training events=%llu "
      "test events=%llu | kernel: %zu routines, %zu blocks, %llu insns\n\n",
      env.scale_factor, static_cast<unsigned long long>(env.seed),
      env.line_bytes,
      static_cast<unsigned long long>(setup.training_trace().num_events()),
      static_cast<unsigned long long>(setup.test_trace().num_events()),
      setup.image().num_routines(), setup.image().num_blocks(),
      static_cast<unsigned long long>(setup.image().total_instructions()));
}

ExperimentRunner make_runner(const char* name, const Env& env,
                             const Setup& setup) {
  ExperimentRunner runner(name);
  // Bench grids are rebuilt identically by every process that runs the
  // binary with the same knobs, which is the contract the journal and
  // STC_RESUME need (see support/experiment.h).
  runner.set_shardable(true);
  runner.meta("scale_factor", env.scale_factor);
  runner.meta("seed", env.seed);
  runner.meta("line_bytes", std::uint64_t{env.line_bytes});
  // Constant since compiled became the only replay; kept so reports and
  // their schema locks do not move.
  runner.meta("replay_mode", "compiled");
  runner.meta("training_events", setup.training_trace().num_events());
  runner.meta("test_events", setup.test_trace().num_events());
  runner.meta("kernel_routines",
              static_cast<std::uint64_t>(setup.image().num_routines()));
  runner.meta("kernel_blocks",
              static_cast<std::uint64_t>(setup.image().num_blocks()));
  runner.meta("kernel_instructions", setup.image().total_instructions());
  runner.record_phase("setup", setup.setup_seconds());
  runner.record_phase("workload", setup.workload_seconds());
  // Every report carries the full phase set. Benches that build layouts up
  // front accumulate real seconds onto this entry via time_phase("layouts");
  // for the rest (layouts built inside jobs, or none at all) the phase is
  // present and zero, so consumers can rely on a uniform schema.
  runner.record_phase("layouts", 0.0);
  return runner;
}

int write_report(const ExperimentRunner& runner) {
  const Result<std::string> path = runner.write_report();
  if (!path.is_ok()) {
    std::fprintf(stderr, "[%s] %s\n", runner.name().c_str(),
                 path.status().to_string().c_str());
    return 1;
  }
  if (runner.all_ok()) {
    std::printf("\n[%s] wrote %s (%zu jobs)\n", runner.name().c_str(),
                path.value().c_str(), runner.num_jobs());
    return 0;
  }
  std::printf("\n[%s] wrote %s (%zu jobs, %zu FAILED — see report)\n",
              runner.name().c_str(), path.value().c_str(), runner.num_jobs(),
              runner.failures().size());
  return runner.exit_code();
}

}  // namespace stc::bench
