#include "workloads.h"

#include <deque>
#include <filesystem>

#include "backend/pipeline.h"
#include "core/layouts.h"
#include "db/kernel.h"
#include "db/tpcd/workload.h"
#include "frontend/front_end.h"
#include "profile/profile.h"
#include "sim/fetch_unit.h"
#include "sim/icache.h"
#include "sim/replay.h"
#include "sim/trace_cache.h"
#include "spans.h"
#include "trace/block_trace.h"
#include "trace/trace_io.h"
#include "verify/oracle.h"
#include "workload/composer.h"
#include "workload/streams.h"

namespace perfbench {

namespace {

using namespace stc;
using core::LayoutKind;
using Params = std::vector<std::pair<std::string, std::string>>;

const cfg::ProgramImage& image() { return db::kernel_image(); }

void require_clean(const verify::Report& report, const char* what) {
  if (report.ok()) return;
  throw StatusError(
      internal_error(std::string(what) + " failed: " + report.summary()));
}

// ---- set-up steps, each a span around one module call ----------------------

std::unique_ptr<db::Database> build_database(std::uint64_t seed,
                                             db::IndexKind kind) {
  ScopedSpan span("db.build");
  db::tpcd::WorkloadConfig config;
  config.scale_factor = kScaleFactor;
  config.seed = seed;
  return db::tpcd::make_database(config, kind);
}

std::shared_ptr<const sim::EventSlab> build_slab(
    const trace::BlockTrace& trace) {
  ScopedSpan span("sim.slab", trace.num_events());
  auto slab = std::make_shared<sim::EventSlab>();
  slab->build(trace);
  return slab;
}

// Instructions a replay of `slab` must count: the independent total the
// verify identities check each cell against.
std::uint64_t expected_instructions(const sim::EventSlab& slab) {
  ScopedSpan span("perfbench.expect", slab.size());
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < slab.size(); ++i) {
    total += image().block(slab[i]).insns;
  }
  return total;
}

std::unique_ptr<const sim::ReplayPlan> build_plan(
    std::shared_ptr<const sim::EventSlab> slab, const cfg::AddressMap& layout,
    const sim::BackendSpec& backend = {}) {
  ScopedSpan span("sim.plan");
  return std::make_unique<const sim::ReplayPlan>(
      sim::build_replay_plan(sim::ReplayMode::kCompiled, std::move(slab),
                             image(), layout, kLineBytes, backend)
          .take());
}

// Both paper databases, the Training-set profile and trace, and optionally
// the Test-set trace: the inputs every bench binary starts from
// (bench::Setup does the same steps).
class Recording {
 public:
  Recording(std::uint64_t seed, bool with_test)
      : btree_(build_database(seed, db::IndexKind::kBTree)),
        hash_(build_database(seed, db::IndexKind::kHash)),
        profile_(image()) {
    {
      ScopedSpan span("db.record");
      trace::TraceRecorder recorder(training_);
      cfg::TeeSink tee;
      tee.add(&profile_);
      tee.add(&recorder);
      db::tpcd::run_training_workload(*btree_, &tee);
      span.set_count(training_.num_events());
    }
    if (with_test) {
      ScopedSpan span("db.record");
      trace::TraceRecorder recorder(test_);
      db::tpcd::run_test_workload(*btree_, *hash_, &recorder);
      span.set_count(test_.num_events());
    }
    ScopedSpan span("profile.wcfg");
    wcfg_ = std::make_unique<profile::WeightedCFG>(
        profile::WeightedCFG::from_profile(profile_));
  }

  const trace::BlockTrace& training() const { return training_; }
  const trace::BlockTrace& test() const { return test_; }

  // Builds a layout; the reference stays valid for the recording's life.
  const cfg::AddressMap& layout(LayoutKind kind, std::uint32_t cache_bytes,
                                std::uint32_t cfa_bytes) {
    ScopedSpan span("core.layout");
    layouts_.push_back(core::make_layout(kind, *wcfg_, cache_bytes, cfa_bytes));
    return layouts_.back();
  }

 private:
  std::unique_ptr<db::Database> btree_;
  std::unique_ptr<db::Database> hash_;
  profile::Profile profile_;
  trace::BlockTrace training_;
  trace::BlockTrace test_;
  std::unique_ptr<profile::WeightedCFG> wcfg_;
  std::deque<cfg::AddressMap> layouts_;  // deque: references stay valid
};

// ---- cells ----------------------------------------------------------------

ExperimentResult missrate_cell(const sim::ReplayPlan& plan,
                               const sim::CacheGeometry& geometry,
                               std::uint32_t victim_lines,
                               std::uint64_t expected) {
  sim::ICache cache(geometry, victim_lines);
  const sim::MissRateResult r = [&] {
    ScopedSpan span("sim.missrate", plan.num_events());
    return sim::replay_missrate(plan, cache);
  }();
  {
    ScopedSpan span("verify.check");
    require_clean(verify::check_missrate_result(r, cache.stats(), expected),
                  "missrate counters");
  }
  ExperimentResult result;
  result.metric("miss_pct", r.misses_per_100_insns());
  r.export_counters(result.counters());
  cache.stats().export_counters(result.counters());
  result.counters().add("blocks", plan.num_events());
  return result;
}

ExperimentResult fetch_cell(const sim::ReplayPlan& plan,
                            const sim::CacheGeometry& geometry, bool ideal,
                            bool trace_cache, std::uint64_t expected) {
  sim::FetchParams params;
  params.perfect_icache = ideal;
  sim::ICache cache(geometry);
  sim::ICache* icache = ideal ? nullptr : &cache;
  const sim::FetchResult r = [&] {
    if (trace_cache) {
      ScopedSpan span("sim.tc", plan.num_events());
      return sim::run_trace_cache(plan, params, sim::TraceCacheParams{},
                                  icache);
    }
    ScopedSpan span("sim.seq3", plan.num_events());
    return sim::run_seq3(plan, params, icache);
  }();
  {
    ScopedSpan span("verify.check");
    require_clean(verify::check_fetch_result(r, params, expected, trace_cache),
                  "fetch counters");
  }
  ExperimentResult result;
  result.metric("ipc", r.ipc());
  r.export_counters(result.counters());
  if (!ideal) cache.stats().export_counters(result.counters());
  result.counters().add("blocks", plan.num_events());
  return result;
}

// The realistic front end of the pipeline cells: gshare with FDIP
// prefetching along the predicted path.
frontend::FrontEndParams gshare_fdip() {
  frontend::FrontEndParams fe;
  fe.kind = frontend::BpredKind::kGshare;
  fe.prefetch = true;
  return fe;
}

backend::BackendParams ooo_backend() {
  backend::BackendParams bp;
  bp.kind = backend::BackendKind::kOoo;  // IQ 16 / ROB 64 by default
  return bp;
}

ExperimentResult frontend_cell(const sim::ReplayPlan& plan,
                               const sim::CacheGeometry& geometry,
                               bool trace_cache, std::uint64_t expected) {
  const sim::FetchParams params;
  const frontend::FrontEndParams fe = gshare_fdip();
  sim::ICache cache(geometry);
  const frontend::FrontEndResult r = [&] {
    ScopedSpan span("frontend.run", plan.num_events());
    return trace_cache
               ? frontend::run_trace_cache_frontend(
                     plan, params, sim::TraceCacheParams{}, fe, &cache)
               : frontend::run_seq3_frontend(plan, params, fe, &cache);
  }();
  {
    ScopedSpan span("verify.check");
    require_clean(verify::check_frontend_result(r, params, fe, expected,
                                                trace_cache),
                  "front-end counters");
  }
  ExperimentResult result;
  result.metric("ipc", r.fetch.ipc());
  r.fetch.export_counters(result.counters());
  r.frontend.export_counters(result.counters());
  cache.stats().export_counters(result.counters());
  result.counters().add("blocks", plan.num_events());
  return result;
}

ExperimentResult backend_cell(const sim::ReplayPlan& plan,
                              const sim::CacheGeometry& geometry,
                              std::uint64_t expected) {
  const sim::FetchParams params;
  const frontend::FrontEndParams fe = gshare_fdip();
  const backend::BackendParams bp = ooo_backend();
  sim::ICache cache(geometry);
  const backend::BackendResult r = [&] {
    ScopedSpan span("backend.run", plan.num_events());
    return backend::run_seq3_backend(plan, params, fe, bp, &cache).take();
  }();
  {
    ScopedSpan span("verify.check");
    require_clean(
        verify::check_backend_result(r, params, fe, bp, expected),
        "back-end counters");
  }
  ExperimentResult result;
  result.metric("ipc", r.ipc());
  r.fetch.export_counters(result.counters());
  r.frontend.export_counters(result.counters());
  r.backend.export_counters(result.counters());
  cache.stats().export_counters(result.counters());
  result.counters().add("blocks", plan.num_events());
  return result;
}

ExperimentResult stream_missrate_cell(const std::string& path,
                                      const sim::ReplayPlan& tables,
                                      const sim::CacheGeometry& geometry,
                                      std::uint64_t expected) {
  const trace::TraceReader reader = [&] {
    ScopedSpan span("trace.open");
    return trace::TraceReader::open(path).take();
  }();
  sim::ICache cache(geometry);
  const sim::MissRateResult r = [&] {
    ScopedSpan span("sim.stream_missrate", reader.num_events());
    return sim::replay_missrate_streamed(reader, tables.meta(),
                                         &tables.compiled(), cache)
        .take();
  }();
  {
    ScopedSpan span("verify.check");
    require_clean(verify::check_missrate_result(r, cache.stats(), expected),
                  "streamed missrate counters");
  }
  ExperimentResult result;
  result.metric("miss_pct", r.misses_per_100_insns());
  r.export_counters(result.counters());
  cache.stats().export_counters(result.counters());
  result.counters().add("blocks", reader.num_events());
  return result;
}

// ---- workloads ------------------------------------------------------------

struct CfaPoint {
  std::uint32_t cache_bytes;
  std::uint32_t cfa_bytes;
};

// The Table 3 rows, as bench::Env::cfa_sweep() defines them.
constexpr CfaPoint kCfaSweep[] = {
    {1024, 256},  {1024, 512},  {1024, 768},  {2048, 512},  {2048, 1024},
    {2048, 1536}, {4096, 512},  {4096, 1024}, {4096, 2048}, {4096, 3072},
    {8192, 1024}, {8192, 2048}, {8192, 3072},
};

struct NamedKind {
  LayoutKind kind;
  const char* label;
};
constexpr NamedKind kFiveLayouts[] = {{LayoutKind::kOrig, "orig"},
                                      {LayoutKind::kPettisHansen, "ph"},
                                      {LayoutKind::kTorrellas, "torr"},
                                      {LayoutKind::kStcAuto, "auto"},
                                      {LayoutKind::kStcOps, "ops"}};
constexpr NamedKind kGeometryLayouts[] = {{LayoutKind::kTorrellas, "torr"},
                                          {LayoutKind::kStcAuto, "auto"},
                                          {LayoutKind::kStcOps, "ops"}};

// The fetch workloads' i-cache and the CFA their layouts are built for
// (the Table 4 "Ideal" row's geometry).
constexpr std::uint32_t kFetchCache = 4096;
constexpr std::uint32_t kFetchCfa = 1024;

// Samples of the Test trace, which the grids replay instead of the whole
// trace. The trace is cut into two halves, one per database, and each half
// into kSegments equal segments. A half yields `per_half` samples; each
// joins one slice from the start of every segment of its half, and the
// slices of one segment are consecutive, kSegmentEvents in all. Contiguous
// windows gave each seed's cells a different query mix, and CPU time per
// pass swung by 40% from seed to seed; evenly spread segments keep every
// query phase in every sample. A fixed event count (rather than a share of
// the trace, whose length varies with the seed) keeps the work per cell the
// same at every seed, and a grid pass between 1 and 5 s on two workers.
// Each cell starts with empty caches, predictor tables and trace cache.
constexpr std::size_t kHalves = 2;
constexpr std::size_t kSegments = 16;
constexpr std::uint64_t kSegmentEvents = 90000;

struct Sample {
  std::string label;
  std::shared_ptr<const sim::EventSlab> slab;
  std::uint64_t expected = 0;
};

std::vector<Sample> make_samples(const trace::BlockTrace& test,
                                 std::size_t per_half) {
  const auto whole = build_slab(test);
  const std::uint64_t half = whole->size() / kHalves;
  const std::uint64_t segment = half / kSegments;
  if (segment < kSegmentEvents) {
    throw StatusError(internal_error("Test trace too short for the samples"));
  }
  const std::uint64_t length = kSegmentEvents / per_half;
  std::vector<Sample> samples;
  for (std::size_t h = 0; h < kHalves; ++h) {
    for (std::size_t j = 0; j < per_half; ++j) {
      auto slab = std::make_shared<sim::EventSlab>();
      {
        ScopedSpan span("sim.slab", length * kSegments);
        std::vector<cfg::BlockId> events;
        events.reserve(length * kSegments);
        for (std::size_t k = 0; k < kSegments; ++k) {
          const cfg::BlockId* first =
              whole->data() + h * half + k * segment + j * length;
          events.insert(events.end(), first, first + length);
        }
        slab->adopt(std::move(events));
      }
      const std::uint64_t expected = expected_instructions(*slab);
      samples.push_back({"s" + std::to_string(samples.size()),
                         std::move(slab), expected});
    }
  }
  return samples;
}

// Table 3: miss rate of the five layouts over the cache/CFA sweep, plus
// 2-way and victim caches on orig, on each sample, through the compiled
// miss-rate kernel.
class Table3Missrate final : public Workload {
 public:
  explicit Table3Missrate(std::uint64_t seed) : rec_(seed, true) {
    training_events_ = rec_.training().num_events();
    test_events_ = rec_.test().num_events();
    const cfg::AddressMap& orig = rec_.layout(LayoutKind::kOrig, 4096, 1024);
    const cfg::AddressMap& ph =
        rec_.layout(LayoutKind::kPettisHansen, 4096, 1024);
    std::vector<const cfg::AddressMap*> per_point;
    for (const CfaPoint& p : kCfaSweep) {
      for (const NamedKind& k : kGeometryLayouts) {
        per_point.push_back(&rec_.layout(k.kind, p.cache_bytes, p.cfa_bytes));
      }
    }
    for (const Sample& w : make_samples(rec_.test(), 1)) {
      const std::uint64_t expected = w.expected;
      const sim::ReplayPlan& orig_plan = keep(build_plan(w.slab, orig));
      const sim::ReplayPlan& ph_plan = keep(build_plan(w.slab, ph));
      std::uint32_t last_cache = 0;
      std::size_t next = 0;
      for (const CfaPoint& p : kCfaSweep) {
        const sim::CacheGeometry dm{p.cache_bytes, kLineBytes, 1};
        const std::string cache =
            w.label + "-c" + std::to_string(p.cache_bytes);
        const auto params = [&](const char* layout) {
          return Params{{"sample", w.label},
                        {"cache_bytes", std::to_string(p.cache_bytes)},
                        {"cfa_bytes", std::to_string(p.cfa_bytes)},
                        {"layout", layout}};
        };
        if (p.cache_bytes != last_cache) {
          last_cache = p.cache_bytes;
          const sim::CacheGeometry two_way{p.cache_bytes, kLineBytes, 2};
          add(cache + "-orig", params("orig"), [&orig_plan, dm, expected] {
            return missrate_cell(orig_plan, dm, 0, expected);
          });
          add(cache + "-ph", params("ph"), [&ph_plan, dm, expected] {
            return missrate_cell(ph_plan, dm, 0, expected);
          });
          add(cache + "-orig-2way", params("orig-2way"),
              [&orig_plan, two_way, expected] {
                return missrate_cell(orig_plan, two_way, 0, expected);
              });
          add(cache + "-orig-victim", params("orig-victim"),
              [&orig_plan, dm, expected] {
                return missrate_cell(orig_plan, dm, 4, expected);
              });
        }
        for (const NamedKind& k : kGeometryLayouts) {
          const sim::ReplayPlan& plan =
              keep(build_plan(w.slab, *per_point[next++]));
          add(cache + "-f" + std::to_string(p.cfa_bytes) + "-" + k.label,
              params(k.label), [&plan, dm, expected] {
                return missrate_cell(plan, dm, 0, expected);
              });
        }
      }
    }
  }

 private:
  const sim::ReplayPlan& keep(std::unique_ptr<const sim::ReplayPlan> plan) {
    plans_.push_back(std::move(plan));
    return *plans_.back();
  }

  Recording rec_;
  std::vector<std::unique_ptr<const sim::ReplayPlan>> plans_;
};

// Table 4: SEQ.3 over the five layouts and SEQ.3 with a 256-entry trace
// cache on orig and ops (the paper's "TC" and "TC+ops" columns), each with
// ideal and real i-cache; instruction-granular fetch. Ten SEQ.3 cells to
// four trace-cache cells per sample also keep the median cell inside the
// SEQ.3 cells: with as many of each, it fell in the gap between the two
// and swung by 24% from run to run. Two samples per half give 56 cells a
// pass, so a pass's tail (10 cells beyond) is its p82.
class Table4Fetch final : public Workload {
 public:
  explicit Table4Fetch(std::uint64_t seed) : rec_(seed, true) {
    training_events_ = rec_.training().num_events();
    test_events_ = rec_.test().num_events();
    std::vector<const cfg::AddressMap*> layouts;
    for (const NamedKind& k : kFiveLayouts) {
      layouts.push_back(&rec_.layout(k.kind, kFetchCache, kFetchCfa));
    }
    const sim::CacheGeometry dm{kFetchCache, kLineBytes, 1};
    for (const Sample& w : make_samples(rec_.test(), 2)) {
      for (std::size_t l = 0; l < std::size(kFiveLayouts); ++l) {
        plans_.push_back(build_plan(w.slab, *layouts[l]));
        const sim::ReplayPlan& plan = *plans_.back();
        const std::uint64_t expected = w.expected;
        const std::string prefix = w.label + "-" + kFiveLayouts[l].label;
        const bool with_tc = kFiveLayouts[l].kind == LayoutKind::kOrig ||
                             kFiveLayouts[l].kind == LayoutKind::kStcOps;
        for (const bool tc : {false, true}) {
          if (tc && !with_tc) continue;
          for (const bool ideal : {true, false}) {
            const char* sim_name = tc ? "tc" : "seq3";
            const char* icache = ideal ? "ideal" : "real";
            add(prefix + "-" + sim_name + "-" + icache,
                {{"sample", w.label},
                 {"layout", kFiveLayouts[l].label},
                 {"sim", sim_name},
                 {"icache", icache}},
                [&plan, dm, ideal, tc, expected] {
                  return fetch_cell(plan, dm, ideal, tc, expected);
                });
          }
        }
      }
    }
  }

 private:
  Recording rec_;
  std::vector<std::unique_ptr<const sim::ReplayPlan>> plans_;
};

// gshare + FDIP front end alone and feeding the out-of-order back end, on
// orig and ops, and in front of the trace cache on ops ("TC+ops"). One
// trace-cache cell per sample keeps the median cell among the front-end
// cells: with one per layout it fell in the gap between the ops and orig
// trace-cache cells and swung by 24% from run to run. Four samples per half
// give 40 cells a pass, so a pass's tail (10 cells beyond) is its p75, in
// the middle of the back-end cells.
class PipelineGshare final : public Workload {
 public:
  explicit PipelineGshare(std::uint64_t seed) : rec_(seed, true) {
    training_events_ = rec_.training().num_events();
    test_events_ = rec_.test().num_events();
    const NamedKind kinds[] = {{LayoutKind::kOrig, "orig"},
                               {LayoutKind::kStcOps, "ops"}};
    std::vector<const cfg::AddressMap*> layouts;
    for (const NamedKind& k : kinds) {
      layouts.push_back(&rec_.layout(k.kind, kFetchCache, kFetchCfa));
    }
    const sim::CacheGeometry dm{kFetchCache, kLineBytes, 1};
    const sim::BackendSpec spec = ooo_backend().spec();
    for (const Sample& w : make_samples(rec_.test(), 4)) {
      for (std::size_t l = 0; l < std::size(kinds); ++l) {
        plans_.push_back(build_plan(w.slab, *layouts[l], spec));
        const sim::ReplayPlan& plan = *plans_.back();
        const std::uint64_t expected = w.expected;
        const std::string prefix = w.label + "-" + kinds[l].label;
        const auto params = [&](const char* machine) {
          return Params{{"sample", w.label},
                        {"layout", kinds[l].label},
                        {"machine", machine}};
        };
        add(prefix + "-fe", params("gshare-seq3"), [&plan, dm, expected] {
          return frontend_cell(plan, dm, false, expected);
        });
        add(prefix + "-be", params("gshare-seq3-ooo"), [&plan, dm, expected] {
          return backend_cell(plan, dm, expected);
        });
        if (kinds[l].kind != LayoutKind::kStcOps) continue;
        add(prefix + "-tcfe", params("gshare-tc"), [&plan, dm, expected] {
          return frontend_cell(plan, dm, true, expected);
        });
      }
    }
  }

 private:
  Recording rec_;
  std::vector<std::unique_ptr<const sim::ReplayPlan>> plans_;
};

// Four tenants (dss,oltp) recorded from fresh databases, composed with
// Poisson arrivals and a 1000-event quantum, and written in kParts
// contiguous parts as on-disk v3 traces (~5M events each) through the
// streaming writer. Each cell replays one part from disk, chunk by chunk,
// for miss rate under one of the five layouts at an 8KB cache: 40 cells a
// pass, so a pass's tail (10 cells beyond) is its p75. With one file, five
// cells made too small a grid for a tail.
class StreamCompose final : public Workload {
 public:
  static constexpr std::size_t kParts = 8;

  StreamCompose(std::uint64_t seed, const std::string& scratch_dir)
      : rec_(seed, false) {
    training_events_ = rec_.training().num_events();
    for (std::size_t p = 0; p < kParts; ++p) {
      parts_.push_back({scratch_dir + "/stream_compose." + std::to_string(p) +
                            ".trace",
                        0});
    }
    {
      const auto btree = build_database(seed, db::IndexKind::kBTree);
      const auto hash = build_database(seed, db::IndexKind::kHash);
      std::vector<workload::TenantStream> streams;
      {
        ScopedSpan span("workload.streams");
        workload::StreamConfig config;
        config.oltp_seed = seed;
        streams = workload::make_tenant_streams(
            4, {workload::MixKind::kDss, workload::MixKind::kOltp}, *btree,
            *hash, config, image());
      }
      workload::ComposeParams params;
      params.quantum_events = 1000;
      params.arrival = workload::ArrivalKind::kPoisson;
      params.seed = seed;
      const workload::ComposedTrace composed = [&] {
        ScopedSpan span("workload.compose");
        workload::ComposedTrace c = workload::compose(streams, params).take();
        span.set_count(c.segments.size());
        return c;
      }();
      test_events_ = composed.trace.num_events();
      // One decode of the composed trace streams each part to disk and
      // counts its instructions, the independent total its cells' verify
      // identities are checked against.
      ScopedSpan span("trace.write");
      std::uint64_t bytes = 0;
      trace::BlockTrace::Cursor cursor(composed.trace);
      for (std::size_t p = 0; p < kParts; ++p) {
        trace::TraceFileWriter writer =
            trace::TraceFileWriter::create(parts_[p].path).take();
        for (std::uint64_t e = p * test_events_ / kParts;
             e < (p + 1) * test_events_ / kParts; ++e) {
          const cfg::BlockId block = cursor.next();
          parts_[p].expected += image().block(block).insns;
          writer.append(block);
        }
        const Status saved = writer.finalize();
        if (!saved.is_ok()) throw StatusError(saved);
        bytes += std::filesystem::file_size(parts_[p].path);
      }
      span.set_count(bytes);
    }
    // Plans over an empty slab: the streamed kernel only needs the
    // per-block metadata and compiled line tables.
    const auto empty = std::make_shared<const sim::EventSlab>();
    constexpr std::uint32_t kCache = 8192;
    constexpr std::uint32_t kCfa = 2048;
    const sim::CacheGeometry dm{kCache, kLineBytes, 1};
    for (const NamedKind& k : kFiveLayouts) {
      plans_.push_back(build_plan(empty, rec_.layout(k.kind, kCache, kCfa)));
    }
    for (std::size_t p = 0; p < kParts; ++p) {
      for (std::size_t l = 0; l < std::size(kFiveLayouts); ++l) {
        const Part& part = parts_[p];
        const sim::ReplayPlan& plan = *plans_[l];
        add("p" + std::to_string(p) + "-c8192-" + kFiveLayouts[l].label,
            {{"part", std::to_string(p)},
             {"cache_bytes", std::to_string(kCache)},
             {"cfa_bytes", std::to_string(kCfa)},
             {"layout", kFiveLayouts[l].label}},
            [&part, &plan, dm] {
              return stream_missrate_cell(part.path, plan, dm, part.expected);
            });
      }
    }
  }

  ~StreamCompose() override {
    for (const Part& part : parts_) {
      std::error_code ignored;
      std::filesystem::remove(part.path, ignored);
    }
  }

 private:
  struct Part {
    std::string path;
    std::uint64_t expected = 0;  // instructions in the part
  };

  Recording rec_;
  std::vector<Part> parts_;  // filled before any cell is added
  std::vector<std::unique_ptr<const sim::ReplayPlan>> plans_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "table3_missrate", "table4_fetch", "pipeline_gshare", "stream_compose"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& scratch_dir) {
  if (name == "table3_missrate") return std::make_unique<Table3Missrate>(seed);
  if (name == "table4_fetch") return std::make_unique<Table4Fetch>(seed);
  if (name == "pipeline_gshare") return std::make_unique<PipelineGshare>(seed);
  if (name == "stream_compose") {
    return std::make_unique<StreamCompose>(seed, scratch_dir);
  }
  return nullptr;
}

}  // namespace perfbench
