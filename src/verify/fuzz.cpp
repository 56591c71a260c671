#include "verify/fuzz.h"

#include <algorithm>
#include <unordered_set>

#include "cfg/address_map.h"
#include "cfg/builder.h"
#include "core/layouts.h"
#include "core/mapping.h"
#include "core/replication.h"
#include "frontend/front_end.h"
#include "sim/fetch_unit.h"
#include "sim/icache.h"
#include "core/stc_layout.h"
#include "sim/replay.h"
#include "sim/trace_cache.h"
#include "support/check.h"
#include "workload/composer.h"

namespace stc::verify {
namespace {

using cfg::BlockId;
using cfg::BlockKind;

constexpr core::LayoutKind kAllKinds[] = {
    core::LayoutKind::kOrig, core::LayoutKind::kPettisHansen,
    core::LayoutKind::kTorrellas, core::LayoutKind::kStcAuto,
    core::LayoutKind::kStcOps};

bool is_pow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

// Moves the address-adjacent successor of some block 4 bytes backwards —
// the overlap an off-by-one (one instruction short) block size in the
// mapping cursor would produce. Returns false when the layout has no two
// adjacent blocks to corrupt.
bool apply_injection(cfg::AddressMap& layout, const cfg::ProgramImage& image,
                     Injection injection) {
  if (injection != Injection::kShortBlock) return false;
  struct Placed {
    std::uint64_t begin;
    std::uint64_t end;
    BlockId block;
  };
  std::vector<Placed> placed;
  for (BlockId b = 0; b < image.num_blocks(); ++b) {
    if (!layout.assigned(b)) continue;
    const std::uint64_t begin = layout.addr(b);
    placed.push_back({begin, begin + image.block(b).bytes(), b});
  }
  std::sort(placed.begin(), placed.end(),
            [](const Placed& a, const Placed& b) { return a.begin < b.begin; });
  for (std::size_t i = 1; i < placed.size(); ++i) {
    if (placed[i - 1].end == placed[i].begin) {
      layout.set(placed[i].block, placed[i].begin - cfg::kInsnBytes);
      return true;
    }
  }
  return false;
}

const char* kind_name(BlockKind kind) {
  switch (kind) {
    case BlockKind::kFallThrough: return "stc::cfg::BlockKind::kFallThrough";
    case BlockKind::kBranch: return "stc::cfg::BlockKind::kBranch";
    case BlockKind::kCall: return "stc::cfg::BlockKind::kCall";
    case BlockKind::kReturn: return "stc::cfg::BlockKind::kReturn";
  }
  return "stc::cfg::BlockKind::kFallThrough";
}

}  // namespace

std::size_t FuzzCase::num_blocks() const {
  std::size_t n = 0;
  for (const FuzzRoutine& r : routines) n += r.blocks.size();
  return n;
}

bool check_case(const FuzzCase& c, std::string* why) {
  const auto reject = [&](const char* reason) {
    if (why != nullptr) *why = reason;
    return false;
  };
  if (c.cache_bytes == 0 || !is_pow2(c.cache_bytes) ||
      c.cache_bytes > (std::uint64_t{1} << 20)) {
    return reject("cache_bytes must be a power of two <= 1 MiB");
  }
  if (c.cfa_bytes >= c.cache_bytes) return reject("cfa_bytes >= cache_bytes");
  if (!is_pow2(c.line_bytes) || c.line_bytes > c.cache_bytes) {
    return reject("line_bytes must be a power of two <= cache_bytes");
  }
  for (const FuzzRoutine& r : c.routines) {
    if (r.blocks.empty()) return reject("empty routine");
    for (const FuzzBlock& b : r.blocks) {
      if (b.insns == 0) return reject("zero-size block");
    }
  }
  const std::size_t blocks = c.num_blocks();
  for (const FuzzEdge& e : c.edges) {
    if (e.from >= blocks || e.to >= blocks) {
      return reject("edge references out-of-range block");
    }
  }
  for (std::uint32_t ev : c.trace) {
    if (ev >= blocks) return reject("trace references out-of-range block");
  }
  for (std::uint32_t s : c.seeds) {
    if (s >= blocks) return reject("seed references out-of-range block");
  }
  return true;
}

BuiltCase build_case(const FuzzCase& c) {
  std::string why;
  STC_CHECK_MSG(check_case(c, &why), "build_case on invalid case");

  BuiltCase built;
  cfg::ProgramBuilder builder;
  const cfg::ModuleId mod = builder.module("fuzz");
  for (std::size_t r = 0; r < c.routines.size(); ++r) {
    std::vector<cfg::BlockDef> blocks;
    blocks.reserve(c.routines[r].blocks.size());
    for (std::size_t b = 0; b < c.routines[r].blocks.size(); ++b) {
      blocks.push_back({"r" + std::to_string(r) + "_b" + std::to_string(b),
                        c.routines[r].blocks[b].insns,
                        c.routines[r].blocks[b].kind});
    }
    builder.routine("r" + std::to_string(r), mod, std::move(blocks),
                    c.routines[r].executor_op);
  }
  built.image = builder.build();

  for (std::uint32_t ev : c.trace) built.trace.append(ev);

  built.wcfg.image = built.image.get();
  built.wcfg.block_count.assign(built.image->num_blocks(), 0);
  built.wcfg.succs.resize(built.image->num_blocks());
  for (std::uint32_t ev : c.trace) ++built.wcfg.block_count[ev];
  for (const FuzzEdge& e : c.edges) {
    built.wcfg.succs[e.from].push_back({e.to, e.count});
  }
  for (auto& succs : built.wcfg.succs) {
    std::sort(succs.begin(), succs.end(),
              [](const profile::WeightedCFG::Succ& x,
                 const profile::WeightedCFG::Succ& y) {
                if (x.count != y.count) return x.count > y.count;
                return x.to < y.to;
              });
  }
  return built;
}

namespace {

// Front-end checks over one layout: the transparent configuration must match
// the baseline simulators field for field, and a deliberately undersized
// realistic configuration (tiny tables, RAS shallower than the deep-call
// shapes) must satisfy the front-end counter identities.
Report check_frontend(const trace::BlockTrace& trace,
                      const cfg::ProgramImage& image,
                      const cfg::AddressMap& layout,
                      const sim::CacheGeometry& geometry) {
  Report report;
  const std::uint64_t expected = trace_instructions(trace, image);
  const sim::FetchParams params;
  const sim::TraceCacheParams tc_params;
  Result<sim::ReplayPlan> built =
      sim::build_replay_plan(sim::ReplayMode::kCompiled, trace, image, layout,
                             geometry.line_bytes);
  if (!built.is_ok()) {
    report.fail("plan build failed: " + built.status().to_string());
    return report;
  }
  const sim::ReplayPlan& plan = built.value();

  const auto same = [&report](const sim::FetchResult& a,
                              const sim::FetchResult& b, const char* what) {
    const auto eq = [&](std::uint64_t x, std::uint64_t y, const char* field) {
      if (x != y) {
        report.fail(std::string(what) + ": transparent front end diverges on " +
                    field + " (" + std::to_string(x) + " vs " +
                    std::to_string(y) + ")");
      }
    };
    eq(a.instructions, b.instructions, "instructions");
    eq(a.cycles, b.cycles, "cycles");
    eq(a.fetch_requests, b.fetch_requests, "fetch_requests");
    eq(a.miss_requests, b.miss_requests, "miss_requests");
    eq(a.lines_missed, b.lines_missed, "lines_missed");
    eq(a.tc_hits, b.tc_hits, "tc_hits");
    eq(a.tc_misses, b.tc_misses, "tc_misses");
    eq(a.tc_fills, b.tc_fills, "tc_fills");
    eq(a.tc_probes, b.tc_probes, "tc_probes");
  };

  const frontend::FrontEndParams transparent;
  {
    sim::ICache base_cache(geometry);
    const sim::FetchResult base = sim::run_seq3(plan, params, &base_cache);
    sim::ICache fe_cache(geometry);
    const frontend::FrontEndResult spec =
        frontend::run_seq3_frontend(plan, params, transparent, &fe_cache);
    same(spec.fetch, base, "seq3");
  }
  {
    sim::ICache base_cache(geometry);
    const sim::FetchResult base =
        sim::run_trace_cache(plan, params, tc_params, &base_cache);
    sim::ICache fe_cache(geometry);
    const frontend::FrontEndResult spec = frontend::run_trace_cache_frontend(
        plan, params, tc_params, transparent, &fe_cache);
    same(spec.fetch, base, "tc");
  }

  frontend::FrontEndParams realistic;
  realistic.kind = frontend::BpredKind::kGshare;
  realistic.table_bits = 6;   // tiny tables force aliasing
  realistic.btb_entries = 16;
  realistic.ras_depth = 4;
  realistic.prefetch = true;
  {
    sim::ICache cache(geometry);
    const frontend::FrontEndResult result =
        frontend::run_seq3_frontend(plan, params, realistic, &cache);
    report.merge(check_frontend_result(result, params, realistic, expected,
                                       /*with_trace_cache=*/false),
                 "seq3");
  }
  {
    sim::ICache cache(geometry);
    const frontend::FrontEndResult result = frontend::run_trace_cache_frontend(
        plan, params, tc_params, realistic, &cache);
    report.merge(check_frontend_result(result, params, realistic, expected,
                                       /*with_trace_cache=*/true),
                 "tc");
  }
  return report;
}

}  // namespace

Report run_case(const FuzzCase& c, Injection injection) {
  Report all;
  std::string why;
  if (!check_case(c, &why)) {
    all.fail("invalid fuzz case: " + why);
    return all;
  }
  const BuiltCase built = build_case(c);
  const cfg::ProgramImage& image = *built.image;

  OracleOptions options;
  options.geometry =
      sim::CacheGeometry{static_cast<std::uint32_t>(c.cache_bytes),
                         c.line_bytes, 1};

  // Every layout kind through the full oracle.
  for (core::LayoutKind kind : kAllKinds) {
    core::MappingProvenance provenance;
    cfg::AddressMap layout = core::make_layout(kind, built.wcfg, c.cache_bytes,
                                               c.cfa_bytes, &provenance);
    apply_injection(layout, image, injection);
    all.merge(verify_layout(built.trace, image, layout, &provenance, options));
    if (injection == Injection::kNone) {
      all.merge(check_frontend(built.trace, image, layout, options.geometry),
                "frontend");
    }
  }

  // Direct map_sequences over the raw seed list (duplicates and repeated
  // blocks across sequences are legal; the oracle must still hold).
  if (!c.seeds.empty()) {
    std::vector<core::Sequence> sequences;
    std::unordered_set<std::uint32_t> seeded(c.seeds.begin(), c.seeds.end());
    for (std::uint32_t s : c.seeds) {
      core::Sequence seq;
      seq.blocks = {s};
      seq.weight = 1;
      sequences.push_back(std::move(seq));
    }
    std::vector<BlockId> cold;
    for (BlockId b = 0; b < image.num_blocks(); ++b) {
      if (seeded.count(b) == 0) cold.push_back(b);
    }
    core::MappingParams params;
    params.cache_bytes = c.cache_bytes;
    params.cfa_bytes = c.cfa_bytes;
    core::MappingProvenance provenance;
    cfg::AddressMap layout = core::map_sequences(
        image, "fuzz-seeds", {{}, std::move(sequences)}, cold, params,
        &provenance);
    apply_injection(layout, image, injection);
    all.merge(verify_layout(built.trace, image, layout, &provenance, options));
  }

  // Replication round trip: the transformed trace projected back through the
  // replica provenance must be the original execution.
  {
    profile::Profile prof(image);
    prof.consume(built.trace);
    const core::Replicator replicator(image, prof);
    all.merge(check_replication_structure(image, replicator.image(),
                                          replicator.origin_blocks()),
              "replicate");
    const trace::BlockTrace transformed = replicator.transform(built.trace);
    all.merge(
        check_replicated_replay(built.trace, transformed, image,
                                replicator.image(),
                                replicator.origin_blocks()),
        "replicate");
    all.merge(check_replay(transformed, replicator.image(),
                           cfg::AddressMap::original(replicator.image())),
              "replicate/orig");
  }
  return all;
}

Report run_replay_diff(const FuzzCase& c) {
  Report all;
  std::string why;
  if (!check_case(c, &why)) {
    all.fail("invalid fuzz case: " + why);
    return all;
  }
  const BuiltCase built = build_case(c);
  const sim::CacheGeometry geometry{
      static_cast<std::uint32_t>(c.cache_bytes), c.line_bytes, 1};
  // Back-end configuration derived deterministically from the case content
  // so the corpus sweeps machine shapes (kind, IQ/ROB depths, cost model)
  // as well as program shapes — shrinking a divergence keeps its config
  // only as long as the content that produced it survives.
  backend::BackendParams bp;
  const std::uint64_t salt =
      c.num_blocks() * 7 + c.trace.size() * 5 + c.line_bytes;
  bp.kind = (salt % 2 == 0) ? backend::BackendKind::kOoo
                            : backend::BackendKind::kInOrder;
  bp.iq_depth = 2 + static_cast<std::uint32_t>(salt % 30);
  bp.rob_depth = bp.iq_depth + 1 + static_cast<std::uint32_t>(salt % 64);
  bp.fetch_buffer_ops = 4 + static_cast<std::uint32_t>(salt % 28);
  bp.mem_latency = static_cast<std::uint32_t>(salt % 6);
  bp.size_shift = 1 + static_cast<std::uint32_t>(salt % 4);
  for (core::LayoutKind kind : kAllKinds) {
    cfg::AddressMap layout =
        core::make_layout(kind, built.wcfg, c.cache_bytes, c.cfa_bytes);
    all.merge(
        check_replay_modes(built.trace, *built.image, layout, geometry, &bp),
        core::to_string(kind));
  }
  return all;
}

Report run_multitenant_diff(const FuzzCase& c) {
  Report all;
  std::string why;
  if (!check_case(c, &why)) {
    all.fail("invalid fuzz case: " + why);
    return all;
  }
  const BuiltCase built = build_case(c);
  const cfg::ProgramImage& image = *built.image;
  const sim::CacheGeometry geometry{
      static_cast<std::uint32_t>(c.cache_bytes), c.line_bytes, 1};

  // Composer shape derived deterministically from the case content, like
  // run_replay_diff's machine shape: tenant count, quantum and arrival
  // model all sweep with the corpus and shrink with the content.
  const std::uint64_t salt =
      c.num_blocks() * 7 + c.trace.size() * 5 + c.line_bytes;
  const std::uint32_t tenants = 1 + static_cast<std::uint32_t>(salt % 4);
  workload::ComposeParams params;
  switch (salt % 3) {
    case 0: params.quantum_events = 0; break;
    case 1: params.quantum_events = 1 + salt % 7; break;
    default: params.quantum_events = 1 + salt % 97; break;
  }
  params.arrival = static_cast<workload::ArrivalKind>((salt / 3) % 4);
  params.seed = salt * 0x9e3779b97f4a7c15ull + 1;

  // Contiguous spans of the case trace become the tenant streams.
  std::vector<workload::TenantStream> streams(tenants);
  for (std::uint32_t t = 0; t < tenants; ++t) {
    streams[t].name = "t" + std::to_string(t);
    const std::size_t begin = c.trace.size() * t / tenants;
    const std::size_t end = c.trace.size() * (t + 1) / tenants;
    for (std::size_t i = begin; i < end; ++i) {
      streams[t].trace.append(static_cast<BlockId>(c.trace[i]));
    }
  }

  Result<workload::ComposedTrace> first = workload::compose(streams, params);
  if (!first.is_ok()) {
    all.fail("compose failed: " + first.status().to_string());
    return all;
  }
  const workload::ComposedTrace& composed = first.value();

  // Determinism: the same streams and params give a byte-identical trace.
  Result<workload::ComposedTrace> second = workload::compose(streams, params);
  if (!second.is_ok() ||
      second.value().trace.serialize() != composed.trace.serialize()) {
    all.fail("composition is not deterministic under a fixed seed");
  }

  // Conservation: per-tenant totals match the inputs, segments cover the
  // merge exactly, and replaying the segment provenance against per-stream
  // cursors reproduces every stream event for event.
  std::uint64_t segment_total = 0;
  for (const workload::TenantSegment& seg : composed.segments) {
    segment_total += seg.events;
    if (seg.tenant >= tenants) {
      all.fail("segment names tenant " + std::to_string(seg.tenant));
    }
  }
  if (segment_total != composed.trace.num_events()) {
    all.fail("segments cover " + std::to_string(segment_total) +
             " events, composed trace holds " +
             std::to_string(composed.trace.num_events()));
  }
  for (std::uint32_t t = 0; t < tenants; ++t) {
    if (composed.tenant_events[t] != streams[t].trace.num_events()) {
      all.fail("tenant " + std::to_string(t) + " contributed " +
               std::to_string(composed.tenant_events[t]) + " events, stream " +
               "holds " + std::to_string(streams[t].trace.num_events()));
    }
  }
  {
    std::vector<trace::BlockTrace::Cursor> cursors;
    for (const workload::TenantStream& s : streams) cursors.emplace_back(s.trace);
    trace::BlockTrace::Cursor merged(composed.trace);
    bool provenance_ok = true;
    for (const workload::TenantSegment& seg : composed.segments) {
      for (std::uint64_t i = 0; i < seg.events && provenance_ok; ++i) {
        if (cursors[seg.tenant].done() ||
            cursors[seg.tenant].next() != merged.next()) {
          all.fail("segment provenance does not replay tenant " +
                   std::to_string(seg.tenant) + "'s stream");
          provenance_ok = false;
        }
      }
      if (!provenance_ok) break;
    }
  }

  // Single-tenant composition is the identity on the byte level.
  {
    std::vector<workload::TenantStream> single(1);
    single[0].name = "solo";
    for (std::uint32_t b : c.trace) {
      single[0].trace.append(static_cast<BlockId>(b));
    }
    Result<workload::ComposedTrace> solo = workload::compose(single, params);
    if (!solo.is_ok() ||
        solo.value().trace.serialize() != built.trace.serialize()) {
      all.fail("single-tenant composition is not byte-identical to the input");
    }
  }

  // The composed trace must pass the replay differential like any
  // recorded trace.
  for (core::LayoutKind kind :
       {core::LayoutKind::kOrig, core::LayoutKind::kStcOps}) {
    cfg::AddressMap layout =
        core::make_layout(kind, built.wcfg, c.cache_bytes, c.cfa_bytes);
    all.merge(check_replay_modes(composed.trace, image, layout, geometry),
              std::string("composed/") + core::to_string(kind));
  }

  // Tenant-partitioned layout from per-stream profiles, when the CFA can
  // give every tenant at least one byte.
  if (c.cfa_bytes >= tenants && image.num_blocks() > 0) {
    std::vector<profile::Profile> profiles;
    std::vector<profile::WeightedCFG> cfgs;
    profiles.reserve(tenants);
    cfgs.reserve(tenants);
    for (const workload::TenantStream& s : streams) {
      profiles.emplace_back(image);
      profiles.back().consume(s.trace);
      cfgs.push_back(profile::WeightedCFG::from_profile(profiles.back()));
    }
    std::vector<const profile::WeightedCFG*> cfg_ptrs;
    for (const profile::WeightedCFG& w : cfgs) cfg_ptrs.push_back(&w);
    core::StcParams stc;
    stc.cache_bytes = c.cache_bytes;
    stc.cfa_bytes = c.cfa_bytes;
    core::MappingProvenance provenance;
    const core::StcResult part = core::stc_layout_partitioned(
        cfg_ptrs, core::SeedKind::kOps, stc, &provenance);
    OracleOptions options;
    options.geometry = geometry;
    all.merge(verify_layout(composed.trace, image, part.layout, &provenance,
                            options),
              "partitioned");
  }
  return all;
}

FuzzCase random_case(Rng& rng) {
  FuzzCase c;
  c.cache_bytes = std::uint64_t{512} << rng.uniform(4);  // 512 .. 4096
  c.line_bytes = std::uint32_t{16} << rng.uniform(3);    // 16, 32, 64
  // CFA menu, including the extremes: none, and all-but-one-instruction.
  switch (rng.uniform(5)) {
    case 0: c.cfa_bytes = 0; break;
    case 1: c.cfa_bytes = c.cache_bytes - cfg::kInsnBytes; break;
    default: c.cfa_bytes = rng.uniform(c.cache_bytes / 2 + 1); break;
  }

  // Routines, occasionally none at all.
  const std::size_t nroutines =
      rng.chance(0.05) ? 0 : 1 + rng.uniform(6);
  for (std::size_t r = 0; r < nroutines; ++r) {
    FuzzRoutine routine;
    routine.executor_op = rng.chance(0.15);
    const std::size_t nblocks = rng.chance(0.2) ? 1 : 1 + rng.uniform(6);
    for (std::size_t b = 0; b < nblocks; ++b) {
      FuzzBlock block;
      if (rng.chance(0.1)) {
        // Bigger than a cache line — and sometimes than a whole inter-CFA
        // window — so mapping must handle blocks that dwarf the geometry.
        block.insns = static_cast<std::uint16_t>(
            c.line_bytes / cfg::kInsnBytes + 1 + rng.uniform(96));
      } else {
        block.insns = static_cast<std::uint16_t>(1 + rng.uniform(12));
      }
      if (b + 1 == nblocks && !rng.chance(0.1)) {
        block.kind = BlockKind::kReturn;
      } else {
        const std::uint64_t pick = rng.uniform(10);
        block.kind = pick < 3   ? BlockKind::kFallThrough
                     : pick < 8 ? BlockKind::kBranch
                                : BlockKind::kCall;
      }
      routine.blocks.push_back(block);
    }
    c.routines.push_back(std::move(routine));
  }
  const std::size_t blocks = c.num_blocks();
  if (blocks == 0) return c;  // empty program: empty trace/edges/seeds

  // Trace: a partially edge-following walk (empty ~10% of the time).
  const std::size_t events = rng.chance(0.1) ? 0 : 1 + rng.uniform(160);
  std::uint32_t cur = static_cast<std::uint32_t>(rng.uniform(blocks));
  for (std::size_t i = 0; i < events; ++i) {
    c.trace.push_back(cur);
    cur = static_cast<std::uint32_t>(rng.uniform(blocks));
  }

  // Edge counts budgeted by the trace-derived block counts (like a real
  // profile), plus explicit self-loops and zero-weight edges.
  std::vector<std::uint64_t> count(blocks, 0);
  for (std::uint32_t ev : c.trace) ++count[ev];
  for (std::uint32_t b = 0; b < blocks; ++b) {
    if (count[b] == 0 && !rng.chance(0.1)) continue;
    std::uint64_t budget = count[b];
    const std::size_t nedges = rng.uniform(4);
    for (std::size_t e = 0; e < nedges; ++e) {
      FuzzEdge edge;
      edge.from = b;
      edge.to = rng.chance(0.15)
                    ? b  // self-loop
                    : static_cast<std::uint32_t>(rng.uniform(blocks));
      if (rng.chance(0.2) || budget == 0) {
        edge.count = 0;  // zero-weight edge
      } else {
        edge.count = 1 + rng.uniform(budget);
        budget -= edge.count;
      }
      c.edges.push_back(edge);
    }
  }

  // Seed list with duplicates.
  const std::size_t nseeds = rng.uniform(5);
  for (std::size_t s = 0; s < nseeds; ++s) {
    if (!c.seeds.empty() && rng.chance(0.3)) {
      c.seeds.push_back(c.seeds[rng.uniform(c.seeds.size())]);  // duplicate
    } else {
      c.seeds.push_back(static_cast<std::uint32_t>(rng.uniform(blocks)));
    }
  }

  // Front-end stress shapes. A deep call/return chain (deeper than any
  // bounded return-address stack) appended as call-all-the-way-down then
  // return-all-the-way-up:
  if (rng.chance(0.25)) {
    const std::uint32_t base = static_cast<std::uint32_t>(c.num_blocks());
    const std::size_t depth = 2 + rng.uniform(12);
    for (std::size_t d = 0; d < depth; ++d) {
      FuzzRoutine frame;
      FuzzBlock body;
      body.insns = static_cast<std::uint16_t>(1 + rng.uniform(4));
      body.kind = BlockKind::kCall;
      FuzzBlock tail;
      tail.insns = static_cast<std::uint16_t>(1 + rng.uniform(2));
      tail.kind = BlockKind::kReturn;
      frame.blocks = {body, tail};
      c.routines.push_back(std::move(frame));
    }
    for (std::size_t d = 0; d < depth; ++d) {
      c.trace.push_back(base + static_cast<std::uint32_t>(2 * d));
    }
    for (std::size_t d = depth; d-- > 0;) {
      c.trace.push_back(base + static_cast<std::uint32_t>(2 * d) + 1);
    }
  }
  // And an indirect-branch-heavy dispatcher: one megamorphic call site
  // whose dynamic successor changes nearly every visit (BTB-hostile).
  if (rng.chance(0.25)) {
    const std::uint32_t dispatcher =
        static_cast<std::uint32_t>(c.num_blocks());
    FuzzRoutine dispatch;
    FuzzBlock site;
    site.insns = static_cast<std::uint16_t>(1 + rng.uniform(3));
    site.kind = BlockKind::kCall;
    dispatch.blocks = {site};
    c.routines.push_back(std::move(dispatch));
    const std::uint32_t total = static_cast<std::uint32_t>(c.num_blocks());
    const std::size_t calls = 8 + rng.uniform(24);
    for (std::size_t i = 0; i < calls; ++i) {
      c.trace.push_back(dispatcher);
      c.trace.push_back(static_cast<std::uint32_t>(rng.uniform(total)));
    }
  }
  return c;
}

namespace {

// Removes global block indices [start, start+count); drops trace events,
// seeds and edges that referenced them and shifts higher indices down.
void remap_after_removal(FuzzCase& c, std::size_t start, std::size_t count) {
  const auto keep = [&](std::uint32_t idx) {
    return idx < start || idx >= start + count;
  };
  const auto remap = [&](std::uint32_t idx) {
    return idx < start ? idx : static_cast<std::uint32_t>(idx - count);
  };
  std::vector<std::uint32_t> trace;
  for (std::uint32_t ev : c.trace) {
    if (keep(ev)) trace.push_back(remap(ev));
  }
  c.trace = std::move(trace);
  std::vector<std::uint32_t> seeds;
  for (std::uint32_t s : c.seeds) {
    if (keep(s)) seeds.push_back(remap(s));
  }
  c.seeds = std::move(seeds);
  std::vector<FuzzEdge> edges;
  for (FuzzEdge e : c.edges) {
    if (!keep(e.from) || !keep(e.to)) continue;
    e.from = remap(e.from);
    e.to = remap(e.to);
    edges.push_back(e);
  }
  c.edges = std::move(edges);
}

std::size_t routine_start(const FuzzCase& c, std::size_t r) {
  std::size_t start = 0;
  for (std::size_t i = 0; i < r; ++i) start += c.routines[i].blocks.size();
  return start;
}

FuzzCase without_routine(const FuzzCase& c, std::size_t r) {
  FuzzCase out = c;
  const std::size_t start = routine_start(c, r);
  const std::size_t count = c.routines[r].blocks.size();
  out.routines.erase(out.routines.begin() + static_cast<std::ptrdiff_t>(r));
  remap_after_removal(out, start, count);
  return out;
}

FuzzCase without_block(const FuzzCase& c, std::size_t r, std::size_t b) {
  FuzzCase out = c;
  out.routines[r].blocks.erase(out.routines[r].blocks.begin() +
                               static_cast<std::ptrdiff_t>(b));
  remap_after_removal(out, routine_start(c, r) + b, 1);
  return out;
}

}  // namespace

FuzzCase shrink_case(const FuzzCase& c, Injection injection) {
  return shrink_case_with(c, [injection](const FuzzCase& candidate) {
    return !run_case(candidate, injection).ok();
  });
}

FuzzCase shrink_case_with(
    const FuzzCase& c, const std::function<bool(const FuzzCase&)>& fails) {
  if (!fails(c)) return c;  // nothing to shrink

  FuzzCase cur = c;
  bool changed = true;
  while (changed) {
    changed = false;

    // Trace spans, largest chunks first (delta-debugging style).
    for (std::size_t chunk = std::max<std::size_t>(cur.trace.size(), 1);
         chunk >= 1; chunk /= 2) {
      for (std::size_t i = 0; i + chunk <= cur.trace.size();) {
        FuzzCase candidate = cur;
        candidate.trace.erase(
            candidate.trace.begin() + static_cast<std::ptrdiff_t>(i),
            candidate.trace.begin() + static_cast<std::ptrdiff_t>(i + chunk));
        if (fails(candidate)) {
          cur = std::move(candidate);
          changed = true;
        } else {
          i += chunk;
        }
      }
      if (chunk == 1) break;
    }

    // Whole routines.
    for (std::size_t r = 0; r < cur.routines.size();) {
      FuzzCase candidate = without_routine(cur, r);
      if (fails(candidate)) {
        cur = std::move(candidate);
        changed = true;
      } else {
        ++r;
      }
    }

    // Individual blocks (keeping routines non-empty).
    for (std::size_t r = 0; r < cur.routines.size(); ++r) {
      for (std::size_t b = 0; b < cur.routines[r].blocks.size();) {
        if (cur.routines[r].blocks.size() == 1) break;
        FuzzCase candidate = without_block(cur, r, b);
        if (fails(candidate)) {
          cur = std::move(candidate);
          changed = true;
        } else {
          ++b;
        }
      }
    }

    // Edges and seeds, one at a time.
    for (std::size_t e = 0; e < cur.edges.size();) {
      FuzzCase candidate = cur;
      candidate.edges.erase(candidate.edges.begin() +
                            static_cast<std::ptrdiff_t>(e));
      if (fails(candidate)) {
        cur = std::move(candidate);
        changed = true;
      } else {
        ++e;
      }
    }
    for (std::size_t s = 0; s < cur.seeds.size();) {
      FuzzCase candidate = cur;
      candidate.seeds.erase(candidate.seeds.begin() +
                            static_cast<std::ptrdiff_t>(s));
      if (fails(candidate)) {
        cur = std::move(candidate);
        changed = true;
      } else {
        ++s;
      }
    }

    // Simplify surviving blocks: one instruction, plainest kind, no flags.
    for (std::size_t r = 0; r < cur.routines.size(); ++r) {
      for (std::size_t b = 0; b < cur.routines[r].blocks.size(); ++b) {
        // No reference into cur here: accepting a candidate reassigns cur
        // and would leave it dangling.
        if (cur.routines[r].blocks[b].insns > 1) {
          FuzzCase candidate = cur;
          candidate.routines[r].blocks[b].insns = 1;
          if (fails(candidate)) {
            cur = std::move(candidate);
            changed = true;
          }
        }
        if (cur.routines[r].blocks[b].kind != BlockKind::kFallThrough) {
          FuzzCase candidate = cur;
          candidate.routines[r].blocks[b].kind = BlockKind::kFallThrough;
          if (fails(candidate)) {
            cur = std::move(candidate);
            changed = true;
          }
        }
      }
      if (cur.routines[r].executor_op) {
        FuzzCase candidate = cur;
        candidate.routines[r].executor_op = false;
        if (fails(candidate)) {
          cur = std::move(candidate);
          changed = true;
        }
      }
    }
  }
  return cur;
}

std::string emit_cpp(const FuzzCase& c, std::string_view test_name,
                     std::string_view check_fn) {
  std::string out;
  out += "TEST(FuzzRegression, " + std::string(test_name) + ") {\n";
  out += "  stc::verify::FuzzCase c;\n";
  out += "  c.cache_bytes = " + std::to_string(c.cache_bytes) + ";\n";
  out += "  c.cfa_bytes = " + std::to_string(c.cfa_bytes) + ";\n";
  out += "  c.line_bytes = " + std::to_string(c.line_bytes) + ";\n";
  if (!c.routines.empty()) {
    out += "  c.routines = {\n";
    for (const FuzzRoutine& r : c.routines) {
      out += "      {{";
      for (std::size_t b = 0; b < r.blocks.size(); ++b) {
        if (b > 0) out += ", ";
        out += "{" + std::to_string(r.blocks[b].insns) + ", " +
               kind_name(r.blocks[b].kind) + "}";
      }
      out += std::string("}, ") + (r.executor_op ? "true" : "false") + "},\n";
    }
    out += "  };\n";
  }
  const auto emit_u32_list = [&](const char* field,
                                 const std::vector<std::uint32_t>& values) {
    if (values.empty()) return;
    out += std::string("  c.") + field + " = {";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(values[i]);
    }
    out += "};\n";
  };
  if (!c.edges.empty()) {
    out += "  c.edges = {";
    for (std::size_t i = 0; i < c.edges.size(); ++i) {
      if (i > 0) out += ", ";
      out += "{" + std::to_string(c.edges[i].from) + ", " +
             std::to_string(c.edges[i].to) + ", " +
             std::to_string(c.edges[i].count) + "}";
    }
    out += "};\n";
  }
  emit_u32_list("trace", c.trace);
  emit_u32_list("seeds", c.seeds);
  out += "  const stc::verify::Report report = stc::verify::" +
         std::string(check_fn) + "(c);\n";
  out += "  EXPECT_TRUE(report.ok()) << report.summary();\n";
  out += "}\n";
  return out;
}

}  // namespace stc::verify
