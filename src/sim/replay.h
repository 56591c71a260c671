// Compiled trace replay: the one input every simulator takes.
//
// A plan is built once per (trace, image, layout, line size, back-end
// spec): the whole BlockTrace is decoded chunk-by-chunk into one contiguous
// event slab, and the static per-block facts every simulator asks for
// (address, size, branch-ness, kind, end address) are resolved once into
// structure-of-arrays vectors keyed by block id. Per-block cache-line
// membership (first/last line index under a fixed line size) and, with an
// enabled BackendSpec, the back-end op tables are pre-resolved the same
// way, so the Table 3 inner loop is table lookups plus counter updates.
// The fetch simulators read the plan through sim::FetchPipe, an (event,
// offset) cursor that materializes one BlockRun at a time with make_run();
// the back end looks each completed block's op up in the back-end tables.
//
// The per-event walk over a BlockTrace survives only as the oracle's
// reference feed (src/verify/reference.h). verify::check_plan_feed
// proves that make_run() yields exactly what that walk yields and that the
// back-end tables equal the BackendSpec helpers, and check_plan_replay
// compares the missrate/sequentiality kernels against the references;
// tools/stc_fuzz --replay-diff hunts for divergences. The compiled-table
// build runs through faultpoint "replay.compile": a fault fails the plan
// build, and a cell whose plan fails is a failed cell like any other.
//
// The missrate/sequentiality inner loops are scalar span kernels over a raw
// event range with explicit carried state (replay_detail). That is what
// makes streaming replay (replay_*_streamed) possible: it pulls chunks off
// an on-disk trace through trace::TraceReader one at a time and feeds each
// to the same kernel, so traces far larger than RAM replay with peak memory
// bounded by one chunk.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "cfg/address_map.h"
#include "cfg/program.h"
#include "sim/icache.h"
#include "support/check.h"
#include "support/error.h"
#include "trace/block_trace.h"
#include "trace/fetch_stream.h"
#include "trace/trace_io.h"

namespace stc::sim {

// The kind of plan build_replay_plan makes. Compiled is the only kind.
enum class ReplayMode { kCompiled };

// Structure-of-arrays static-block metadata: every static fact a BlockRun
// carries, resolved once per (image, layout).
class BlockMetaTable {
 public:
  void build(const cfg::ProgramImage& image, const cfg::AddressMap& layout);

  std::size_t size() const { return addr_.size(); }
  std::uint64_t addr(cfg::BlockId b) const { return addr_[b]; }
  std::uint64_t end_addr(cfg::BlockId b) const { return end_addr_[b]; }
  std::uint32_t insns(cfg::BlockId b) const { return insns_[b]; }
  bool ends_in_branch(cfg::BlockId b) const { return branch_[b] != 0; }
  cfg::BlockKind kind(cfg::BlockId b) const {
    return static_cast<cfg::BlockKind>(kind_[b]);
  }

 private:
  std::vector<std::uint64_t> addr_;
  std::vector<std::uint64_t> end_addr_;
  std::vector<std::uint32_t> insns_;
  std::vector<std::uint8_t> branch_;
  std::vector<std::uint8_t> kind_;
};

// The whole trace decoded into one contiguous block-id slab, chunk by chunk
// (each BlockTrace chunk restarts its delta base, so chunks decode
// independently — no per-event stream state survives the build).
class EventSlab {
 public:
  void build(const trace::BlockTrace& trace);
  // Takes ownership of an already-decoded event vector (a caller that
  // decoded the trace itself, e.g. perfbench); computes max_id like build()
  // does.
  void adopt(std::vector<cfg::BlockId> events);

  std::size_t size() const { return events_.size(); }
  cfg::BlockId operator[](std::size_t i) const { return events_[i]; }
  const cfg::BlockId* data() const { return events_.data(); }
  // Largest id in the slab (0 for an empty slab): plans check it against the
  // metadata table once, so the hot loops can index unchecked.
  cfg::BlockId max_id() const { return max_id_; }

 private:
  std::vector<cfg::BlockId> events_;
  cfg::BlockId max_id_ = 0;
};

// Synthetic back-end cost model. The back end
// (src/backend) turns each dynamic block into one op whose latency derives
// from the block's size and event class (call/return ops pay an extra
// memory-latency charge) and whose register names derive deterministically
// from the block's layout address. The spec lives here — not in
// src/backend — because compiled plans pre-resolve these per-block values
// into flat tables, and sim must not depend on the back-end library.
struct BackendSpec {
  bool enabled = false;
  std::uint32_t base_latency = 1;  // cycles charged to every op
  std::uint32_t mem_latency = 3;   // extra cycles for call/return ops
  std::uint32_t size_shift = 2;    // + (insns >> size_shift) cycles

  // Feeds the ReplayPlanCache key: two distinct enabled configs must never
  // share a compiled plan (the tables bake the latencies in). Disabled
  // specs all fingerprint to 0 so backend-off callers keep their old keys.
  std::uint64_t fingerprint() const {
    if (!enabled) return 0;
    std::uint64_t h = 14695981039346656037ull;
    for (std::uint64_t v : {std::uint64_t{1}, std::uint64_t{base_latency},
                            std::uint64_t{mem_latency},
                            std::uint64_t{size_shift}}) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
      }
    }
    return h;
  }

  friend bool operator==(const BackendSpec& a, const BackendSpec& b) {
    return a.enabled == b.enabled && a.base_latency == b.base_latency &&
           a.mem_latency == b.mem_latency && a.size_shift == b.size_shift;
  }
  friend bool operator!=(const BackendSpec& a, const BackendSpec& b) {
    return !(a == b);
  }
};

// The synthetic register file is deliberately tiny so real dependency
// chains form on DSS-sized traces.
inline constexpr std::uint32_t kBackendRegs = 16;

// Op latency for a block of `insns` instructions ending in `kind`. Clamped
// to >= 1 so a misconfigured spec can never mint zero-latency ops (which
// would let an op commit the cycle it issues).
inline std::uint32_t backend_op_latency(const BackendSpec& spec,
                                        std::uint32_t insns,
                                        cfg::BlockKind kind) {
  std::uint32_t latency = spec.base_latency + (insns >> spec.size_shift);
  if (kind == cfg::BlockKind::kCall || kind == cfg::BlockKind::kReturn) {
    latency += spec.mem_latency;
  }
  return latency == 0 ? 1 : latency;
}

// Synthetic register names for the op of a block at layout address `addr`.
// One fixed pure function of (addr, insns) — the compiled tables bake it in,
// and verify::check_plan_feed recomputes it from the image and layout.
inline void backend_op_regs(std::uint64_t addr, std::uint32_t insns,
                            std::uint8_t* dest, std::uint8_t* src1,
                            std::uint8_t* src2) {
  const std::uint64_t word = addr / cfg::kInsnBytes;
  *dest = static_cast<std::uint8_t>(word % kBackendRegs);
  *src1 = static_cast<std::uint8_t>((word + insns) % kBackendRegs);
  *src2 = static_cast<std::uint8_t>((word / kBackendRegs + 7) % kBackendRegs);
}

// Compiled-mode flat tables keyed by block id: cache-line membership under
// one fixed line size (the grid's geometry).
class CompiledTable {
 public:
  // Fires faultpoint "replay.compile" when it builds line tables
  // (line_bytes != 0; a layout-only plan builds none, so the oracle's
  // layout-only replay walk never consumes an armed fault). On a fault the
  // table stays invalid and the plan build fails.
  Status build(const BlockMetaTable& meta, std::uint32_t line_bytes);

  bool valid() const { return line_bytes_ != 0; }
  std::uint32_t line_bytes() const { return line_bytes_; }
  std::uint64_t first_line(cfg::BlockId b) const { return first_line_[b]; }
  std::uint64_t last_line(cfg::BlockId b) const { return last_line_[b]; }

 private:
  std::uint32_t line_bytes_ = 0;
  std::vector<std::uint64_t> first_line_;
  std::vector<std::uint64_t> last_line_;
};

// Compiled back-end tables keyed by block id: op latency and synthetic
// register names, pre-resolved under one BackendSpec. The spec is stored so
// a consumer can detect (and the DCHECK in run_seq3_backend does detect) a
// plan built for a different back-end config — the stale-plan hazard the
// ReplayPlanCache key's backend fingerprint component exists to prevent.
class BackendTable {
 public:
  void build(const BlockMetaTable& meta, const BackendSpec& spec);

  bool valid() const { return valid_; }
  const BackendSpec& spec() const { return spec_; }
  std::uint32_t latency(cfg::BlockId b) const { return latency_[b]; }
  std::uint8_t dest(cfg::BlockId b) const { return dest_[b]; }
  std::uint8_t src1(cfg::BlockId b) const { return src1_[b]; }
  std::uint8_t src2(cfg::BlockId b) const { return src2_[b]; }

 private:
  bool valid_ = false;
  BackendSpec spec_;
  std::vector<std::uint32_t> latency_;
  std::vector<std::uint8_t> dest_;
  std::vector<std::uint8_t> src1_;
  std::vector<std::uint8_t> src2_;
};

// One compiled replay: the shared event slab and the tables for a specific
// (image, layout, line size, back-end spec). Immutable once built; safe to
// share across threads.
class ReplayPlan {
 public:
  std::uint64_t num_events() const { return slab_->size(); }
  const EventSlab& slab() const { return *slab_; }
  const BlockMetaTable& meta() const { return meta_; }
  const CompiledTable& compiled() const { return compiled_; }
  const BackendTable& backend() const { return backend_; }

  // Materializes event `i` as exactly the BlockRun the oracle's per-event
  // reference feed (verify/reference.h) would produce — the contract
  // FetchPipe rests on and verify::check_plan_feed proves.
  void make_run(std::uint64_t i, trace::BlockRun& out) const {
    const cfg::BlockId b = (*slab_)[static_cast<std::size_t>(i)];
    out.block = b;
    out.addr = meta_.addr(b);
    out.insns = meta_.insns(b);
    out.ends_in_branch = meta_.ends_in_branch(b);
    out.kind = meta_.kind(b);
    if (i + 1 < slab_->size()) {
      out.has_next = true;
      out.next_addr = meta_.addr((*slab_)[static_cast<std::size_t>(i + 1)]);
      out.taken = out.next_addr != meta_.end_addr(b);
    } else {
      out.has_next = false;
      out.taken = false;
      out.next_addr = 0;
    }
  }

 private:
  friend Result<ReplayPlan> build_replay_plan(
      ReplayMode mode, std::shared_ptr<const EventSlab> slab,
      const cfg::ProgramImage& image, const cfg::AddressMap& layout,
      std::uint32_t line_bytes, const BackendSpec& backend);

  std::shared_ptr<const EventSlab> slab_;
  BlockMetaTable meta_;
  CompiledTable compiled_;
  BackendTable backend_;
};

// Builds a compiled plan; `mode` must be kCompiled. `line_bytes` is the
// cache-line size the compiled tables specialize for; 0 skips the line
// tables (layout-only plans, e.g. sequentiality). An enabled `backend`
// spec additionally bakes the back-end op tables into the plan. The slab
// may be shared between plans over the same trace.
Result<ReplayPlan> build_replay_plan(ReplayMode mode,
                                     std::shared_ptr<const EventSlab> slab,
                                     const cfg::ProgramImage& image,
                                     const cfg::AddressMap& layout,
                                     std::uint32_t line_bytes,
                                     const BackendSpec& backend = {});
Result<ReplayPlan> build_replay_plan(ReplayMode mode,
                                     const trace::BlockTrace& trace,
                                     const cfg::ProgramImage& image,
                                     const cfg::AddressMap& layout,
                                     std::uint32_t line_bytes,
                                     const BackendSpec& backend = {});

// Memoizes slabs per trace and plans per (trace, image, layout, line size,
// back-end spec), in memory only — the bench grids evaluate many cells over
// few distinct layouts.
// Keys are CONTENT fingerprints, not object addresses: benches rebuild
// traces, images and layouts per cell, and the allocator happily recycles a
// dead layout's address for the next one — a pointer key would then serve a
// plan built for different code. A failed build (faultpoint replay.compile)
// returns its Status and is not cached, so the next get() rebuilds.
// Thread-safe.
class ReplayPlanCache {
 public:
  Result<const ReplayPlan*> get(const trace::BlockTrace& trace,
                                const cfg::ProgramImage& image,
                                const cfg::AddressMap& layout,
                                std::uint32_t line_bytes,
                                const BackendSpec& backend = {});

 private:
  // The trailing uint64 is BackendSpec::fingerprint(): plans carrying
  // back-end tables bake the spec's latencies in, so two configs sharing a
  // (trace, image, layout, line) cell must still get distinct plans.
  using Key = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                         std::uint32_t, std::uint64_t>;
  std::mutex mu_;
  std::map<std::uint64_t, std::shared_ptr<const EventSlab>> slabs_;
  std::map<Key, std::unique_ptr<const ReplayPlan>> plans_;
};

// Span kernels behind the replay loops. Each kernel consumes a raw event
// range and carries explicit state, so feeding a slab in one span or
// chunk-by-chunk composes to exactly the same counter and cache-access
// sequence. They are exposed for two callers besides the replay loops:
// tests pin them over arbitrary span lengths, and bench::measure_tenant_miss
// feeds missrate_span one provenance segment at a time, charging each
// span's counters to the segment's tenant.
namespace replay_detail {

struct MissSpanState {
  // The last line probed, carried ACROSS events and spans (consecutive
  // instructions on one line probe the cache once).
  std::uint64_t prev_line = ~std::uint64_t{0};
};

struct SeqSpanState {
  bool have_prev = false;
  cfg::BlockId prev = 0;  // last event of the previous span
};

// `tables` may be null (or built for a different line size); the kernel
// then derives line bounds from `meta` exactly like the reference.
void missrate_span(const cfg::BlockId* events, std::size_t n,
                   const BlockMetaTable& meta, const CompiledTable* tables,
                   std::uint32_t line_bytes, ICache& cache,
                   std::vector<std::uint64_t>* per_block_misses,
                   MissSpanState& state, MissRateResult& result);
void sequentiality_span(const cfg::BlockId* events, std::size_t n,
                        const BlockMetaTable& meta, SeqSpanState& state,
                        trace::SequentialityStats& stats);

}  // namespace replay_detail

// Table 3: streams every executed instruction of the plan's trace (under
// its layout) through the cache, touching each line once per crossing. When
// `per_block_misses` is non-null it is resized to the block count and
// accumulates each miss against the block whose instructions triggered it
// (the paper's per-module miss attribution, Section 4 / tech report
// UPC-DAC-1998-56). The fetch simulators take the plan in fetch_unit.h,
// trace_cache.h, front_end.h and pipeline.h.
MissRateResult replay_missrate(const ReplayPlan& plan, ICache& cache,
                               std::vector<std::uint64_t>* per_block_misses =
                                   nullptr);
trace::SequentialityStats replay_sequentiality(const ReplayPlan& plan);

// Streaming replay over an on-disk trace: chunks are read and decoded one at
// a time into a reused buffer, so peak resident memory is bounded by one
// chunk rather than the trace.
// Counters are bit-identical to replaying the fully-loaded trace — the same
// span kernels run over the same event sequence. `tables` may be null
// (address math from `meta`, as the reference does). Each
// decoded chunk is range-checked against `meta` before it is replayed, so a
// corrupt trace surfaces as a clean Status, never unchecked indexing.
Result<MissRateResult> replay_missrate_streamed(
    const trace::TraceReader& reader, const BlockMetaTable& meta,
    const CompiledTable* tables, ICache& cache);
Result<trace::SequentialityStats> replay_sequentiality_streamed(
    const trace::TraceReader& reader, const BlockMetaTable& meta);

}  // namespace stc::sim
