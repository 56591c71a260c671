// Layout-equivalence oracle.
//
// Every number the benches report assumes the layouts are *semantically
// transparent*: a layout may permute and replicate basic blocks, but the
// dynamic instruction stream replayed through the simulators must be the
// original program's. This module checks that independently of the code that
// produced the layout, across three invariant classes:
//
//  1. Structure — the layout is a valid permutation-plus-replication of the
//     original blocks: every block assigned, no two blocks overlap, replicas
//     byte-identical to their origin in size and kind.
//  2. Replay equivalence — replaying the block trace through the remapped
//     address map yields the exact original dynamic instruction sequence
//     (same blocks, same per-block instruction counts, instruction addresses
//     consistent with the map, taken flags re-derived from first principles).
//  3. Simulator invariants — icache probes and misses equal to the
//     per-event reference (verify/reference.h) and to the cache's observer
//     recount, fetch-unit cycle identities, trace-cache fills bounded by
//     probes, and the Figure 4 CFA occupancy rules.
//
// Unlike STC_CHECK, the oracle never aborts: violations are collected in a
// Report so fuzzers and tests can observe, shrink, and print them.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "backend/pipeline.h"
#include "cfg/address_map.h"
#include "cfg/program.h"
#include "core/mapping.h"
#include "frontend/front_end.h"
#include "sim/fetch_unit.h"
#include "sim/icache.h"
#include "sim/replay.h"
#include "support/stats.h"
#include "trace/block_trace.h"

namespace stc::verify {

// Accumulates violations. Keeps the first kMaxErrors messages (plus a total
// count) so a badly broken layout does not produce gigabytes of text.
class Report {
 public:
  bool ok() const { return total_ == 0; }
  void fail(std::string message);
  // Appends another report's findings, prefixing each with `context`.
  void merge(const Report& other, std::string_view context = {});

  const std::vector<std::string>& errors() const { return errors_; }
  std::uint64_t total_found() const { return total_; }
  // Human-readable multi-line summary ("OK" when clean).
  std::string summary() const;

 private:
  static constexpr std::size_t kMaxErrors = 16;
  std::vector<std::string> errors_;
  std::uint64_t total_ = 0;
};

// Total instructions the trace executes (sum of per-event block sizes).
// Events naming out-of-range blocks count zero.
std::uint64_t trace_instructions(const trace::BlockTrace& trace,
                                 const cfg::ProgramImage& image);

// ---- Invariant class 1: structure ----------------------------------------

// The layout covers exactly the image's blocks: all assigned, none
// truncated (sizes are the image's, by construction of AddressMap), and no
// two blocks overlap in the address space.
Report check_structure(const cfg::ProgramImage& image,
                       const cfg::AddressMap& layout);

// The extended (replicated) image is the original plus byte-identical
// clones: original block ids unchanged, every clone's size and kind equal to
// its origin block's, and clone routines mirror whole origin routines.
// `origin_blocks` comes from core::Replicator::origin_blocks().
Report check_replication_structure(
    const cfg::ProgramImage& original, const cfg::ProgramImage& extended,
    const std::vector<cfg::BlockId>& origin_blocks);

// ---- Invariant class 2: replay equivalence -------------------------------

// Replays `trace` under `layout` with an independent walk and cross-checks
// the reference stream (BlockRunStream) and the plan-fed FetchPipe the
// simulators read, instruction by instruction, against ground truth derived
// only from the image and the map.
Report check_replay(const trace::BlockTrace& trace,
                    const cfg::ProgramImage& image,
                    const cfg::AddressMap& layout);

// The replicated trace projected through `origin_blocks` must equal the
// original trace event for event (replication may rename blocks to clones
// but never change what executes).
Report check_replicated_replay(const trace::BlockTrace& original_trace,
                               const trace::BlockTrace& transformed,
                               const cfg::ProgramImage& original,
                               const cfg::ProgramImage& extended,
                               const std::vector<cfg::BlockId>& origin_blocks);

// ---- Invariant class 3: simulator + occupancy invariants -----------------

// Figure 4 occupancy: pass-0 code lives entirely in [0, cfa); later-pass
// code never intersects any region's [0, cfa) window (a block larger than a
// whole inter-CFA window must at least start at a window boundary). A
// provenance with empty() == true carries no contract and passes trivially.
Report check_cfa_occupancy(const cfg::ProgramImage& image,
                           const cfg::AddressMap& layout,
                           const core::MappingProvenance& provenance);

// Tenant-partitioned CFA occupancy (map_sequences_partitioned): the
// provenance's tenant_region_start boundaries must tile [0, cfa) with G
// non-empty sub-windows; every pass-0 block must carry a tenant id in
// [0, G) and lie entirely inside its tenant's sub-window, and no
// non-pass-0 block may carry a tenant id. An unpartitioned provenance
// (num_tenant_regions == 0) passes trivially.
Report check_tenant_partition(const cfg::ProgramImage& image,
                              const cfg::AddressMap& layout,
                              const core::MappingProvenance& provenance);

// Runs all three simulators (miss-rate, SEQ.3, trace cache) over a plan of
// the trace and checks their counters against each other; the miss-rate
// counters and cache stats must equal reference_missrate's on a fresh cache,
// and the cache's observer hook must see every probe its stats record.
Report check_simulators(const trace::BlockTrace& trace,
                        const cfg::ProgramImage& image,
                        const cfg::AddressMap& layout,
                        const sim::CacheGeometry& geometry);

// Cheap per-result checks, usable on every bench cell without re-running
// the simulation. `expected_instructions` from trace_instructions().
Report check_missrate_result(const sim::MissRateResult& result,
                             const sim::CacheStats& stats,
                             std::uint64_t expected_instructions);
Report check_fetch_result(const sim::FetchResult& result,
                          const sim::FetchParams& params,
                          std::uint64_t expected_instructions,
                          bool with_trace_cache);

// Counter identities for a speculative front-end run (src/frontend). The
// baseline cycle identity gains the two front-end stall terms:
//   cycles == fetch_requests + miss_penalty x penalty_units
//             + bp_bubble_cycles + prefetch_late_cycles
// with bp_bubble_cycles == bp_mispredicts x mispredict_penalty, prediction
// counters bounded by lookups, every issued prefetch reaching at most one
// outcome (useful/late/evicted), and all front-end counters zero for a
// transparent (perfect, no-prefetch) configuration.
Report check_frontend_result(const frontend::FrontEndResult& result,
                             const sim::FetchParams& params,
                             const frontend::FrontEndParams& fe_params,
                             std::uint64_t expected_instructions,
                             bool with_trace_cache);

// Counter identities for a back-end pipeline run (src/backend). The back
// end must retire exactly what fetch supplied (retired_insns ==
// fetch.instructions == expected), drain completely (retired == dispatched
// == issued ops), never exceed its IQ/ROB bounds (peaks and per-cycle
// occupancy sums), and share one clock with fetch (fetch.cycles ==
// be_cycles >= fetch_requests). Front-end predictor bounds are re-checked
// where they still apply under the unified clock.
Report check_backend_result(const backend::BackendResult& result,
                            const sim::FetchParams& params,
                            const frontend::FrontEndParams& fe_params,
                            const backend::BackendParams& backend_params,
                            std::uint64_t expected_instructions);

// ---- Replay-mode differential oracle -------------------------------------

// Bit-identity of two counter sets (same keys, same order, same values).
// `what` names the comparison in error messages; `expected` is the
// reference.
Report check_counters_equal(const CounterSet& expected,
                            const CounterSet& actual, std::string_view what);

// The back-end configuration the differential harness exercises when the
// caller does not supply one: an out-of-order machine with a window small
// enough that back-pressure and both dispatch-stall causes actually fire on
// fuzz-sized traces.
backend::BackendParams replay_diff_backend();

// The feed argument: the five fetch-family simulators (SEQ.3, trace cache,
// both front ends, the back-end pipeline) read nothing of a plan but
// make_run(), through FetchPipe's cursor, and, for the back end, the
// block's address, size and op tables at the block id each run carries.
// So a plan whose make_run(i) equals the i-th BlockRun of a BlockRunStream
// (reference.h) over (trace, image, layout), field by field (the block id
// included) and with equal event counts, drives them exactly as the
// per-event walk would. When `backend` is
// enabled the plan must carry back-end tables, and every block id in the
// slab must have the latency and registers that backend_op_latency /
// backend_op_regs give for its image size and kind and its layout address
// under `backend`; when it is disabled the plan must carry none. The first
// diverging event is named. O(events), with no simulator run.
Report check_plan_feed(const trace::BlockTrace& trace,
                       const cfg::ProgramImage& image,
                       const cfg::AddressMap& layout,
                       const sim::ReplayPlan& plan,
                       const sim::BackendSpec& backend = {});

// The replay differential over one (trace, image, layout). Builds one plan
// and
//   1. compares replay_missrate (with per-block attribution) and
//      replay_sequentiality bit for bit against reference_missrate and
//      reference_sequentiality (verify/reference.h),
//   2. runs check_plan_feed on the plan,
//   3. runs SEQ.3, the trace cache, both speculative front ends and the
//      back-end pipeline once on the plan, through check_fetch_result,
//      check_frontend_result and check_backend_result.
// `backend_params` overrides the back-end configuration
// (replay_diff_backend() when null).
Report check_plan_replay(const trace::BlockTrace& trace,
                         const cfg::ProgramImage& image,
                         const cfg::AddressMap& layout,
                         const sim::CacheGeometry& geometry,
                         const backend::BackendParams* backend_params =
                             nullptr);

// ---- Umbrella ------------------------------------------------------------

struct OracleOptions {
  bool structure = true;
  bool replay = true;
  bool simulators = true;
  sim::CacheGeometry geometry{1024, 32, 1};
};

// Runs every applicable check for one (trace, image, layout) triple.
// `provenance` may be null (skips the CFA occupancy check).
Report verify_layout(const trace::BlockTrace& trace,
                     const cfg::ProgramImage& image,
                     const cfg::AddressMap& layout,
                     const core::MappingProvenance* provenance = nullptr,
                     const OracleOptions& options = {});

}  // namespace stc::verify
