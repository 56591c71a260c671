// Shared harness for the table/figure reproduction benches.
//
// Every bench binary rebuilds the paper's experimental setup: the Btree and
// Hash TPC-D databases, the Training-set profile (queries 3,4,5,6,9 on the
// Btree database) and the Test-set trace (queries 2,3,4,6,11,12,13,14,15,17
// on both databases). Environment knobs:
//   STC_SF        - TPC-D scale factor             (default 0.002)
//   STC_SEED      - generator seed                 (default 19990401)
//   STC_LINE      - cache line bytes               (default 32)
//   STC_THREADS   - experiment grid workers        (default hardware)
//   STC_BENCH_DIR - directory for BENCH_*.json     (default cwd)
//   STC_VERIFY    - 1 runs every cell under the layout-equivalence oracle
//                   (src/verify; see VERIFY.md) and aborts on any violation:
//                   missrate/sequentiality cells are re-run through the
//                   oracle's references, and each fetch-family plan's feed
//                   is checked once (verify::check_plan_feed)
//   STC_BPRED     - front-end predictor (perfect|always|bimodal|gshare|
//                   local; default perfect). A realistic kind routes every
//                   SEQ.3/trace-cache cell through the speculative front end
//                   (src/frontend) with FDIP prefetching enabled
//   STC_FTQ_DEPTH - fetch-target queue depth in lines (default 8);
//                   0 disables prefetching
//   STC_JOB_TIMEOUT - per-job deadline in seconds (default 0 = off); an
//                   overrunning job is recorded as timed_out, not aborted
//   STC_JOB_RETRIES - extra attempts per failed job (default 1)
//   STC_BACKEND   - execution back end: off|inorder|ooo (default off).
//                   off keeps every bench byte-identical to the
//                   fetch-bandwidth baseline; inorder/ooo route every SEQ.3
//                   cell through the full pipeline (src/backend) and the
//                   "ipc" metric becomes retired-instructions-per-cycle
//                   under the unified fetch+execute clock
//   STC_IQ_DEPTH  - back-end issue-queue entries (default 16)
//   STC_ROB_DEPTH - back-end reorder-buffer entries (default 64)
//   STC_FAULT     - fault-injection spec, e.g. trace.load.chunk:3 (VERIFY.md)
//   STC_TENANTS   - multi-tenant composer: number of client streams
//                   (default 4; ablate_multitenant, replay_throughput)
//   STC_QUANTUM   - composer scheduler quantum in block events per slice
//                   (default 1000; 0 = run-to-completion)
//   STC_ARRIVAL   - composer arrival model: rr|poisson|bursty|diurnal
//                   (default poisson)
//   STC_TENANT_MIX- comma list of per-tenant mixes, assigned round-robin:
//                   dss|dss_train|oltp (default dss,oltp)
//   STC_RESUME    - 1 resumes a killed/crashed run from BENCH_<name>.journal,
//                   re-running only the cells the journal does not cover; the
//                   finished report is byte-identical to an uninterrupted run
//                   (default 0 = start fresh, stale journals are discarded)
//   STC_CRASH     - kill-injection spec, same grammar as STC_FAULT: SIGKILL
//                   the process at the Nth hit of a fault point, e.g.
//                   journal.append.write:3 (tools/crash_harness, VERIFY.md)
//   STC_ZERO_TIMINGS - 1 zeroes phase timings in the report so two runs of
//                   the same grid are byte-comparable (default 0)
// Every knob is validated up front (support/env): a malformed value exits 2
// with a structured error instead of silently defaulting.
// The paper's absolute cache sizes (8-64KB) are scaled to this kernel's
// executed footprint: the sweep uses 1-8KB caches, spanning the same ratio
// of hot-code size to cache size as the original (see EXPERIMENTS.md).
//
// Every cell replays a memoized plan (src/sim/replay.h; plan_for below).
//
// Benches declare their measurement grid on an ExperimentRunner (built by
// make_runner), run it, render their ASCII table from the aggregated
// results, and emit the full grid as BENCH_<name>.json via write_report.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "backend/pipeline.h"
#include "core/layouts.h"
#include "db/tpcd/workload.h"
#include "frontend/front_end.h"
#include "profile/locality.h"
#include "profile/profile.h"
#include "sim/fetch_unit.h"
#include "sim/icache.h"
#include "sim/replay.h"
#include "sim/trace_cache.h"
#include "support/experiment.h"
#include "support/table.h"
#include "workload/composer.h"

namespace stc::bench {

struct CfaPoint {
  std::uint32_t cache_bytes;
  std::uint32_t cfa_bytes;
};

struct Env {
  double scale_factor = 0.002;
  std::uint64_t seed = 19990401;
  std::uint32_t line_bytes = 32;

  // Cache sweep mirroring the paper's Table 3/4 rows (cache/CFA in bytes).
  std::vector<CfaPoint> cfa_sweep() const;
  std::vector<std::uint32_t> cache_sizes() const { return {1024, 2048, 4096, 8192}; }

  // Validates every STC_* knob up front (support/env): a malformed value
  // prints a structured error naming the knob and exits 2 before any work.
  static Env from_environment();
};

// The full experimental setup, built once per bench binary.
class Setup {
 public:
  explicit Setup(const Env& env);

  const Env& env() const { return env_; }
  const cfg::ProgramImage& image() const;
  db::Database& btree() { return *btree_; }
  db::Database& hash() { return *hash_; }
  const profile::Profile& training_profile() const { return *profile_; }
  const trace::BlockTrace& training_trace() const { return training_; }
  const trace::BlockTrace& test_trace() const { return test_; }
  const profile::WeightedCFG& wcfg() const { return *wcfg_; }

  // Wall-clock spent building the databases ("setup" phase) and recording
  // the training/test workload traces ("workload" phase).
  double setup_seconds() const { return setup_seconds_; }
  double workload_seconds() const { return workload_seconds_; }

  // Builds (and caches) a layout for the given kind and geometry.
  const cfg::AddressMap& layout(core::LayoutKind kind,
                                std::uint32_t cache_bytes,
                                std::uint32_t cfa_bytes);

 private:
  Env env_;
  std::unique_ptr<db::Database> btree_;
  std::unique_ptr<db::Database> hash_;
  std::unique_ptr<profile::Profile> profile_;
  trace::BlockTrace training_;
  trace::BlockTrace test_;
  std::unique_ptr<profile::WeightedCFG> wcfg_;
  double setup_seconds_ = 0.0;
  double workload_seconds_ = 0.0;
  struct CachedLayout {
    core::LayoutKind kind;
    std::uint32_t cache_bytes;
    std::uint32_t cfa_bytes;
    cfg::AddressMap map;
  };
  // unique_ptr elements keep returned references stable across growth.
  std::vector<std::unique_ptr<CachedLayout>> layouts_;
};

// ---- Measurement cells -----------------------------------------------------
//
// Each returns the cell's headline metric(s) plus the simulator's raw
// counters, ready to hand to ExperimentRunner jobs. Metric names:
//   measure_miss        -> "miss_pct"            (Table 3 metric)
//   measure_seq3        -> "ipc"                 (Table 4 metric)
//   measure_tc          -> "ipc", "tc_hit_pct"
//   measure_seq         -> "insn_per_taken"      (sequentiality headline)
//   measure_seq3_bpred  -> "ipc", "mpki"         (speculative front end)
//   measure_tc_bpred    -> "ipc", "tc_hit_pct", "mpki"
//   measure_seq3_backend-> "ipc" [, "mpki"]      (full execute pipeline)
// The generic overloads take any (trace, image, layout); the Setup overloads
// use the Test trace and kernel image.
//
// measure_seq3/measure_tc honor STC_BPRED (see frontend_params): a realistic
// predictor routes them through the speculative front end; the default
// (perfect) takes the exact baseline code path, keeping Table 3/4 outputs
// byte-identical. A *transparent* FrontEndParams handed to the _bpred cells
// likewise delegates to the baseline simulators, so their fetch counters
// equal the plain cells' and the front-end counters are all zero.
//
// measure_seq3 additionally honors STC_BACKEND (see backend_params): with a
// non-off kind it routes through measure_seq3_backend, whose "ipc" is
// retired instructions per unified-pipeline cycle. "mpki" appears only when
// the front end is realistic (non-transparent), matching the _bpred cells.

ExperimentResult measure_miss(const trace::BlockTrace& trace,
                              const cfg::ProgramImage& image,
                              const cfg::AddressMap& layout,
                              const sim::CacheGeometry& geometry,
                              std::uint32_t victim_lines = 0);
ExperimentResult measure_seq3(const trace::BlockTrace& trace,
                              const cfg::ProgramImage& image,
                              const cfg::AddressMap& layout,
                              const sim::CacheGeometry& geometry,
                              bool perfect = false);
ExperimentResult measure_tc(const trace::BlockTrace& trace,
                            const cfg::ProgramImage& image,
                            const cfg::AddressMap& layout,
                            const sim::CacheGeometry& geometry,
                            const sim::TraceCacheParams& tc,
                            bool perfect = false);
ExperimentResult measure_seq(const trace::BlockTrace& trace,
                             const cfg::ProgramImage& image,
                             const cfg::AddressMap& layout);
ExperimentResult measure_seq3_bpred(const trace::BlockTrace& trace,
                                    const cfg::ProgramImage& image,
                                    const cfg::AddressMap& layout,
                                    const sim::CacheGeometry& geometry,
                                    const frontend::FrontEndParams& fe,
                                    bool perfect = false);
ExperimentResult measure_tc_bpred(const trace::BlockTrace& trace,
                                  const cfg::ProgramImage& image,
                                  const cfg::AddressMap& layout,
                                  const sim::CacheGeometry& geometry,
                                  const sim::TraceCacheParams& tc,
                                  const frontend::FrontEndParams& fe,
                                  bool perfect = false);
ExperimentResult measure_seq3_backend(const trace::BlockTrace& trace,
                                      const cfg::ProgramImage& image,
                                      const cfg::AddressMap& layout,
                                      const sim::CacheGeometry& geometry,
                                      const frontend::FrontEndParams& fe,
                                      const backend::BackendParams& bp,
                                      bool perfect = false);

// Tenant-attributed miss rate over a composed multi-tenant trace
// (src/workload): one pass through a shared cache, attributing every line
// probe, miss and instruction to the tenant whose provenance segment covers
// the event. Metrics: "miss_pct" (aggregate, equal to measure_miss on the
// composed trace), "miss_pct_t<i>" per tenant, and "worst_miss_pct" (the
// highest per-tenant rate) — the fairness number the tenant-partitioned CFA
// targets. Under STC_VERIFY the per-tenant counters are re-summed against
// an independent verify::reference_missrate pass.
ExperimentResult measure_tenant_miss(const workload::ComposedTrace& composed,
                                     const cfg::ProgramImage& image,
                                     const cfg::AddressMap& layout,
                                     const sim::CacheGeometry& geometry);

ExperimentResult measure_miss(Setup& setup, const cfg::AddressMap& layout,
                              const sim::CacheGeometry& geometry,
                              std::uint32_t victim_lines = 0);
ExperimentResult measure_seq3(Setup& setup, const cfg::AddressMap& layout,
                              const sim::CacheGeometry& geometry,
                              bool perfect = false);
ExperimentResult measure_tc(Setup& setup, const cfg::AddressMap& layout,
                            const sim::CacheGeometry& geometry,
                            const sim::TraceCacheParams& tc,
                            bool perfect = false);
ExperimentResult measure_seq(Setup& setup, const cfg::AddressMap& layout);
ExperimentResult measure_seq3_bpred(Setup& setup, const cfg::AddressMap& layout,
                                    const sim::CacheGeometry& geometry,
                                    const frontend::FrontEndParams& fe,
                                    bool perfect = false);
ExperimentResult measure_tc_bpred(Setup& setup, const cfg::AddressMap& layout,
                                  const sim::CacheGeometry& geometry,
                                  const sim::TraceCacheParams& tc,
                                  const frontend::FrontEndParams& fe,
                                  bool perfect = false);
ExperimentResult measure_seq3_backend(Setup& setup,
                                      const cfg::AddressMap& layout,
                                      const sim::CacheGeometry& geometry,
                                      const frontend::FrontEndParams& fe,
                                      const backend::BackendParams& bp,
                                      bool perfect = false);

// The process-wide front-end configuration from STC_BPRED/STC_FTQ_DEPTH
// (read once). transparent() for the default environment.
const frontend::FrontEndParams& frontend_params();

// The process-wide back-end configuration from STC_BACKEND/STC_IQ_DEPTH/
// STC_ROB_DEPTH (read once). off() for the default environment.
const backend::BackendParams& backend_params();

// ---- Replay engine ---------------------------------------------------------

// A memoized replay plan for the triple. `line_bytes` selects the compiled
// line tables; 0 builds a layout-only plan (sequentiality). An enabled
// `backend` spec additionally bakes per-block latency/register tables into
// the plan, and the cache keys on the spec fingerprint so two back-end
// configurations never share a plan. A failed build (faultpoint
// replay.compile) throws its Status as a StatusError, so the runner records
// the cell as failed; the failure is not cached, so a retry rebuilds.
const sim::ReplayPlan& plan_for(const trace::BlockTrace& trace,
                                const cfg::ProgramImage& image,
                                const cfg::AddressMap& layout,
                                std::uint32_t line_bytes,
                                const sim::BackendSpec& backend = {});

// One timed replay-throughput cell (bench/replay_throughput.cpp and the
// schema-lock test). Builds a plan for the triple and runs the selected
// simulator on it, timing the replay loop ("seconds", "events_per_sec") and
// the plan build ("plan_seconds"). Untimed, missrate and sequentiality
// counters are then checked against the oracle's references, and the other
// kinds' plan against the reference feed (verify::check_plan_feed); a
// divergence throws StatusError so the runner records the cell as failed.
enum class ReplaySimKind { kMissRate, kSequentiality, kSeq3, kTraceCache,
                           kBackend };
const char* to_string(ReplaySimKind kind);
ExperimentResult measure_replay_cell(const trace::BlockTrace& trace,
                                     const cfg::ProgramImage& image,
                                     const cfg::AddressMap& layout,
                                     const sim::CacheGeometry& geometry,
                                     ReplaySimKind sim_kind);

// The same cell timed through the oracle's reference (verify/reference.h)
// instead of a plan; only kMissRate and kSequentiality have one. Carries
// "seconds" and "events_per_sec" and the same counters as
// measure_replay_cell.
ExperimentResult measure_reference_cell(const trace::BlockTrace& trace,
                                        const cfg::ProgramImage& image,
                                        const cfg::AddressMap& layout,
                                        const sim::CacheGeometry& geometry,
                                        ReplaySimKind sim_kind);

// Convenience wrappers extracting the single headline metric.
double miss_pct(Setup& setup, const cfg::AddressMap& layout,
                const sim::CacheGeometry& geometry,
                std::uint32_t victim_lines = 0);
double seq3_ipc(Setup& setup, const cfg::AddressMap& layout,
                const sim::CacheGeometry& geometry, bool perfect = false);
double tc_ipc(Setup& setup, const cfg::AddressMap& layout,
              const sim::CacheGeometry& geometry,
              const sim::TraceCacheParams& tc, bool perfect = false);

// ---- Reporting -------------------------------------------------------------

// Header banner shared by all benches.
void print_banner(const char* title, const Env& env, const Setup& setup);

// An ExperimentRunner named `name`, pre-populated with the environment
// metadata and the Setup's setup/workload phase timings.
ExperimentRunner make_runner(const char* name, const Env& env,
                             const Setup& setup);

// Writes BENCH_<name>.json atomically and prints a one-line confirmation
// footer (plus a failure summary when the grid degraded). Returns the bench
// process exit code: 0 clean, 3 when any job failed (the report records the
// failures), 1 when the report itself could not be written. Bench mains
// `return bench::write_report(runner);`.
int write_report(const ExperimentRunner& runner);

}  // namespace stc::bench
