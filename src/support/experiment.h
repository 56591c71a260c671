// Declarative experiment grids with parallel execution and JSON reporting.
//
// Every bench expresses its table/ablation as a grid of named jobs; the
// runner fans the grid across a ThreadPool and aggregates results into a
// vector indexed by declaration order, so parallel execution is bit-identical
// to serial execution (DESIGN.md's "one execution, many simulations" rule
// makes the jobs read-only over shared state). Alongside whatever ASCII table
// the bench prints, the runner emits the full grid as BENCH_<name>.json:
// per-job metrics and simulator counters, per-phase wall-clock timings
// (setup / workload / replay) and replay throughput.
//
// Execution is fault-tolerant: a job that throws (StatusError or any
// exception) or overruns its deadline does not abort the grid. The job is
// retried up to STC_JOB_RETRIES times, then recorded as failed/timed_out in
// the report's "failures" section; every other cell still runs and
// serializes byte-identically to a clean run. The process exit code (via
// exit_code()) reflects partial success.
//
// Crash resilience (shardable grids, see set_shardable): every completed
// cell is appended to a CRC-framed journal (BENCH_<name>.journal) as it
// finishes, durable before the next cell starts. STC_RESUME=1 replays the
// journal on startup and skips the recorded cells — a run killed at any byte
// boundary resumes to a final report byte-identical (modulo timings; see
// STC_ZERO_TIMINGS) to an uninterrupted one. Torn journal tails are
// truncated, not trusted, and SIGINT/SIGTERM unlink in-flight temp files
// before the process dies by the signal.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/error.h"
#include "support/journal.h"
#include "support/stats.h"

namespace stc {

// One measured cell: named scalar metrics (the numbers a table prints) plus
// raw simulator counters. Both keep insertion order for stable serialization.
class ExperimentResult {
 public:
  void metric(std::string_view name, double value);
  // Throws StatusError (kNotFound, naming the metric) when absent — inside a
  // runner job the error lands in the failure report instead of aborting.
  double metric(std::string_view name) const;
  Result<double> try_metric(std::string_view name) const;
  bool has_metric(std::string_view name) const;

  CounterSet& counters() { return counters_; }
  const CounterSet& counters() const { return counters_; }
  const std::vector<std::pair<std::string, double>>& metrics() const {
    return metrics_;
  }

 private:
  std::vector<std::pair<std::string, double>> metrics_;
  CounterSet counters_;
};

enum class JobStatus { kOk, kFailed, kTimedOut };
const char* to_string(JobStatus status);

// One entry of the report's "failures" section. Error messages are
// deterministic (no wall-clock content), so a run with the same injected
// faults serializes byte-identically.
struct JobFailure {
  std::size_t index = 0;       // declaration-order job index
  std::string name;            // job name
  JobStatus status = JobStatus::kFailed;
  std::uint32_t attempts = 0;  // total attempts made (1 + retries used)
  Status error;                // last attempt's error, job context included
};

class ExperimentRunner {
 public:
  // `bench_name` names the report file: BENCH_<bench_name>.json.
  explicit ExperimentRunner(std::string bench_name);

  const std::string& name() const { return bench_name_; }

  // Report metadata (environment knobs, configuration), emitted under "env"
  // in insertion order.
  void meta(std::string_view key, std::string_view value);
  void meta(std::string_view key, double value);
  void meta(std::string_view key, std::uint64_t value);

  // Wall-clock phase accounting. record_phase stores externally measured
  // seconds; time_phase measures `fn`. Repeated names accumulate.
  void record_phase(std::string_view phase, double seconds);
  void time_phase(std::string_view phase, const std::function<void()>& fn);

  // Declares a job and returns its index. `params` are the cell's grid
  // coordinates (e.g. {"layout","ops"},{"cache","2048"}); they are emitted
  // with the result. Jobs must be pure functions of shared read-only state.
  std::size_t add(std::string job_name,
                  std::vector<std::pair<std::string, std::string>> params,
                  std::function<ExperimentResult()> fn);
  std::size_t add(std::string job_name, std::function<ExperimentResult()> fn) {
    return add(std::move(job_name), {}, std::move(fn));
  }

  // Fault-tolerance knobs, defaulting from STC_JOB_RETRIES/STC_JOB_TIMEOUT
  // at run() time; setters override (tests, embedding tools).
  void set_max_retries(std::uint32_t retries);
  void set_job_timeout(double seconds);  // 0 disables the deadline

  // Declares that job index i names the same cell in every process that
  // builds this grid — true when the binary's main rebuilds the identical
  // grid from the environment. That is the property the journal needs: a
  // shardable grid journals each finished cell and honors STC_RESUME=1.
  // Plain grids (tests, embedding tools) neither journal nor resume.
  void set_shardable(bool shardable) { shardable_ = shardable; }
  bool shardable() const { return shardable_; }

  // The journal this runner appends to: <dir>/BENCH_<name>.journal. Errors
  // only on a bad STC_BENCH_DIR.
  Result<std::string> journal_path() const;

  // Executes all jobs across `threads` workers (0 = STC_THREADS, falling back
  // to hardware concurrency) and records the "replay" phase time plus
  // blocks/s and instructions/s throughput from the jobs' "blocks" /
  // "instructions" counters. May be called once per runner. Per-job faults
  // are captured (see failures()); a malformed environment knob throws
  // StatusError (benches validate knobs at startup, so this is for library
  // misuse).
  void run(std::size_t threads = 0);

  // Thread count requested via STC_THREADS (0 when unset = hardware pick);
  // structured error on a malformed value.
  static Result<std::size_t> threads_from_env();

  std::size_t num_jobs() const { return jobs_.size(); }
  const std::string& job_name(std::size_t index) const {
    return jobs_.at(index).name;
  }
  const ExperimentResult& result(std::size_t index) const;
  const std::vector<ExperimentResult>& results() const { return results_; }

  // Job outcomes. failures() is ordered by job index; empty after a clean
  // run. exit_code() is 0 when clean, 3 when any job failed — bench mains
  // return it so sweeps distinguish "numbers are partial" from success.
  JobStatus job_status(std::size_t index) const;
  const std::vector<JobFailure>& failures() const;
  bool all_ok() const;
  int exit_code() const;

  // result(index).metric(name) for render paths that must survive failed
  // cells: the fallback (default quiet NaN) is returned for a failed job or
  // a missing metric instead of throwing.
  double metric_or(std::size_t index, std::string_view name) const;
  double metric_or(std::size_t index, std::string_view name,
                   double fallback) const;

  // The grid results alone — deterministic, byte-identical across thread
  // counts and runs (no timings). Failed cells carry status/error instead of
  // metrics; successful cells serialize exactly as in a clean run.
  std::string results_json() const;

  // The full report: bench name, schema version, env, phase seconds,
  // throughput, totals, failures, and the results grid.
  std::string report_json() const;

  // Writes report_json() atomically to <dir>/BENCH_<name>.json where <dir>
  // is STC_BENCH_DIR or the working directory; returns the path written or
  // a structured error (bad dir, failed write, injected "report.write.*"
  // fault) — never a torn file.
  Result<std::string> write_report() const;

 private:
  void collect_failures();
  void prepare_journal();
  void journal_append_outcome(std::size_t index);
  Status absorb_journal_payload(const std::string& payload);
  struct Job {
    std::string name;
    std::vector<std::pair<std::string, std::string>> params;
    std::function<ExperimentResult()> fn;
  };

  struct MetaEntry {
    enum class Kind { kString, kDouble, kUint };
    std::string key;
    Kind kind;
    std::string s;
    double d = 0.0;
    std::uint64_t u = 0;
  };

  std::string bench_name_;
  std::vector<MetaEntry> meta_;
  std::vector<std::pair<std::string, double>> phases_;
  std::vector<Job> jobs_;
  std::vector<ExperimentResult> results_;
  std::vector<JobFailure> outcomes_;  // per job; status kOk when clean
  std::vector<JobFailure> failures_;  // the non-ok subset, index order
  std::uint32_t max_retries_ = 0;
  bool retries_set_ = false;
  double job_timeout_ = 0.0;
  bool timeout_set_ = false;
  std::size_t threads_used_ = 0;
  bool ran_ = false;
  bool shardable_ = false;
  bool resume_ = false;
  std::vector<char> done_;  // cells absorbed from the journal
  // write_report() (const) retires the journal after the report is durable.
  mutable JournalWriter journal_;
};

}  // namespace stc
