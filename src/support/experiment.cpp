#include "support/experiment.h"

#include <signal.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

#include "support/check.h"
#include "support/env.h"
#include "support/faultpoint.h"
#include "support/io.h"
#include "support/json.h"
#include "support/json_read.h"
#include "support/logsink.h"
#include "support/thread_pool.h"

namespace stc {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// SIGINT/SIGTERM: an interrupted run must stay resumable and leave no
// litter. The journal needs no flushing here — every append is already
// fsync'd — so the handler only unlinks in-flight temp files and dies by the
// original signal. All calls are async-signal-safe.
void interrupt_handler(int sig) {
  unlink_signal_cleanup_paths();
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

void install_interrupt_handlers() {
  static std::once_flag once;
  std::call_once(once, [] {
    struct sigaction action = {};
    action.sa_handler = interrupt_handler;
    ::sigemptyset(&action.sa_mask);
    for (const int sig : {SIGINT, SIGTERM}) {
      struct sigaction previous = {};
      // Leave non-default dispositions (a test harness's, SIG_IGN) alone.
      if (::sigaction(sig, nullptr, &previous) == 0 &&
          previous.sa_handler == SIG_DFL) {
        ::sigaction(sig, &action, nullptr);
      }
    }
  });
}

// Warns (once per job) on stderr when a running job overruns its deadline.
// Jobs are cooperative — the watchdog cannot kill a stuck simulation, but it
// makes a wedged sweep diagnosable instead of silent; the overrun is then
// recorded as timed_out when the attempt finally returns.
class DeadlineWatchdog {
 public:
  DeadlineWatchdog(double timeout_seconds, const std::vector<std::string>& names)
      : timeout_(timeout_seconds),
        names_(names),
        start_(names.size(), Clock::time_point::min()),
        attempt_(names.size(), 1),
        warned_(names.size(), false),
        thread_([this] { loop(); }) {}

  ~DeadlineWatchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  void begin(std::size_t index, std::uint32_t attempt) {
    std::lock_guard<std::mutex> lock(mu_);
    start_[index] = Clock::now();
    attempt_[index] = attempt;
    warned_[index] = false;
  }

  void end(std::size_t index) {
    std::lock_guard<std::mutex> lock(mu_);
    start_[index] = Clock::time_point::min();
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!done_) {
      cv_.wait_for(lock, std::chrono::milliseconds(100));
      const Clock::time_point now = Clock::now();
      for (std::size_t i = 0; i < start_.size(); ++i) {
        if (start_[i] == Clock::time_point::min() || warned_[i]) continue;
        const double elapsed =
            std::chrono::duration<double>(now - start_[i]).count();
        if (elapsed > timeout_) {
          warned_[i] = true;
          char message[256];
          std::snprintf(message, sizeof message,
                        "watchdog: job '%s' (attempt %u) is %.1fs past its "
                        "%.3gs deadline",
                        names_[i].c_str(), attempt_[i], elapsed - timeout_,
                        timeout_);
          // One locked sink: the warning comes from the watchdog's own
          // thread and must not interleave with bench output.
          log::line(message);
        }
      }
    }
  }

  const double timeout_;
  const std::vector<std::string>& names_;
  std::vector<Clock::time_point> start_;
  std::vector<std::uint32_t> attempt_;
  std::vector<bool> warned_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

}  // namespace

void ExperimentResult::metric(std::string_view name, double value) {
  for (auto& m : metrics_) {
    if (m.first == name) {
      m.second = value;
      return;
    }
  }
  metrics_.emplace_back(std::string(name), value);
}

Result<double> ExperimentResult::try_metric(std::string_view name) const {
  for (const auto& m : metrics_) {
    if (m.first == name) return m.second;
  }
  std::string have;
  for (const auto& m : metrics_) {
    if (!have.empty()) have += ", ";
    have += m.first;
  }
  return not_found_error("metric '" + std::string(name) + "' not recorded (" +
                         (have.empty() ? "no metrics" : "have: " + have) + ")");
}

double ExperimentResult::metric(std::string_view name) const {
  return try_metric(name).value();  // throws StatusError when absent
}

bool ExperimentResult::has_metric(std::string_view name) const {
  for (const auto& m : metrics_) {
    if (m.first == name) return true;
  }
  return false;
}

const char* to_string(JobStatus status) {
  switch (status) {
    case JobStatus::kOk:
      return "ok";
    case JobStatus::kFailed:
      return "failed";
    case JobStatus::kTimedOut:
      return "timed_out";
  }
  return "unknown";
}

ExperimentRunner::ExperimentRunner(std::string bench_name)
    : bench_name_(std::move(bench_name)) {}

void ExperimentRunner::meta(std::string_view key, std::string_view value) {
  meta_.push_back({std::string(key), MetaEntry::Kind::kString,
                   std::string(value), 0.0, 0});
}

void ExperimentRunner::meta(std::string_view key, double value) {
  meta_.push_back({std::string(key), MetaEntry::Kind::kDouble, {}, value, 0});
}

void ExperimentRunner::meta(std::string_view key, std::uint64_t value) {
  meta_.push_back({std::string(key), MetaEntry::Kind::kUint, {}, 0.0, value});
}

void ExperimentRunner::record_phase(std::string_view phase, double seconds) {
  // STC_ZERO_TIMINGS makes reports fully byte-deterministic (the crash
  // harness compares whole files); malformed values are caught by
  // validate_all, not here.
  if (const Result<bool> zero = env::zero_timings();
      zero.is_ok() && zero.value()) {
    seconds = 0.0;
  }
  for (auto& p : phases_) {
    if (p.first == phase) {
      p.second += seconds;
      return;
    }
  }
  phases_.emplace_back(std::string(phase), seconds);
}

void ExperimentRunner::time_phase(std::string_view phase,
                                  const std::function<void()>& fn) {
  const auto start = Clock::now();
  fn();
  record_phase(phase, seconds_since(start));
}

std::size_t ExperimentRunner::add(
    std::string job_name,
    std::vector<std::pair<std::string, std::string>> params,
    std::function<ExperimentResult()> fn) {
  STC_REQUIRE(!ran_);
  jobs_.push_back({std::move(job_name), std::move(params), std::move(fn)});
  return jobs_.size() - 1;
}

void ExperimentRunner::set_max_retries(std::uint32_t retries) {
  max_retries_ = retries;
  retries_set_ = true;
}

void ExperimentRunner::set_job_timeout(double seconds) {
  STC_REQUIRE(seconds >= 0.0);
  job_timeout_ = seconds;
  timeout_set_ = true;
}

Result<std::string> ExperimentRunner::journal_path() const {
  Result<std::string> dir = env::bench_dir();
  if (!dir.is_ok()) return dir.status().with_context("journal");
  return dir.value() + "/BENCH_" + bench_name_ + ".journal";
}

Result<std::size_t> ExperimentRunner::threads_from_env() {
  return env::threads();
}

void ExperimentRunner::run(std::size_t threads) {
  STC_REQUIRE(!ran_);
  ran_ = true;
  if (!retries_set_) max_retries_ = env::job_retries().value();
  if (!timeout_set_) job_timeout_ = env::job_timeout().value();
  resume_ = env::resume().value();
  install_interrupt_handlers();
  if (threads == 0) threads = threads_from_env().value();
  results_.assign(jobs_.size(), ExperimentResult{});
  outcomes_.assign(jobs_.size(), JobFailure{});
  failures_.clear();
  done_.assign(jobs_.size(), 0);
  if (shardable_) prepare_journal();

  std::vector<std::string> job_names;
  job_names.reserve(jobs_.size());
  for (const Job& job : jobs_) job_names.push_back(job.name);
  std::unique_ptr<DeadlineWatchdog> watchdog;
  if (job_timeout_ > 0.0) {
    watchdog = std::make_unique<DeadlineWatchdog>(job_timeout_, job_names);
  }

  // One grid cell: run the job, capturing any thrown error into the
  // outcome instead of letting it reach the pool. Failed attempts retry up
  // to max_retries_ times (transient faults); deadline overruns do not — a
  // deterministic simulation that overran once will overrun again.
  const auto run_job = [this, &watchdog](std::size_t i) {
    JobFailure& outcome = outcomes_[i];
    if (done_[i]) return;  // replayed from the journal; outcome is final
    outcome.index = i;
    outcome.name = jobs_[i].name;
    const std::uint32_t max_attempts = 1 + max_retries_;
    for (std::uint32_t attempt = 1; attempt <= max_attempts; ++attempt) {
      outcome.attempts = attempt;
      if (watchdog) watchdog->begin(i, attempt);
      const auto start = Clock::now();
      Status error;
      ExperimentResult result;
      try {
        if (Status s = fault::fail_if("job.exec", "executing job"); !s.is_ok()) {
          throw StatusError(s);
        }
        result = jobs_[i].fn();
      } catch (const StatusError& e) {
        error = e.status();
      } catch (const std::exception& e) {
        error = internal_error(std::string("unhandled exception: ") + e.what());
      } catch (...) {
        error = internal_error("unhandled non-exception throw");
      }
      const double elapsed = seconds_since(start);
      if (watchdog) watchdog->end(i);
      if (error.is_ok() && job_timeout_ > 0.0 && elapsed > job_timeout_) {
        outcome.status = JobStatus::kTimedOut;
        outcome.error =
            timeout_error("ran past the " + json_number(job_timeout_) +
                          "s deadline")
                .with_context("job '" + jobs_[i].name + "'");
        break;  // deadline overruns are not transient: no retry
      }
      if (error.is_ok()) {
        results_[i] = std::move(result);
        outcome.status = JobStatus::kOk;
        outcome.error = Status::ok();
        break;
      }
      outcome.status = JobStatus::kFailed;
      outcome.error = error.with_context("job '" + jobs_[i].name + "'");
    }
    // The cell's fate is sealed — make it durable before the pool moves on.
    journal_append_outcome(i);
  };

  const auto start = Clock::now();
  {
    ThreadPool pool(threads);
    threads_used_ = pool.thread_count() == 0 ? 1 : pool.thread_count();
    pool.parallel_for(jobs_.size(), run_job);
  }
  watchdog.reset();
  record_phase("replay", seconds_since(start));
  collect_failures();
}

void ExperimentRunner::collect_failures() {
  failures_.clear();
  for (const JobFailure& outcome : outcomes_) {
    if (outcome.status != JobStatus::kOk) failures_.push_back(outcome);
  }
  for (const JobFailure& failure : failures_) {
    log::line("[" + bench_name_ + "] job '" + failure.name + "' " +
              to_string(failure.status) + " after " +
              std::to_string(failure.attempts) +
              " attempt(s): " + failure.error.to_string());
  }
}

namespace {

// Reconstructs a Status from the "<code>: <message>" text an outcome
// serialized into a journal record, so a resumed report's failures section
// is byte-identical to the uninterrupted run's.
Status parse_status(const std::string& text) {
  const std::size_t sep = text.find(": ");
  const std::string code_name =
      sep == std::string::npos ? std::string() : text.substr(0, sep);
  const std::string message =
      sep == std::string::npos ? text : text.substr(sep + 2);
  for (const ErrorCode code :
       {ErrorCode::kInvalidArgument, ErrorCode::kCorruptData,
        ErrorCode::kIoError, ErrorCode::kNotFound, ErrorCode::kTimeout,
        ErrorCode::kFaultInjected, ErrorCode::kInternal}) {
    if (code_name == to_string(code)) return Status(code, message);
  }
  return internal_error(text);
}

// True when `value` is a whole number in [lo, hi]. Journal records are
// outside input: the double is checked before any integer conversion, since
// converting 2.5 would alias a real cell and -1 or 1e300 is undefined.
bool whole_number_in(const JsonValue* value, double lo, double hi) {
  return value != nullptr && value->is_number() && value->number >= lo &&
         value->number <= hi && std::floor(value->number) == value->number;
}

}  // namespace

// Opens this runner's journal, first replaying it under STC_RESUME=1. A
// record that fails to absorb (the grid changed under the journal) drops it
// and everything after; the journal is then truncated to what was kept, so
// appends continue from a clean prefix. Journal trouble never fails the run
// — it degrades to journaling-off (the journal stays closed) with a logged
// warning.
void ExperimentRunner::prepare_journal() {
  Result<std::string> path = journal_path();
  if (!path.is_ok()) {
    log::line("journal: " + path.status().to_string() +
              "; journaling disabled");
    return;
  }
  std::uint64_t keep = 0;
  if (resume_) {
    Result<JournalScan> scan = read_journal(path.value());
    if (!scan.is_ok()) {
      log::line("journal: " + scan.status().to_string() + "; starting fresh");
    } else {
      std::size_t absorbed = 0;
      for (const std::string& payload : scan.value().payloads) {
        if (Status s = absorb_journal_payload(payload); !s.is_ok()) {
          log::line("journal: " + s.to_string() +
                    "; dropping it and later records");
          break;
        }
        ++absorbed;
      }
      if (absorbed > 0) keep = scan.value().record_ends[absorbed - 1];
      if (scan.value().torn) {
        log::line("journal '" + path.value() + "': torn tail (" +
                  scan.value().tear_reason + ") truncated");
      }
    }
  }
  if (Status s = journal_.open(path.value(), keep); !s.is_ok()) {
    log::line("journal: " + s.to_string() + "; journaling disabled");
  }
}

void ExperimentRunner::journal_append_outcome(std::size_t index) {
  if (!journal_.is_open()) return;
  const JobFailure& outcome = outcomes_[index];
  JsonWriter w;
  w.begin_object();
  w.key("index").value(static_cast<std::uint64_t>(index));
  w.key("name").value(jobs_[index].name);
  w.key("status").value(to_string(outcome.status));
  w.key("attempts").value(std::uint64_t{outcome.attempts});
  if (outcome.status != JobStatus::kOk) {
    w.key("error").value(outcome.error.to_string());
  }
  w.key("metrics").begin_object();
  for (const auto& m : results_[index].metrics()) {
    w.key(m.first).value(m.second);
  }
  w.end_object();
  w.key("counters").begin_object();
  for (const auto& c : results_[index].counters().items()) {
    w.key(c.first).value(c.second);
  }
  w.end_object();
  w.end_object();
  if (Status s = journal_.append(w.str()); !s.is_ok()) {
    // A lost record only means resume re-runs this cell; the run goes on.
    log::line("journal: " + s.to_string());
  }
}

// One journal record back into the grid. Failed/timed_out records are as
// final as ok ones: the original run exhausted the retry budget, and the
// resumed report must serialize byte-identically to the uninterrupted one.
Status ExperimentRunner::absorb_journal_payload(const std::string& payload) {
  const auto corrupt = [](const std::string& what) {
    return corrupt_data_error("journal record: " + what);
  };
  std::string parse_error;
  const JsonValue root = parse_json(payload, &parse_error);
  if (!parse_error.empty()) return corrupt(parse_error);
  if (!root.is_object()) return corrupt("not a JSON object");
  const JsonValue* index = root.find("index");
  if (!whole_number_in(index, 0.0, static_cast<double>(jobs_.size()) - 1.0)) {
    return corrupt("index missing or not a job index");
  }
  const auto i = static_cast<std::size_t>(index->number);
  const JsonValue* name = root.find("name");
  if (name == nullptr || !name->is_string() || name->text != jobs_[i].name) {
    return corrupt("job " + std::to_string(i) + " name mismatch");
  }
  const JsonValue* status = root.find("status");
  if (status == nullptr || !status->is_string()) {
    return corrupt("missing status");
  }
  JobFailure& outcome = outcomes_[i];
  outcome.index = i;
  outcome.name = jobs_[i].name;
  const JsonValue* tries = root.find("attempts");
  if (!whole_number_in(tries, 1.0, std::numeric_limits<std::uint32_t>::max())) {
    return corrupt("attempts missing or not a count >= 1");
  }
  outcome.attempts = static_cast<std::uint32_t>(tries->number);
  if (status->text == "ok") {
    outcome.status = JobStatus::kOk;
    outcome.error = Status::ok();
  } else if (status->text == "failed" || status->text == "timed_out") {
    outcome.status = status->text == "timed_out" ? JobStatus::kTimedOut
                                                 : JobStatus::kFailed;
    const JsonValue* error = root.find("error");
    outcome.error =
        parse_status(error != nullptr ? error->text : "missing error text");
  } else {
    return corrupt("unknown status '" + status->text + "'");
  }
  ExperimentResult result;
  if (const JsonValue* metrics = root.find("metrics"); metrics != nullptr) {
    // json_number() emits shortest-round-trip doubles, so parsing with
    // strtod and re-serializing reproduces the recorded bytes exactly.
    for (const auto& m : metrics->members) {
      result.metric(m.first, m.second.number);
    }
  }
  if (const JsonValue* counters = root.find("counters"); counters != nullptr) {
    for (const auto& c : counters->members) {
      result.counters().add(c.first,
                            std::strtoull(c.second.text.c_str(), nullptr, 10));
    }
  }
  results_[i] = std::move(result);
  done_[i] = 1;
  return Status::ok();
}

const ExperimentResult& ExperimentRunner::result(std::size_t index) const {
  STC_REQUIRE(ran_ && index < results_.size());
  return results_[index];
}

JobStatus ExperimentRunner::job_status(std::size_t index) const {
  STC_REQUIRE(ran_ && index < outcomes_.size());
  return outcomes_[index].status;
}

const std::vector<JobFailure>& ExperimentRunner::failures() const {
  STC_REQUIRE(ran_);
  return failures_;
}

bool ExperimentRunner::all_ok() const {
  STC_REQUIRE(ran_);
  return failures_.empty();
}

int ExperimentRunner::exit_code() const { return all_ok() ? 0 : 3; }

double ExperimentRunner::metric_or(std::size_t index, std::string_view name,
                                   double fallback) const {
  STC_REQUIRE(ran_ && index < results_.size());
  if (outcomes_[index].status != JobStatus::kOk) return fallback;
  const Result<double> value = results_[index].try_metric(name);
  return value.is_ok() ? value.value() : fallback;
}

double ExperimentRunner::metric_or(std::size_t index,
                                   std::string_view name) const {
  return metric_or(index, name, std::nan(""));
}

namespace {

void write_results(JsonWriter& w,
                   const std::vector<ExperimentResult>& results,
                   const std::vector<JobFailure>& outcomes,
                   const std::vector<std::string>& names,
                   const std::vector<std::vector<std::pair<std::string,
                                                           std::string>>>&
                       params) {
  w.begin_array();
  for (std::size_t i = 0; i < results.size(); ++i) {
    w.begin_object();
    w.key("name").value(names[i]);
    if (!params[i].empty()) {
      w.key("params").begin_object();
      for (const auto& p : params[i]) w.key(p.first).value(p.second);
      w.end_object();
    }
    // Successful cells keep the clean-run shape (no "status" key), so a
    // degraded sweep's good cells stay byte-identical to a clean sweep's.
    if (outcomes[i].status != JobStatus::kOk) {
      w.key("status").value(to_string(outcomes[i].status));
      w.key("error").value(outcomes[i].error.to_string());
    }
    w.key("metrics").begin_object();
    for (const auto& m : results[i].metrics()) w.key(m.first).value(m.second);
    w.end_object();
    w.key("counters").begin_object();
    for (const auto& c : results[i].counters().items()) {
      w.key(c.first).value(c.second);
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
}

}  // namespace

std::string ExperimentRunner::results_json() const {
  STC_REQUIRE(ran_);
  std::vector<std::string> names;
  std::vector<std::vector<std::pair<std::string, std::string>>> params;
  for (const Job& job : jobs_) {
    names.push_back(job.name);
    params.push_back(job.params);
  }
  JsonWriter w;
  write_results(w, results_, outcomes_, names, params);
  return w.str();
}

std::string ExperimentRunner::report_json() const {
  STC_REQUIRE(ran_);
  JsonWriter w;
  w.begin_object();
  w.key("bench").value(bench_name_);
  w.key("schema_version").value(std::uint64_t{3});
  w.key("threads").value(static_cast<std::uint64_t>(threads_used_));

  w.key("env").begin_object();
  for (const MetaEntry& m : meta_) {
    w.key(m.key);
    switch (m.kind) {
      case MetaEntry::Kind::kString:
        w.value(m.s);
        break;
      case MetaEntry::Kind::kDouble:
        w.value(m.d);
        break;
      case MetaEntry::Kind::kUint:
        w.value(m.u);
        break;
    }
  }
  w.end_object();

  w.key("phases").begin_object();
  for (const auto& p : phases_) w.key(p.first).value(p.second);
  w.end_object();

  // Replay throughput from the jobs' standard counters.
  CounterSet totals;
  for (const ExperimentResult& r : results_) totals.merge(r.counters());
  double replay_seconds = 0.0;
  for (const auto& p : phases_) {
    if (p.first == "replay") replay_seconds = p.second;
  }
  // Schema v3: the throughput block is mandatory and always carries
  // events_per_sec (trace events — the "blocks" counter — replayed per
  // second of the replay phase; 0.0 when the phase was not timed).
  const auto rate = [&](std::uint64_t total) {
    return replay_seconds > 0.0 ? static_cast<double>(total) / replay_seconds
                                : 0.0;
  };
  w.key("throughput").begin_object();
  w.key("events_per_sec").value(rate(totals.get("blocks")));
  w.key("blocks_per_second").value(rate(totals.get("blocks")));
  w.key("instructions_per_second").value(rate(totals.get("instructions")));
  w.end_object();

  w.key("totals").begin_object();
  for (const auto& c : totals.items()) w.key(c.first).value(c.second);
  w.end_object();

  w.key("failures").begin_array();
  for (const JobFailure& f : failures_) {
    w.begin_object();
    w.key("job").value(f.name);
    w.key("index").value(static_cast<std::uint64_t>(f.index));
    w.key("status").value(to_string(f.status));
    w.key("attempts").value(std::uint64_t{f.attempts});
    w.key("error").value(f.error.to_string());
    w.end_object();
  }
  w.end_array();

  std::vector<std::string> names;
  std::vector<std::vector<std::pair<std::string, std::string>>> params;
  for (const Job& job : jobs_) {
    names.push_back(job.name);
    params.push_back(job.params);
  }
  w.key("results");
  write_results(w, results_, outcomes_, names, params);
  w.end_object();
  return w.str();
}

Result<std::string> ExperimentRunner::write_report() const {
  Result<std::string> dir = env::bench_dir();
  if (!dir.is_ok()) return dir.status().with_context("bench report");
  const std::string path = dir.value() + "/BENCH_" + bench_name_ + ".json";
  const std::string doc = report_json() + "\n";
  if (Status s =
          write_file_atomic(path, doc.data(), doc.size(), "report.write");
      !s.is_ok()) {
    return s.with_context("bench report '" + path + "'");
  }
  // The report is durable: the journal that would rebuild it is spent.
  journal_.close();
  std::remove((dir.value() + "/BENCH_" + bench_name_ + ".journal").c_str());
  return path;
}

}  // namespace stc
