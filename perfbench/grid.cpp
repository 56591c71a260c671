#include "grid.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <ctime>
#include <cinttypes>
#include <cstdio>
#include <mutex>

#include "db/kernel.h"
#include "spans.h"
#include "support/error.h"
#include "support/experiment.h"

namespace perfbench {

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::uint64_t counter_digest(const stc::CounterSet& counters) {
  std::uint64_t h = 14695981039346656037ull;
  const auto byte = [&h](unsigned char b) {
    h ^= b;
    h *= 1099511628211ull;
  };
  for (const auto& [name, value] : counters.items()) {
    for (const char c : name) byte(static_cast<unsigned char>(c));
    byte(0);
    for (int i = 0; i < 8; ++i) {
      byte(static_cast<unsigned char>(value >> (8 * i)));
    }
  }
  return h;
}

namespace {

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             1e-6 * static_cast<double>(ru.ru_utime.tv_usec);
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_stime.tv_usec);
  u.ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw) +
                   static_cast<std::uint64_t>(ru.ru_nivcsw);
  return u;
}

// CPU time the hypervisor gave to other guests, summed over this machine's
// CPUs (/proc/stat "steal"; 0 where unavailable). Time stolen during a pass
// stretches its wall time without showing in its CPU time.
double steal_s() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  const long tick = sysconf(_SC_CLK_TCK);
  return n == 8 && tick > 0 ? static_cast<double>(v[7]) / tick : 0.0;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// Throws StatusError (so the runner records the cell as failed) when the
// cell's digest is missing from or differs from the reference.
void check_digest(const PassInput& in, const std::string& cell,
                  std::uint64_t d) {
  if (in.reference == nullptr) return;
  const auto it = in.reference->find(cell);
  if (it == in.reference->end()) {
    throw stc::StatusError(stc::internal_error("no reference counter digest"));
  }
  if (it->second != d) {
    char msg[96];
    std::snprintf(msg, sizeof msg,
                  "counter digest %016" PRIx64 " != reference %016" PRIx64, d,
                  it->second);
    throw stc::StatusError(stc::internal_error(msg));
  }
}

}  // namespace

PassResult run_pass(const std::vector<Cell>& cells, const PassInput& in) {
  stc::ExperimentRunner runner("perfbench_" + in.workload);
  runner.set_shardable(true);
  runner.meta("scale_factor", kScaleFactor);
  runner.meta("seed", in.seed);
  runner.meta("line_bytes", std::uint64_t{kLineBytes});
  runner.meta("replay_mode", "compiled");
  runner.meta("training_events", in.training_events);
  runner.meta("test_events", in.test_events);
  const stc::cfg::ProgramImage& image = stc::db::kernel_image();
  runner.meta("kernel_routines",
              static_cast<std::uint64_t>(image.num_routines()));
  runner.meta("kernel_blocks", static_cast<std::uint64_t>(image.num_blocks()));
  runner.meta("kernel_instructions", image.total_instructions());
  runner.record_phase("setup", in.setup_s);
  runner.record_phase("workload", 0.0);
  runner.record_phase("layouts", 0.0);

  PassResult out;
  out.cells.resize(cells.size());
  std::mutex record_mu;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    runner.add(cells[i].name, cells[i].params, [&, i] {
      CellTiming& timing = out.cells[i];
      timing.thread = std::this_thread::get_id();
      timing.start_ns = now_ns();
      const double cpu_start = thread_cpu_s();
      set_current_cell(static_cast<std::int64_t>(i));
      struct Finish {
        CellTiming& timing;
        double cpu_start;
        ~Finish() {
          set_current_cell(-1);
          timing.cpu_s = thread_cpu_s() - cpu_start;
          timing.end_ns = now_ns();
        }
      } finish{timing, cpu_start};
      ScopedSpan span("support.cell");
      stc::ExperimentResult result = cells[i].run();
      ScopedSpan check("perfbench.digest");
      const std::uint64_t d = counter_digest(result.counters());
      if (in.record != nullptr) {
        const std::lock_guard<std::mutex> lock(record_mu);
        (*in.record)[cells[i].name] = d;
      }
      check_digest(in, cells[i].name, d);
      return result;
    });
  }

  const Usage before = usage_now();
  const double steal_before = steal_s();
  out.start_ns = now_ns();
  runner.run(kWorkers);
  const std::int64_t end_ns = now_ns();
  const Usage after = usage_now();
  out.steal_s = steal_s() - steal_before;
  out.wall_s = static_cast<double>(end_ns - out.start_ns) * 1e-9;
  out.usage.user_s = after.user_s - before.user_s;
  out.usage.sys_s = after.sys_s - before.sys_s;
  out.usage.ctx_switches = after.ctx_switches - before.ctx_switches;
  out.cpu_s = out.usage.user_s + out.usage.sys_s;
  {
    ScopedSpan span("support.report");
    const std::int64_t t0 = now_ns();
    const stc::Result<std::string> written = runner.write_report();
    out.report_s = static_cast<double>(now_ns() - t0) * 1e-9;
    if (!written.is_ok()) {
      throw stc::StatusError(written.status().with_context("report"));
    }
  }
  out.attempted = cells.size();
  out.failed = runner.failures().size();
  for (const stc::JobFailure& f : runner.failures()) {
    out.failures.push_back(f.error.to_string());
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (runner.job_status(i) == stc::JobStatus::kOk) {
      out.totals.merge(runner.result(i).counters());
    }
  }
  return out;
}

RunnerStats runner_stats(const PassResult& pass) {
  RunnerStats r;
  std::map<std::thread::id, double> busy;
  std::map<std::thread::id, std::int64_t> last_end;
  std::int64_t grid_end = pass.start_ns;
  double wait = 0.0;
  for (const CellTiming& c : pass.cells) {
    const double d = static_cast<double>(c.end_ns - c.start_ns) * 1e-9;
    busy[c.thread] += d;
    r.busy_s += d;
    last_end[c.thread] = std::max(last_end[c.thread], c.end_ns);
    grid_end = std::max(grid_end, c.end_ns);
    wait += static_cast<double>(c.start_ns - pass.start_ns) * 1e-9;
  }
  if (!pass.cells.empty()) {
    r.queue_wait_s = wait / static_cast<double>(pass.cells.size());
  }
  for (const auto& [thread, end] : last_end) {
    r.worker_idle_s += static_cast<double>(grid_end - end) * 1e-9;
  }
  double busiest = 0.0;
  for (const auto& [thread, b] : busy) busiest = std::max(busiest, b);
  r.runner_overhead_s = pass.wall_s - busiest;
  return r;
}

}  // namespace perfbench
