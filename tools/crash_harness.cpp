// Crash-consistency harness for the experiment runner.
//
// Proves the resilience contract end to end: SIGKILL the process at every
// write-boundary fault point it crosses (journal appends, report writes,
// trace/cache saves), then resume with STC_RESUME=1 and demand a final
// BENCH_*.json byte-identical to an uninterrupted run, with no leftover
// temp files or journals.
//
// Modes:
//   crash_harness --child            deterministic 8-cell grid, writes its
//                                    report and exits
//   crash_harness [--dir D] [--sample K]
//                                    driver: reference run, fault-point
//                                    discovery via STC_FAULT_DUMP, then one
//                                    kill-and-resume task per (point, hit);
//                                    --sample K runs a deterministic K-task
//                                    subset (CI smoke), 0 = full sweep.
//
// Exit code 0 when every task resumed byte-identical and litter-free.
#include <dirent.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "support/env.h"
#include "support/experiment.h"
#include "support/io.h"

extern char** environ;

namespace {

using stc::ExperimentResult;
using stc::ExperimentRunner;

// The workload under test: small enough to crash hundreds of times in CI,
// rich enough (metrics, counters, multiple cells) that byte-identity is a
// real statement. Everything is a pure function of the cell index.
int run_child() {
  stc::env::validate_all_or_exit();
  ExperimentRunner runner("crashgrid");
  runner.set_shardable(true);
  runner.meta("workload", "crash-harness deterministic grid");
  runner.meta("cells", std::uint64_t{8});
  for (int i = 0; i < 8; ++i) {
    runner.add("cell" + std::to_string(i), {{"i", std::to_string(i)}},
               [i]() {
                 ExperimentResult result;
                 result.metric("value", i * 1.5);
                 result.metric("ratio", static_cast<double>(i) / 7.0);
                 result.counters().add("blocks", 100 + i);
                 result.counters().add("instructions", 1000 * i + 7);
                 return result;
               });
  }
  runner.run();
  stc::Result<std::string> path = runner.write_report();
  if (!path.is_ok()) {
    std::fprintf(stderr, "crash_harness child: %s\n",
                 path.status().to_string().c_str());
    return 1;
  }
  return runner.exit_code();
}

bool make_dir(const std::string& path) {
  return ::mkdir(path.c_str(), 0777) == 0 || errno == EEXIST;
}

struct RunOutcome {
  bool ran = false;       // the shell could start the child
  bool exited = false;    // normal exit (vs signal)
  int exit_code = -1;
  int signal = 0;
};

std::string shell_quote(const std::string& text) {
  std::string quoted = "'";
  for (const char c : text) {
    if (c == '\'') {
      quoted += "'\\''";
    } else {
      quoted += c;
    }
  }
  return quoted + "'";
}

// Drops every inherited STC_* knob so the harness is hermetic; run_grid then
// sets exactly the knobs each child needs. This process has one thread and
// runs one child at a time, so editing its own environment is safe.
void strip_stc_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "STC_", 4) != 0) continue;
    const char* eq = std::strchr(*e, '=');
    names.emplace_back(*e, eq != nullptr ? eq - *e : std::strlen(*e));
  }
  for (const std::string& name : names) ::unsetenv(name.c_str());
}

void set_knob(const char* name, const std::string& value) {
  if (value.empty()) {
    ::unsetenv(name);
  } else {
    ::setenv(name, value.c_str(), 1);
  }
}

// Runs this binary in --child mode with a controlled STC_* environment;
// stdout and stderr go to `log_path` for post-mortem on failure. The shell
// execs the child, so a SIGKILL reaches the caller as the child's own death.
RunOutcome run_grid(const std::string& exe, const std::string& bench_dir,
                    const std::string& crash_spec, bool resume,
                    const std::string& dump_path,
                    const std::string& log_path) {
  set_knob("STC_BENCH_DIR", bench_dir);
  set_knob("STC_ZERO_TIMINGS", "1");
  set_knob("STC_THREADS", "2");
  set_knob("STC_JOB_RETRIES", "1");
  set_knob("STC_CRASH", crash_spec);
  set_knob("STC_RESUME", resume ? "1" : "");
  set_knob("STC_FAULT_DUMP", dump_path);
  const std::string command = "exec " + shell_quote(exe) + " --child >>" +
                              shell_quote(log_path) + " 2>&1";
  const int wstatus = std::system(command.c_str());
  RunOutcome outcome;
  if (wstatus == -1) return outcome;
  outcome.ran = true;
  if (WIFEXITED(wstatus)) {
    outcome.exited = true;
    outcome.exit_code = WEXITSTATUS(wstatus);
    // 126/127: the shell could not run the binary at all.
    if (outcome.exit_code == 126 || outcome.exit_code == 127) {
      outcome.ran = false;
    }
  } else if (WIFSIGNALED(wstatus)) {
    outcome.signal = WTERMSIG(wstatus);
  }
  return outcome;
}

// Reads an STC_FAULT_DUMP file: "point count" per line, one block per
// process. The max count per point is the deepest any single process got —
// exactly the hit range STC_CRASH=point:k can target.
std::map<std::string, std::uint64_t> read_dump(const std::string& path) {
  std::map<std::string, std::uint64_t> counts;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return counts;
  char line[1024];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    char point[896];
    unsigned long long count = 0;
    if (std::sscanf(line, "%895s %llu", point, &count) == 2 && count > 0) {
      std::uint64_t& slot = counts[point];
      if (count > slot) slot = count;
    }
  }
  std::fclose(f);
  return counts;
}

bool is_write_boundary(const std::string& point) {
  for (const char* prefix : {"journal.", "report.write.", "trace.save."}) {
    if (point.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

bool read_bytes(const std::string& path, std::string* out) {
  stc::Result<std::vector<std::uint8_t>> bytes = stc::read_file(path);
  if (!bytes.is_ok()) return false;
  out->assign(bytes.value().begin(), bytes.value().end());
  return true;
}

// Any temp or journal file left in `dir` after a successful run is a
// contract violation.
std::vector<std::string> find_litter(const std::string& dir) {
  std::vector<std::string> litter;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return litter;
  while (struct dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    const auto ends_with = [&name](const char* suffix) {
      const std::size_t n = std::strlen(suffix);
      return name.size() >= n &&
             name.compare(name.size() - n, n, suffix) == 0;
    };
    if (ends_with(".tmp") || ends_with(".journal")) litter.push_back(name);
  }
  ::closedir(d);
  return litter;
}

void dump_log(const std::string& log_path) {
  std::string text;
  if (read_bytes(log_path, &text) && !text.empty()) {
    std::fprintf(stderr, "--- child log ---\n%s-----------------\n",
                 text.c_str());
  }
}

int run_driver(const std::string& exe, std::string dir, std::size_t sample) {
  if (dir.empty()) dir = "crash_harness_scratch";
  if (!make_dir(dir)) {
    std::fprintf(stderr, "crash_harness: cannot create '%s'\n", dir.c_str());
    return 1;
  }
  strip_stc_environment();

  // Reference: an uninterrupted run, which also records every fault point
  // the workload crosses.
  const std::string ref_dir = dir + "/ref";
  if (!make_dir(ref_dir)) return 1;
  const std::string dump_path = ref_dir + "/faults.dump";
  std::remove(dump_path.c_str());
  const RunOutcome ref =
      run_grid(exe, ref_dir, "", false, dump_path, ref_dir + "/log.txt");
  if (!ref.ran || !ref.exited || ref.exit_code != 0) {
    std::fprintf(stderr, "crash_harness: reference run failed\n");
    dump_log(ref_dir + "/log.txt");
    return 1;
  }
  std::string reference;
  if (!read_bytes(ref_dir + "/BENCH_crashgrid.json", &reference)) {
    std::fprintf(stderr, "crash_harness: reference report missing\n");
    return 1;
  }

  struct Task {
    std::string point;
    std::uint64_t hit;
  };
  std::vector<Task> tasks;
  for (const auto& [point, count] : read_dump(dump_path)) {
    if (!is_write_boundary(point)) continue;
    for (std::uint64_t k = 1; k <= count; ++k) tasks.push_back({point, k});
  }
  if (tasks.empty()) {
    std::fprintf(stderr,
                 "crash_harness: no write-boundary fault points recorded\n");
    return 1;
  }
  if (sample > 0 && sample < tasks.size()) {
    // Deterministic stride sample across the full (point, hit) range.
    std::vector<Task> picked;
    for (std::size_t i = 0; i < sample; ++i) {
      picked.push_back(tasks[i * tasks.size() / sample]);
    }
    tasks = std::move(picked);
  }
  std::printf("crash_harness: %zu kill task(s)\n", tasks.size());

  std::size_t failures = 0;
  std::size_t survived = 0;  // crash point never reached a kill (fine)
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    const Task& task = tasks[t];
    const std::string spec =
        task.point + ":" + std::to_string(task.hit);
    const std::string task_dir = dir + "/t" + std::to_string(t);
    if (!make_dir(task_dir)) return 1;
    const std::string log_path = task_dir + "/log.txt";
    std::remove(log_path.c_str());
    const auto fail = [&](const std::string& why) {
      ++failures;
      std::fprintf(stderr, "FAIL %s: %s\n", spec.c_str(), why.c_str());
      dump_log(log_path);
    };

    const RunOutcome crash = run_grid(exe, task_dir, spec, false, "", log_path);
    if (!crash.ran) {
      fail("could not spawn the crash run");
      continue;
    }
    bool need_resume = true;
    if (crash.exited && crash.exit_code == 0) {
      // The crash point was never reached a k-th time.
      need_resume = false;
      ++survived;
    } else if (!crash.exited && crash.signal != SIGKILL) {
      fail("crash run died by signal " + std::to_string(crash.signal) +
           ", expected SIGKILL");
      continue;
    } else if (crash.exited && crash.exit_code != 0) {
      fail("crash run exited with code " + std::to_string(crash.exit_code) +
           " instead of being killed");
      continue;
    }
    if (need_resume) {
      const RunOutcome resumed =
          run_grid(exe, task_dir, "", true, "", log_path);
      if (!resumed.ran || !resumed.exited || resumed.exit_code != 0) {
        fail("resume run did not exit cleanly");
        continue;
      }
    }
    std::string report;
    if (!read_bytes(task_dir + "/BENCH_crashgrid.json", &report)) {
      fail("final report missing after resume");
      continue;
    }
    if (report != reference) {
      fail("final report is not byte-identical to the reference");
      continue;
    }
    const std::vector<std::string> litter = find_litter(task_dir);
    if (!litter.empty()) {
      std::string names;
      for (const std::string& name : litter) {
        if (!names.empty()) names += ", ";
        names += name;
      }
      fail("leftover files after resume: " + names);
      continue;
    }
  }
  std::printf(
      "crash_harness: %zu task(s), %zu recovered in-run, %zu failure(s)\n",
      tasks.size(), survived, failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir;
  std::size_t sample = 0;
  bool child = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--child") {
      child = true;
    } else if (arg == "--dir" && i + 1 < argc) {
      dir = argv[++i];
    } else if (arg == "--sample" && i + 1 < argc) {
      sample = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr,
                   "usage: crash_harness [--child] [--dir D] [--sample K]\n");
      return 2;
    }
  }
  if (child) return run_child();
  char exe_buffer[4096];
  const ssize_t n =
      ::readlink("/proc/self/exe", exe_buffer, sizeof exe_buffer - 1);
  if (n <= 0) {
    std::fprintf(stderr, "crash_harness: cannot resolve /proc/self/exe\n");
    return 1;
  }
  exe_buffer[n] = '\0';
  return run_driver(exe_buffer, dir, sample);
}
