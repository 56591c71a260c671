#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <utility>

namespace perfbench {

namespace {

struct ThreadLog {
  std::uint32_t thread = 0;
  std::vector<Span> spans;           // parents index into this vector
  std::vector<std::int64_t> stack;   // open spans, innermost last
  std::int64_t cell = -1;
};

std::atomic<bool> g_tracing{false};

// Owns every thread's log so spans outlive the (per-pass) pool threads that
// recorded them.
std::mutex g_logs_mu;
std::vector<std::unique_ptr<ThreadLog>> g_logs;

ThreadLog& local_log() {
  thread_local ThreadLog* log = nullptr;
  if (log == nullptr) {
    const std::lock_guard<std::mutex> lock(g_logs_mu);
    g_logs.push_back(std::make_unique<ThreadLog>());
    log = g_logs.back().get();
    log->thread = static_cast<std::uint32_t>(g_logs.size() - 1);
  }
  return *log;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

void set_current_cell(std::int64_t cell) {
  if (tracing()) local_log().cell = cell;
}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t count) {
  if (!tracing()) return;
  ThreadLog& log = local_log();
  Span span;
  span.name = name;
  span.parent = log.stack.empty() ? -1 : log.stack.back();
  span.cell = log.cell;
  span.thread = log.thread;
  span.count = count;
  index_ = static_cast<std::int64_t>(log.spans.size());
  log.stack.push_back(index_);
  span.start_ns = now_ns();
  log.spans.push_back(span);
}

ScopedSpan::~ScopedSpan() {
  if (index_ < 0) return;
  const std::int64_t end = now_ns();
  ThreadLog& log = local_log();
  log.spans[static_cast<std::size_t>(index_)].end_ns = end;
  log.stack.pop_back();
}

void ScopedSpan::set_count(std::uint64_t count) {
  if (index_ < 0) return;
  local_log().spans[static_cast<std::size_t>(index_)].count = count;
}

std::vector<Span> take_spans() {
  const std::lock_guard<std::mutex> lock(g_logs_mu);
  std::vector<Span> merged;
  for (const auto& log : g_logs) {
    append_spans(merged, log->spans);
    log->spans.clear();
  }
  return merged;
}

void append_spans(std::vector<Span>& into, const std::vector<Span>& more) {
  const auto offset = static_cast<std::int64_t>(into.size());
  for (Span span : more) {
    if (span.parent >= 0) span.parent += offset;
    into.push_back(span);
  }
}

std::vector<double> self_seconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      children[static_cast<std::size_t>(p)].push_back(i);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    intervals.clear();
    for (const std::size_t c : children[i]) {
      const std::int64_t lo = std::max(spans[c].start_ns, s.start_ns);
      const std::int64_t hi = std::min(spans[c].end_ns, s.end_ns);
      if (hi > lo) intervals.emplace_back(lo, hi);
    }
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return self;
}

std::string module_of(const char* name) {
  const std::string s(name);
  return s.substr(0, s.find('.'));
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%lld,\"cell\":%lld,\"thread\":%u,\"count\":%llu}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.cell), s.thread,
                 static_cast<unsigned long long>(s.count));
  }
  return std::fclose(f) == 0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::optional<Tail> tail(std::vector<double> values, std::size_t min_beyond) {
  const std::size_t n = values.size();
  if (min_beyond == 0 || n < 2 * min_beyond) return std::nullopt;
  std::sort(values.begin(), values.end());
  const std::size_t rank = n - min_beyond;  // 1-based nearest rank
  Tail t;
  t.value = values[rank - 1];
  t.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  t.samples = n;
  t.beyond = n - rank;
  return t;
}

std::vector<double> cell_medians(
    const std::vector<std::vector<double>>& passes) {
  std::vector<double> out;
  if (passes.empty()) return out;
  for (std::size_t c = 0; c < passes.front().size(); ++c) {
    std::vector<double> times;
    for (const std::vector<double>& pass : passes) times.push_back(pass[c]);
    out.push_back(median(std::move(times)));
  }
  return out;
}

}  // namespace perfbench
