// In-memory spans and the benchmark's own statistics.
//
// A span records one call from the benchmark into a module of the program:
// its name ("<module>.<what>", e.g. "sim.seq3"), start and end on the
// steady clock, the enclosing span on the same thread, the grid cell it ran
// for, and an optional work count (events replayed, ops retired). Spans are
// kept in per-thread buffers while tracing is on and merged once at the end,
// so recording takes no lock on the measured path. With tracing off a
// ScopedSpan is a single branch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

std::int64_t now_ns();

struct Span {
  const char* name = "";    // static string, "<module>.<what>"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  // index in the merged vector, -1 = none
  std::int64_t cell = -1;    // grid cell id, -1 outside the grid
  std::uint32_t thread = 0;  // recording thread, numbered from 0
  std::uint64_t count = 0;   // work done inside the span
};

// Turns recording on or off for spans opened afterwards.
void set_tracing(bool on);
bool tracing();

// The grid cell the calling thread is working on (-1 outside the grid);
// spans opened on this thread carry it.
void set_current_cell(std::int64_t cell);

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t count = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_count(std::uint64_t count);

 private:
  std::int64_t index_ = -1;  // slot in this thread's buffer, -1 = untraced
};

// Moves every recorded span out of the per-thread buffers into one vector
// (parents re-indexed into it) and empties the buffers.
std::vector<Span> take_spans();

// Appends `more` (as take_spans returned it) to `into`, re-indexing the
// parents of the appended spans.
void append_spans(std::vector<Span>& into, const std::vector<Span>& more);

// Self time of each span in seconds: its duration minus the part of its
// interval covered by its children (the union of their intervals clipped to
// the parent, so nested or overlapping children are not counted twice).
std::vector<double> self_seconds(const std::vector<Span>& spans);

// The module of a span name: the text before the first '.'.
std::string module_of(const char* name);

// Writes the spans as JSON lines: {"name","start_ns","end_ns","parent",
// "cell","thread","count"}. Returns false when the file cannot be written.
bool write_spans(const std::string& path, const std::vector<Span>& spans);

// ---- statistics ------------------------------------------------------------

// Median of `values` (mean of the middle two for an even count); 0 when
// empty.
double median(std::vector<double> values);

// The tail of a sample: the value at the highest percentile that still has
// at least `min_beyond` samples above it (nearest rank: the
// (n - min_beyond)-th smallest value). A tail below the median is no tail,
// so a sample with fewer than 2 * min_beyond values has none.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  // 100 * rank / n
  std::size_t samples = 0;
  std::size_t beyond = 0;
};
std::optional<Tail> tail(std::vector<double> values,
                         std::size_t min_beyond = 10);

// Each cell's median over a run's passes, where passes[p][c] is cell c's
// time in pass p and every pass runs the same grid. Statistics over these,
// one value per cell, have ranks fixed by the grid's size: the tail's
// percentile does not move with the number of passes a run fits in (pooling
// every pass's cells moved it across the gap between two classes of cells),
// and one slow pass does not move it. Empty when there are no passes.
std::vector<double> cell_medians(
    const std::vector<std::vector<double>>& passes);

}  // namespace perfbench
