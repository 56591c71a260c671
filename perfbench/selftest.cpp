// Self-tests of the benchmark's own machinery: counter digests turn a single
// perturbed counter into a failed cell, span self times, the tail rule and
// the median. Run with --self-test.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "grid.h"
#include "spans.h"

namespace perfbench {

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("  %s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

Span span_at(const char* name, std::int64_t start, std::int64_t end,
             std::int64_t parent) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

void test_digests() {
  std::printf("counter digests:\n");
  std::atomic<bool> perturb{false};
  const auto cell = [&perturb](std::uint64_t misses, bool tamper) {
    return [&perturb, misses, tamper] {
      stc::ExperimentResult r;
      r.counters().add("instructions", 100000);
      r.counters().add("cache_misses",
                       misses + (tamper && perturb.load() ? 1 : 0));
      r.counters().add("blocks", 9000);
      return r;
    };
  };
  std::vector<Cell> cells;
  for (int i = 0; i < 4; ++i) {
    cells.push_back({"cell" + std::to_string(i), {},
                     cell(40 + static_cast<std::uint64_t>(i), i == 2)});
  }

  DigestMap reference;
  PassInput record;
  record.workload = "selftest";
  record.record = &reference;
  const PassResult recorded = run_pass(cells, record);
  expect(recorded.failed == 0 && reference.size() == cells.size(),
         "recording a clean grid stores one digest per cell");

  PassInput check;
  check.workload = "selftest";
  check.reference = &reference;
  const PassResult clean = run_pass(cells, check);
  expect(clean.attempted == 4 && clean.failed == 0,
         "unchanged counters pass against their digests");

  perturb = true;
  const PassResult bad = run_pass(cells, check);
  expect(bad.attempted == 4 && bad.failed == 1,
         "one counter off by one fails exactly that cell (4 attempted, 1 "
         "failed)");
  expect(bad.failures.size() == 1 &&
             bad.failures[0].find("cell2") != std::string::npos &&
             bad.failures[0].find("digest") != std::string::npos,
         "the failure names the cell and the digest mismatch");
  perturb = false;

  DigestMap partial = reference;
  partial.erase("cell3");
  check.reference = &partial;
  const PassResult missing = run_pass(cells, check);
  expect(missing.failed == 1, "a cell without a reference digest fails");

  check.reference = nullptr;
  perturb = true;
  const PassResult identities_only = run_pass(cells, check);
  expect(identities_only.failed == 0,
         "without reference digests only the cell's own checks apply");
  perturb = false;
}

void test_self_time() {
  std::printf("span self time:\n");
  // parent [0,100]; children [10,30] and [20,50] overlap; [90,120] sticks
  // out of the parent; [15,20] is a grandchild inside the first child.
  const std::vector<Span> spans = {
      span_at("sim.a", 0, 100, -1),     span_at("sim.b", 10, 30, 0),
      span_at("sim.c", 20, 50, 0),      span_at("sim.d", 90, 120, 0),
      span_at("verify.e", 15, 20, 1),
  };
  const std::vector<double> self = self_seconds(spans);
  expect(near(self[0], 50e-9),
         "parent self time subtracts the union of overlapping children, "
         "clipped to the parent");
  expect(near(self[1], 15e-9), "a nested grandchild is subtracted from its "
                               "parent only");
  expect(near(self[2], 30e-9) && near(self[3], 30e-9) && near(self[4], 5e-9),
         "leaf spans keep their whole duration");
  expect(module_of("sim.stream_missrate") == "sim" &&
             module_of("support") == "support",
         "a span's module is the text before the first dot");

  // Spans gathered in two batches keep their parents.
  std::vector<Span> both = spans;
  append_spans(both, spans);
  const std::vector<double> both_self = self_seconds(both);
  expect(both.size() == 10 && both[5].parent == -1 && both[6].parent == 5 &&
             both[9].parent == 6 && near(both_self[5], 50e-9) &&
             near(both_self[6], 15e-9),
         "appending a second batch re-indexes its parents");

  // Recorded spans nest by thread: the inner span's parent is the outer.
  take_spans();
  set_tracing(true);
  {
    ScopedSpan outer("sim.outer");
    ScopedSpan inner("sim.inner", 7);
  }
  set_tracing(false);
  { ScopedSpan ignored("sim.untraced"); }
  const std::vector<Span> recorded = take_spans();
  expect(recorded.size() == 2 && recorded[1].parent == 0 &&
             recorded[0].parent == -1 && recorded[1].count == 7,
         "ScopedSpan records nesting and counts, and nothing when off");
  if (recorded.size() == 2) {
    const std::vector<double> s = self_seconds(recorded);
    const double outer_s =
        static_cast<double>(recorded[0].end_ns - recorded[0].start_ns) * 1e-9;
    expect(std::fabs(s[0] + s[1] - outer_s) < 1e-12,
           "self times of a nest add up to the outer span");
  }
}

void test_tail() {
  std::printf("tail rule (highest percentile with >= 10 samples beyond):\n");
  const auto ramp = [](std::size_t n) {
    std::vector<double> v;
    for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
    return v;
  };
  const auto t100 = tail(ramp(100));
  expect(t100 && t100->value == 90.0 && near(t100->percentile, 90.0) &&
             t100->beyond == 10,
         "100 samples: p90, the 90th smallest, 10 beyond");
  const auto t25 = tail(ramp(25));
  expect(t25 && t25->value == 15.0 && near(t25->percentile, 60.0),
         "25 samples: p60, the 15th smallest");
  const auto t20 = tail(ramp(20));
  expect(t20 && t20->value == 10.0 && near(t20->percentile, 50.0),
         "20 samples: the smallest count with a tail, at the median");
  expect(!tail(ramp(19)) && !tail(ramp(1)) && !tail({}),
         "fewer than 20 samples: no tail");

  std::printf("grid tail (over each cell's median across passes):\n");
  // A grid too small for a tail is rejected, as main() does.
  std::vector<Cell> few;
  for (int i = 0; i < 6; ++i) {
    few.push_back({"c" + std::to_string(i), {}, [] {
                     stc::ExperimentResult r;
                     r.counters().add("instructions", 1);
                     return r;
                   }});
  }
  PassInput in;
  in.workload = "selftest";
  std::vector<std::vector<double>> passes;
  for (int pass = 0; pass < 3; ++pass) {
    std::vector<double> v;
    for (const CellTiming& c : run_pass(few, in).cells) v.push_back(c.cpu_s);
    passes.push_back(std::move(v));
  }
  const std::vector<double> few_cells = cell_medians(passes);
  expect(few_cells.size() == 6 && !tail(few_cells) && cell_medians({}).empty(),
         "a grid of 6 cells is rejected however many passes ran");
  // 40 cells a pass: 16 light (1) and 24 heavy (3, 4 and 5).
  const auto grid = [](double scale) {
    std::vector<double> v(16, 1.0);
    for (const double heavy : {3.0, 4.0, 5.0}) v.insert(v.end(), 8, heavy);
    for (double& x : v) x *= scale;
    return v;
  };
  const auto t4 = tail(cell_medians({grid(1), grid(1), grid(1), grid(1)}));
  const auto t5 =
      tail(cell_medians({grid(1), grid(1), grid(1), grid(1), grid(1)}));
  expect(t4 && t5 && t4->value == 4.0 && t5->value == 4.0 &&
             near(t4->percentile, 75.0) && t4->beyond == 10,
         "40 cells a pass: p75, the same cell class after 4 or 5 passes");
  // Pooled over 4 passes (160 cells), the rule puts the tail at p93.75,
  // in the heaviest class: its rank moves with the run's length.
  std::vector<double> pooled;
  for (int pass = 0; pass < 4; ++pass) {
    const std::vector<double> v = grid(1);
    pooled.insert(pooled.end(), v.begin(), v.end());
  }
  expect(tail(pooled)->value == 5.0, "pooled passes: rank moves with passes");
  const std::vector<double> slow = cell_medians({grid(1), grid(2), grid(1)});
  expect(tail(slow)->value == 4.0 && median(slow) == 3.0,
         "one slow pass out of three moves neither median nor tail");
}

void test_median() {
  std::printf("median:\n");
  expect(near(median({4, 1, 3, 2}), 2.5) && near(median({5, 1, 3}), 3.0) &&
             median({}) == 0.0,
         "even, odd and empty samples");
}

}  // namespace

int run_self_tests() {
  test_digests();
  test_self_time();
  test_tail();
  test_median();
  std::printf("self-test: %s (%d failed)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
