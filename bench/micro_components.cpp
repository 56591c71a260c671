// Microbenchmarks of the core components: simulator throughput, layout
// construction cost, index operation latency, trace recording overhead.
// These measure the tooling itself, not the paper's results.
//
// Each job runs a fixed amount of work under a manual timing loop and
// reports nanoseconds per operation plus items/second. Timing jobs are
// serialized (runner.run(1)) so they never contend for cores.
#include <chrono>
#include <cstdio>

#include "bench/common.h"
#include "cfg/builder.h"
#include "core/layouts.h"
#include "db/btree.h"
#include "db/hash_index.h"
#include "support/rng.h"
#include "testing/synthetic.h"

namespace stc {
namespace {

// Shared synthetic inputs (built once; benchmarks must be deterministic).
struct MicroInputs {
  MicroInputs() {
    Rng rng(2024);
    image = testing::random_image(rng, 200);
    wcfg = testing::random_wcfg(*image, rng);
    trace = testing::random_trace(*image, rng, 200000);
    layout = cfg::AddressMap::original(*image);
    plan = std::make_unique<const sim::ReplayPlan>(
        sim::build_replay_plan(sim::ReplayMode::kCompiled, trace, *image,
                               layout, kLineBytes)
            .take());
  }
  static constexpr std::uint32_t kLineBytes = 32;
  std::unique_ptr<cfg::ProgramImage> image;
  profile::WeightedCFG wcfg;
  trace::BlockTrace trace;
  cfg::AddressMap layout;
  std::unique_ptr<const sim::ReplayPlan> plan;
};

// Repeats `body` `iterations` times and returns a result carrying the
// measured wall-clock time: seconds, ns/op and items/s. `items` is the
// number of logical items one call of `body` processes.
template <typename Body>
ExperimentResult timed(std::uint64_t iterations, std::uint64_t items,
                       Body&& body) {
  using clock = std::chrono::steady_clock;
  std::uint64_t sink = 0;
  const auto start = clock::now();
  for (std::uint64_t i = 0; i < iterations; ++i) sink += body();
  const double seconds = std::chrono::duration<double>(clock::now() - start)
                             .count();
  ExperimentResult result;
  result.metric("seconds", seconds);
  result.metric("ns_per_op",
                seconds * 1e9 / double(iterations * (items ? items : 1)));
  if (seconds > 0) {
    result.metric("items_per_second", double(iterations * items) / seconds);
  }
  result.counters().add("iterations", iterations);
  result.counters().add("items", iterations * items);
  result.counters().add("checksum", sink);
  return result;
}

}  // namespace
}  // namespace stc

int main() {
  using namespace stc;
  std::printf("== Microbenchmarks: component throughput ==\n\n");

  MicroInputs in;
  const std::uint64_t trace_events = in.trace.num_events();

  ExperimentRunner runner("micro_components");
  runner.meta("trace_events", trace_events);
  runner.meta("synthetic_routines", std::uint64_t{200});

  std::vector<std::size_t> jobs;
  jobs.push_back(runner.add("trace append", {{"component", "trace"}}, [] {
    return timed(20, 10000, [] {
      Rng rng(1);
      trace::BlockTrace t;
      for (int i = 0; i < 10000; ++i) {
        t.append(static_cast<cfg::BlockId>(rng.uniform(1000)));
      }
      return t.num_events();
    });
  }));
  jobs.push_back(runner.add("trace replay", {{"component", "trace"}},
                            [&in, trace_events] {
    return timed(20, trace_events, [&in] {
      std::uint64_t sum = 0;
      in.trace.for_each([&](cfg::BlockId b) { sum += b; });
      return sum;
    });
  }));
  for (const std::uint32_t cache_bytes : {1024u, 8192u}) {
    jobs.push_back(runner.add(
        "missrate sim " + fmt_size(cache_bytes),
        {{"component", "sim"}, {"cache_bytes", std::to_string(cache_bytes)}},
        [&in, trace_events, cache_bytes] {
          return timed(5, trace_events, [&in, cache_bytes] {
            sim::ICache cache({cache_bytes, MicroInputs::kLineBytes, 1});
            return sim::replay_missrate(*in.plan, cache).misses;
          });
        }));
  }
  jobs.push_back(runner.add("seq3 sim", {{"component", "sim"}},
                            [&in, trace_events] {
    return timed(5, trace_events, [&in] {
      sim::FetchParams params;
      sim::ICache cache({4096, MicroInputs::kLineBytes, 1});
      return sim::run_seq3(*in.plan, params, &cache).cycles;
    });
  }));
  jobs.push_back(runner.add("stc layout build", {{"component", "layout"}},
                            [&in] {
    return timed(10, 1, [&in] {
      return std::uint64_t{
          core::make_layout(core::LayoutKind::kStcAuto, in.wcfg, 4096, 1024)
              .size()};
    });
  }));
  jobs.push_back(runner.add("pettis-hansen build", {{"component", "layout"}},
                            [&in] {
    return timed(10, 1, [&in] {
      return std::uint64_t{
          core::make_layout(core::LayoutKind::kPettisHansen, in.wcfg, 0, 0)
              .size()};
    });
  }));
  for (const std::int64_t n : {std::int64_t{1000}, std::int64_t{10000}}) {
    jobs.push_back(runner.add(
        "btree insert " + fmt_count(std::uint64_t(n)),
        {{"component", "index"}, {"keys", std::to_string(n)}}, [n] {
          return timed(5, std::uint64_t(n), [n] {
            db::Kernel kernel;
            db::BTreeIndex index(kernel);
            for (std::int64_t i = 0; i < n; ++i) {
              index.insert(db::Value((i * 2654435761) % 100000),
                           db::RID{static_cast<std::uint32_t>(i), 0});
            }
            return index.entry_count();
          });
        }));
  }
  jobs.push_back(runner.add("btree probe", {{"component", "index"}}, [] {
    db::Kernel kernel;
    db::BTreeIndex index(kernel);
    for (std::int64_t i = 0; i < 10000; ++i) {
      index.insert(db::Value(i), db::RID{static_cast<std::uint32_t>(i), 0});
    }
    std::int64_t key = 0;
    return timed(20000, 1, [&index, &key] {
      auto cursor = index.seek_equal(db::Value(key));
      db::RID rid;
      const bool found = cursor->next(rid);
      key = (key + 7919) % 10000;
      return std::uint64_t{found};
    });
  }));
  jobs.push_back(runner.add("hash probe", {{"component", "index"}}, [] {
    db::Kernel kernel;
    db::HashIndex index(kernel);
    for (std::int64_t i = 0; i < 10000; ++i) {
      index.insert(db::Value(i), db::RID{static_cast<std::uint32_t>(i), 0});
    }
    std::int64_t key = 0;
    return timed(20000, 1, [&index, &key] {
      auto cursor = index.seek_equal(db::Value(key));
      db::RID rid;
      const bool found = cursor->next(rid);
      key = (key + 7919) % 10000;
      return std::uint64_t{found};
    });
  }));

  // Timing microbenchmarks must not contend for cores: force serial
  // execution regardless of STC_THREADS.
  runner.run(1);

  TextTable table;
  table.header({"benchmark", "ns/op", "items/s"});
  for (const std::size_t job : jobs) {
    char ns[32];
    std::snprintf(ns, sizeof ns, "%.1f", runner.metric_or(job, "ns_per_op"));
    char ips[32];
    std::snprintf(ips, sizeof ips, "%.3g",
                  runner.metric_or(job, "items_per_second", 0.0));
    table.row({runner.job_name(job), ns, ips});
  }
  std::fputs(table.render().c_str(), stdout);

  return bench::write_report(runner);
}
