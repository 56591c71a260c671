// Deterministic fuzz drivers for the layout-equivalence oracle and the
// trace-file deserializer.
//
//   stc_fuzz --iters 5000 --seed 1 [--verbose] [--inject short-block]
//   stc_fuzz --replay-diff [--iters N] [--seed S] [--verbose]
//   stc_fuzz --multitenant [--iters N] [--seed S] [--verbose]
//   stc_fuzz --trace-bytes [--seed S] [--verbose]
//
// Oracle mode: each iteration derives an independent case seed from
// (--seed, iteration), generates a FuzzCase, and runs every layout kind
// through the oracle (verify::run_case). On the first failure the case is
// shrunk to a minimal repro, the oracle report is printed together with a
// paste-ready regression test snippet, and the process exits 1. A clean run
// exits 0.
//
// --replay-diff swaps the oracle for the replay differential check
// (verify::check_replay_modes): over every layout kind, each generated
// case's plan (sim/replay.h) must match the oracle's references kernel for
// kernel and feed for feed, and every simulator must hold its counter
// identities; any divergence is shrunk to a paste-ready regression snippet.
// Exit codes as above.
//
// --multitenant swaps in the multi-tenant composer differential check
// (verify::run_multitenant_diff): each case's trace is split into a
// salt-derived number of tenant streams, composed under a salt-derived
// quantum/arrival model, and checked for determinism, conservation,
// single-tenant byte-identity, the replay differential, and the
// tenant-partitioned CFA contract. Failures shrink as in the other modes.
//
// --inject short-block corrupts every produced layout with an emulated
// off-by-one block size (see verify::Injection) — used to prove the oracle
// and shrinker actually catch mapping bugs.
//
// --trace-bytes exercises BlockTrace::deserialize against corruption: it
// serializes deterministic traces (one single-chunk, one multi-chunk), then
// flips bits at EVERY byte offset and truncates at every length. Each mutant
// must either fail with a structured error or decode to a trace that
// re-serializes byte-identically to the original (a semantics-preserving
// flip); a crash, hang, sanitizer report, or silently different trace is a
// bug. Exits 0 when every mutant behaved.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "support/rng.h"
#include "trace/block_trace.h"
#include "verify/fuzz.h"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--iters N] [--seed S] [--verbose] "
               "[--inject short-block]\n"
               "       %s --replay-diff [--iters N] [--seed S] [--verbose]\n"
               "       %s --multitenant [--iters N] [--seed S] [--verbose]\n"
               "       %s --trace-bytes [--seed S] [--verbose]\n",
               argv0, argv0, argv0, argv0);
}

// Accounting for one corpus of mutants over a serialized trace.
struct TraceFuzzStats {
  std::uint64_t mutants = 0;
  std::uint64_t rejected = 0;   // structured error (the expected outcome)
  std::uint64_t harmless = 0;   // accepted and byte-identical round-trip
  std::uint64_t silent = 0;     // accepted but different payload: a bug
};

// Feeds one mutated buffer through deserialize and classifies the outcome.
// Returns false (and logs) only for the silent-corruption case; errors and
// identical round-trips are both acceptable.
bool check_mutant(const std::vector<std::uint8_t>& bytes, const char* what,
                  std::size_t offset, TraceFuzzStats& stats) {
  ++stats.mutants;
  auto decoded = stc::trace::BlockTrace::deserialize(
      bytes.empty() ? nullptr : bytes.data(), bytes.size());
  if (!decoded.is_ok()) {
    ++stats.rejected;
    return true;
  }
  if (decoded.value().serialize() == bytes) {
    ++stats.harmless;
    return true;
  }
  ++stats.silent;
  std::fprintf(stderr,
               "trace-bytes: %s at offset %zu was ACCEPTED but decodes to a "
               "different trace (silent corruption)\n",
               what, offset);
  return false;
}

// Flips bits at every offset (all eight single-bit patterns plus 0xff when
// `all_bits`, a single 0xff flip otherwise) and truncates at every
// `trunc_stride`-th length (1 = every prefix).
bool fuzz_trace_bytes(const std::vector<std::uint8_t>& original, bool all_bits,
                      std::size_t trunc_stride, const char* label,
                      bool verbose) {
  bool ok = true;
  TraceFuzzStats stats;
  std::vector<std::uint8_t> mutant = original;
  for (std::size_t offset = 0; offset < original.size(); ++offset) {
    const std::uint8_t patterns_all[] = {0x01, 0x02, 0x04, 0x08,
                                         0x10, 0x20, 0x40, 0x80, 0xff};
    const std::uint8_t patterns_one[] = {0xff};
    const std::uint8_t* patterns = all_bits ? patterns_all : patterns_one;
    const std::size_t num_patterns = all_bits ? 9 : 1;
    for (std::size_t p = 0; p < num_patterns; ++p) {
      mutant[offset] = original[offset] ^ patterns[p];
      ok = check_mutant(mutant, "bit flip", offset, stats) && ok;
    }
    mutant[offset] = original[offset];
  }
  for (std::size_t len = 0; len < original.size(); len += trunc_stride) {
    std::vector<std::uint8_t> prefix(original.begin(),
                                     original.begin() + static_cast<long>(len));
    ok = check_mutant(prefix, "truncation", len, stats) && ok;
  }
  if (verbose || !ok) {
    std::fprintf(stderr,
                 "trace-bytes %s: %llu mutants over %zu bytes: %llu rejected, "
                 "%llu harmless, %llu silent\n",
                 label, static_cast<unsigned long long>(stats.mutants),
                 original.size(),
                 static_cast<unsigned long long>(stats.rejected),
                 static_cast<unsigned long long>(stats.harmless),
                 static_cast<unsigned long long>(stats.silent));
  }
  return ok;
}

// Byte-flip fuzz over the serialized trace format. Two corpora: a small
// single-chunk trace gets the full 9-pattern treatment, and a trace just past
// the chunk-split threshold (exercising multi-chunk validation and the
// cross-chunk delta base) gets one flip per offset to bound runtime.
int run_trace_bytes(std::uint64_t seed, bool verbose) {
  stc::Rng rng(seed);

  stc::trace::BlockTrace small;
  std::uint32_t id = 1000;
  for (int i = 0; i < 1500; ++i) {
    // Mix short hops (1-byte varints) with long jumps (multi-byte varints).
    if (rng.chance(0.1)) {
      id = static_cast<std::uint32_t>(rng.uniform(1u << 24));
    } else {
      id = static_cast<std::uint32_t>(
          std::max<std::int64_t>(0, static_cast<std::int64_t>(id) +
                                        rng.uniform_range(-64, 64)));
    }
    small.append(id);
  }

  stc::trace::BlockTrace multi;
  id = 0;
  // Short deltas until the payload spills just past one 64KB chunk, so the
  // second chunk (and the decoder's per-chunk delta-base restart) is
  // exercised while the file stays small enough to flip every byte.
  while (multi.byte_size() < (1u << 16) + 1024) {
    id = static_cast<std::uint32_t>(
        std::max<std::int64_t>(0, static_cast<std::int64_t>(id) +
                                      rng.uniform_range(-40, 48)));
    multi.append(id);
  }

  bool ok = fuzz_trace_bytes(small.serialize(), /*all_bits=*/true,
                             /*trunc_stride=*/1, "single-chunk", verbose);
  ok = fuzz_trace_bytes(multi.serialize(), /*all_bits=*/false,
                        /*trunc_stride=*/251, "multi-chunk", verbose) &&
       ok;
  if (!ok) {
    std::fprintf(stderr, "stc_fuzz --trace-bytes: FAILED (seed %llu)\n",
                 static_cast<unsigned long long>(seed));
    return 1;
  }
  std::printf("stc_fuzz --trace-bytes: every mutant rejected cleanly or "
              "round-tripped (seed %llu)\n",
              static_cast<unsigned long long>(seed));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t iters = 500;
  std::uint64_t seed = 1;
  bool verbose = false;
  bool trace_bytes = false;
  bool replay_diff = false;
  bool multitenant = false;
  stc::verify::Injection injection = stc::verify::Injection::kNone;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--iters") {
      iters = std::strtoull(next_value(), nullptr, 10);
    } else if (arg == "--seed") {
      seed = std::strtoull(next_value(), nullptr, 10);
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--trace-bytes") {
      trace_bytes = true;
    } else if (arg == "--replay-diff") {
      replay_diff = true;
    } else if (arg == "--multitenant") {
      multitenant = true;
    } else if (arg == "--inject") {
      const std::string what = next_value();
      if (what != "short-block") {
        std::fprintf(stderr, "unknown injection '%s'\n", what.c_str());
        return 2;
      }
      injection = stc::verify::Injection::kShortBlock;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      usage(argv[0]);
      return 2;
    }
  }

  if (trace_bytes) return run_trace_bytes(seed, verbose);

  if (replay_diff || multitenant) {
    // Differential modes share one loop; only the check function differs.
    const char* mode = replay_diff ? "replay-diff" : "multitenant";
    const char* check_fn =
        replay_diff ? "run_replay_diff" : "run_multitenant_diff";
    const char* test_prefix = replay_diff ? "ReplayDiff" : "Multitenant";
    const auto check = [&](const stc::verify::FuzzCase& candidate) {
      return replay_diff ? stc::verify::run_replay_diff(candidate)
                         : stc::verify::run_multitenant_diff(candidate);
    };
    for (std::uint64_t i = 0; i < iters; ++i) {
      stc::Rng rng(seed * 0x9e3779b97f4a7c15ull + i);
      const stc::verify::FuzzCase c = stc::verify::random_case(rng);
      if (verbose) {
        std::fprintf(stderr,
                     "%s iter %llu: %zu routines, %zu blocks, "
                     "%zu events\n",
                     mode, static_cast<unsigned long long>(i),
                     c.routines.size(), c.num_blocks(), c.trace.size());
      }
      const stc::verify::Report report = check(c);
      if (report.ok()) continue;
      std::fprintf(stderr,
                   "%s iteration %llu (seed %llu) FAILED:\n%s\n", mode,
                   static_cast<unsigned long long>(i),
                   static_cast<unsigned long long>(seed),
                   report.summary().c_str());
      const stc::verify::FuzzCase shrunk = stc::verify::shrink_case_with(
          c, [&check](const stc::verify::FuzzCase& candidate) {
            return !check(candidate).ok();
          });
      std::fprintf(stderr, "shrunk repro (%zu routines, %zu blocks):\n%s\n",
                   shrunk.routines.size(), shrunk.num_blocks(),
                   check(shrunk).summary().c_str());
      std::printf("// paste into tests/verify/regression_cases.cpp:\n%s",
                  stc::verify::emit_cpp(
                      shrunk,
                      std::string(test_prefix) + "_seed" +
                          std::to_string(seed) + "_iter" + std::to_string(i),
                      check_fn)
                      .c_str());
      return 1;
    }
    std::printf("stc_fuzz --%s: %llu iterations clean (seed %llu)\n", mode,
                static_cast<unsigned long long>(iters),
                static_cast<unsigned long long>(seed));
    return 0;
  }

  std::uint64_t injectable = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    // Independent per-iteration stream: resuming at any iteration with the
    // same base seed regenerates the identical case.
    stc::Rng rng(seed * 0x9e3779b97f4a7c15ull + i);
    const stc::verify::FuzzCase c = stc::verify::random_case(rng);
    if (verbose) {
      std::fprintf(stderr,
                   "iter %llu: %zu routines, %zu blocks, %zu events\n",
                   static_cast<unsigned long long>(i), c.routines.size(),
                   c.num_blocks(), c.trace.size());
    }
    const stc::verify::Report report = stc::verify::run_case(c, injection);
    if (report.ok()) continue;
    ++injectable;
    if (injection != stc::verify::Injection::kNone) {
      // Injected-bug mode: a failure is the expected outcome; shrink the
      // first one to demonstrate the workflow, then stop successfully.
      std::printf("iteration %llu: injected bug caught by the oracle:\n%s\n",
                  static_cast<unsigned long long>(i),
                  report.summary().c_str());
      const stc::verify::FuzzCase shrunk =
          stc::verify::shrink_case(c, injection);
      std::printf(
          "shrunk to %zu routine(s), %zu block(s), %zu trace event(s)\n\n",
          shrunk.routines.size(), shrunk.num_blocks(), shrunk.trace.size());
      std::printf("%s\n",
                  stc::verify::run_case(shrunk, injection).summary().c_str());
      std::printf("// paste into tests/verify/regression_cases.cpp:\n%s",
                  stc::verify::emit_cpp(shrunk, "InjectedShortBlock").c_str());
      return 0;
    }
    std::fprintf(stderr, "iteration %llu (seed %llu) FAILED:\n%s\n",
                 static_cast<unsigned long long>(i),
                 static_cast<unsigned long long>(seed),
                 report.summary().c_str());
    const stc::verify::FuzzCase shrunk = stc::verify::shrink_case(c, injection);
    std::fprintf(stderr, "shrunk repro (%zu routines, %zu blocks):\n%s\n",
                 shrunk.routines.size(), shrunk.num_blocks(),
                 stc::verify::run_case(shrunk, injection).summary().c_str());
    std::printf("// paste into tests/verify/regression_cases.cpp:\n%s",
                stc::verify::emit_cpp(
                    shrunk, "Shrunk_seed" + std::to_string(seed) + "_iter" +
                                std::to_string(i))
                    .c_str());
    return 1;
  }

  if (injection != stc::verify::Injection::kNone) {
    std::fprintf(stderr,
                 "inject mode: no generated case was injectable in %llu "
                 "iterations (need two address-adjacent blocks)\n",
                 static_cast<unsigned long long>(iters));
    return 1;
  }
  std::printf("stc_fuzz: %llu iterations clean (seed %llu)\n",
              static_cast<unsigned long long>(iters),
              static_cast<unsigned long long>(seed));
  return 0;
}
