// Deterministic fuzzing of the whole layout pipeline against the oracle.
//
// A FuzzCase is a plain-data description of a synthetic program, profile,
// trace and cache geometry — deliberately including the degenerate shapes
// the generators in tests/testing/synthetic.h avoid: zero-routine programs,
// single-block routines, self-loops, zero-weight edges, blocks larger than
// a cache line (or than a whole inter-CFA window), empty traces, duplicate
// seed lists, and extreme CFA budgets (0 and cache - 4). Two shapes target
// the speculative front end (src/frontend): call/return chains deeper than
// any bounded return-address stack, and a megamorphic call site whose
// dynamic successor changes nearly every visit (BTB-hostile).
//
// run_case() builds the case, produces every layout kind, and runs the full
// oracle over each — including the front-end checks: a transparent
// configuration must reproduce the baseline simulators field for field, and
// an undersized realistic one must satisfy the counter identities.
// shrink_case() greedily minimizes a failing case while it keeps failing;
// emit_cpp() prints a paste-ready regression test.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cfg/program.h"
#include "cfg/types.h"
#include "profile/profile.h"
#include "support/rng.h"
#include "trace/block_trace.h"
#include "verify/oracle.h"

namespace stc::verify {

struct FuzzBlock {
  std::uint16_t insns = 1;
  cfg::BlockKind kind = cfg::BlockKind::kFallThrough;
};

struct FuzzRoutine {
  std::vector<FuzzBlock> blocks;  // must be non-empty (image invariant)
  bool executor_op = false;
};

// Profile edge between global block indices (index = position in the
// flattened routines-then-blocks order, which equals the image's BlockId).
struct FuzzEdge {
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  std::uint64_t count = 0;  // zero-weight edges are legal
};

struct FuzzCase {
  std::vector<FuzzRoutine> routines;
  std::vector<FuzzEdge> edges;
  std::vector<std::uint32_t> trace;  // dynamic block events (global indices)
  std::vector<std::uint32_t> seeds;  // extra mapping seeds; duplicates legal
  std::uint64_t cache_bytes = 1024;
  std::uint64_t cfa_bytes = 256;
  std::uint32_t line_bytes = 32;

  std::size_t num_blocks() const;
};

// The case materialized against the production types. The WeightedCFG's
// block counts come from the trace; succs come from `edges` verbatim.
struct BuiltCase {
  std::unique_ptr<cfg::ProgramImage> image;
  profile::WeightedCFG wcfg;
  trace::BlockTrace trace;
};

// Requires a self-consistent case (all indices < num_blocks(), every routine
// non-empty, cfa < cache). check_case() reports why a case is not.
bool check_case(const FuzzCase& c, std::string* why = nullptr);
BuiltCase build_case(const FuzzCase& c);

// Fault injection for exercising the oracle itself: kShortBlock emulates an
// off-by-one block size in the mapping cursor by moving the address-adjacent
// successor of some block 4 bytes (one instruction) backwards, creating the
// overlap such a bug would produce.
enum class Injection { kNone, kShortBlock };

// Builds every layout kind (orig, P&H, Torrellas, STC auto, STC ops) plus a
// direct map_sequences run over `seeds`, applies the injection to each, and
// verifies all of them with the oracle; also round-trips the case through
// the Replicator. Returns the merged report.
Report run_case(const FuzzCase& c, Injection injection = Injection::kNone);

// Replay differential check: builds the case and runs the oracle's
// check_replay_modes over every layout kind — the replay kernels against
// their references, the plan's feed against the reference stream, and
// every fetch-family simulator's counter identities, including the
// back-end pipeline (src/backend), whose machine shape (inorder/ooo, IQ/ROB
// depths, cost model) is derived deterministically from the case content
// so the corpus sweeps configurations.
Report run_replay_diff(const FuzzCase& c);

// Multi-tenant differential check: splits the case's trace into a
// salt-derived number of tenant streams and composes them with a
// salt-derived quantum/arrival model (src/workload/composer.h), then checks
//   - composition is deterministic (two runs are byte-identical),
//   - conservation (per-tenant event totals match the streams, and the
//     segment provenance replays each stream exactly),
//   - a single-tenant composition is byte-identical to the input trace,
//   - the composed trace passes check_replay_modes on the original and
//     STC-ops layouts, and
//   - when the CFA affords at least one byte per tenant, the
//     tenant-partitioned layout built from per-stream profiles passes the
//     full oracle including check_tenant_partition.
Report run_multitenant_diff(const FuzzCase& c);

// Random case generation; deterministic in the Rng state.
FuzzCase random_case(Rng& rng);

// Greedy deterministic shrink: repeatedly drops trace spans, routines,
// blocks, edges and seeds, and simplifies block sizes/kinds, keeping each
// change only if run_case(c, injection) still fails. Returns the fixpoint.
FuzzCase shrink_case(const FuzzCase& c, Injection injection = Injection::kNone);

// Same shrink loop against an arbitrary failure predicate (`fails` must be
// true for `c`); used by --replay-diff to shrink replay-mode divergences.
FuzzCase shrink_case_with(const FuzzCase& c,
                          const std::function<bool(const FuzzCase&)>& fails);

// Paste-ready GoogleTest snippet reconstructing the case. `check_fn` names
// the verify:: entry point the emitted test calls (default "run_case").
std::string emit_cpp(const FuzzCase& c, std::string_view test_name,
                     std::string_view check_fn = "run_case");

}  // namespace stc::verify
