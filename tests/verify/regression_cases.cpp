// Seed corpus for the layout-equivalence fuzzer.
//
// Every test is a minimized FuzzCase in the exact format tools/stc_fuzz's
// shrinker prints, so new failures can be pasted here verbatim. The cases
// pin the degenerate shapes the pipeline must stay transparent on: empty
// programs, single-block programs, self-loops, zero-weight edges, blocks
// larger than a cache line (and than a whole inter-CFA window), duplicate
// seed lists, and extreme CFA budgets.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "trace/block_trace.h"
#include "trace/trace_format.h"
#include "verify/fuzz.h"

// Shrunk from stc_fuzz --inject short-block --seed 1 (iteration 2): the
// smallest shape on which an off-by-one block size produces an overlap —
// two one-instruction blocks in one routine, CFA budget not line-aligned.
TEST(FuzzRegression, InjectedShortBlock) {
  stc::verify::FuzzCase c;
  c.cache_bytes = 4096;
  c.cfa_bytes = 905;
  c.line_bytes = 64;
  c.routines = {
      {{{1, stc::cfg::BlockKind::kFallThrough},
        {1, stc::cfg::BlockKind::kFallThrough}},
       false},
  };
  const stc::verify::Report report = stc::verify::run_case(c);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(FuzzRegression, EmptyProgram) {
  stc::verify::FuzzCase c;
  c.cache_bytes = 1024;
  c.cfa_bytes = 256;
  c.line_bytes = 32;
  const stc::verify::Report report = stc::verify::run_case(c);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(FuzzRegression, SingleBlockProgram) {
  stc::verify::FuzzCase c;
  c.cache_bytes = 512;
  c.cfa_bytes = 128;
  c.line_bytes = 16;
  c.routines = {
      {{{1, stc::cfg::BlockKind::kReturn}}, false},
  };
  c.trace = {0, 0, 0};
  c.seeds = {0};
  const stc::verify::Report report = stc::verify::run_case(c);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(FuzzRegression, SelfLoopDominatesProfile) {
  stc::verify::FuzzCase c;
  c.cache_bytes = 1024;
  c.cfa_bytes = 256;
  c.line_bytes = 32;
  c.routines = {
      {{{4, stc::cfg::BlockKind::kBranch}, {1, stc::cfg::BlockKind::kReturn}},
       false},
  };
  c.edges = {
      {0, 0, 1000},  // self-loop carries almost all weight
      {0, 1, 1},
  };
  c.trace = {0, 0, 0, 0, 0, 1};
  const stc::verify::Report report = stc::verify::run_case(c);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(FuzzRegression, ZeroWeightEdges) {
  stc::verify::FuzzCase c;
  c.cache_bytes = 1024;
  c.cfa_bytes = 256;
  c.line_bytes = 32;
  c.routines = {
      {{{2, stc::cfg::BlockKind::kBranch}, {3, stc::cfg::BlockKind::kReturn}},
       false},
      {{{5, stc::cfg::BlockKind::kReturn}}, true},
  };
  c.edges = {
      {0, 1, 0},  // zero-weight edges are legal profile output
      {0, 2, 0},
      {1, 0, 0},
  };
  c.trace = {0, 1, 2};
  const stc::verify::Report report = stc::verify::run_case(c);
  EXPECT_TRUE(report.ok()) << report.summary();
}

// A block far larger than a cache line, and larger than the whole window
// between CFA reservations (cache - cfa = 256 bytes < 100 insns * 4).
TEST(FuzzRegression, BlockLargerThanInterCfaWindow) {
  stc::verify::FuzzCase c;
  c.cache_bytes = 512;
  c.cfa_bytes = 256;
  c.line_bytes = 32;
  c.routines = {
      {{{100, stc::cfg::BlockKind::kBranch},
        {1, stc::cfg::BlockKind::kReturn}},
       false},
      {{{2, stc::cfg::BlockKind::kReturn}}, false},
  };
  c.edges = {
      {0, 0, 50},
      {0, 1, 10},
  };
  c.trace = {0, 0, 1, 2, 0};
  c.seeds = {0};
  const stc::verify::Report report = stc::verify::run_case(c);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(FuzzRegression, DuplicateSeedList) {
  stc::verify::FuzzCase c;
  c.cache_bytes = 1024;
  c.cfa_bytes = 512;
  c.line_bytes = 32;
  c.routines = {
      {{{3, stc::cfg::BlockKind::kCall}, {2, stc::cfg::BlockKind::kReturn}},
       false},
      {{{4, stc::cfg::BlockKind::kReturn}}, false},
  };
  c.edges = {
      {0, 2, 40},
      {2, 1, 40},
  };
  c.trace = {0, 2, 1, 0, 2, 1};
  c.seeds = {0, 0, 2, 2, 0};  // duplicates must not double-place blocks
  const stc::verify::Report report = stc::verify::run_case(c);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(FuzzRegression, ZeroCfaBudget) {
  stc::verify::FuzzCase c;
  c.cache_bytes = 1024;
  c.cfa_bytes = 0;  // no reserved window at all
  c.line_bytes = 32;
  c.routines = {
      {{{6, stc::cfg::BlockKind::kBranch}, {2, stc::cfg::BlockKind::kReturn}},
       false},
  };
  c.edges = {{0, 1, 10}};
  c.trace = {0, 1, 0, 1};
  c.seeds = {0, 1};
  const stc::verify::Report report = stc::verify::run_case(c);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(FuzzRegression, NearTotalCfaBudget) {
  stc::verify::FuzzCase c;
  c.cache_bytes = 1024;
  c.cfa_bytes = 1020;  // one instruction of non-reserved space per region
  c.line_bytes = 32;
  c.routines = {
      {{{2, stc::cfg::BlockKind::kFallThrough},
        {5, stc::cfg::BlockKind::kReturn}},
       false},
      {{{7, stc::cfg::BlockKind::kReturn}}, false},
  };
  c.edges = {{0, 1, 3}};
  c.trace = {0, 1, 2, 0, 1};
  const stc::verify::Report report = stc::verify::run_case(c);
  EXPECT_TRUE(report.ok()) << report.summary();
}

// Front-end seed corpus: a call chain four frames deeper than the realistic
// oracle configuration's return-address stack (ras_depth 4), followed by a
// megamorphic dispatcher whose call target cycles through every routine.
// Exercises RAS overflow/underflow and BTB target churn under all layouts.
TEST(FuzzRegression, DeepCallReturnAndIndirectDispatcher) {
  stc::verify::FuzzCase c;
  c.cache_bytes = 1024;
  c.cfa_bytes = 256;
  c.line_bytes = 32;
  c.routines = {
      // Eight call frames: {kCall body, kReturn tail} each.
      {{{2, stc::cfg::BlockKind::kCall}, {1, stc::cfg::BlockKind::kReturn}},
       false},
      {{{1, stc::cfg::BlockKind::kCall}, {1, stc::cfg::BlockKind::kReturn}},
       false},
      {{{3, stc::cfg::BlockKind::kCall}, {2, stc::cfg::BlockKind::kReturn}},
       false},
      {{{1, stc::cfg::BlockKind::kCall}, {1, stc::cfg::BlockKind::kReturn}},
       false},
      {{{2, stc::cfg::BlockKind::kCall}, {1, stc::cfg::BlockKind::kReturn}},
       false},
      {{{4, stc::cfg::BlockKind::kCall}, {1, stc::cfg::BlockKind::kReturn}},
       false},
      {{{1, stc::cfg::BlockKind::kCall}, {2, stc::cfg::BlockKind::kReturn}},
       false},
      {{{2, stc::cfg::BlockKind::kCall}, {1, stc::cfg::BlockKind::kReturn}},
       false},
      // The dispatcher: one megamorphic call site.
      {{{2, stc::cfg::BlockKind::kCall}}, false},
  };
  // Call all the way down (bodies 0,2,..,14), return all the way up
  // (tails 15,13,..,1), then the dispatcher (16) targets a different
  // routine entry on every visit.
  c.trace = {0, 2,  4,  6, 8, 10, 12, 14, 15, 13, 11, 9, 7, 5,  3, 1,
             16, 0, 16, 4, 16, 8,  16, 12, 16, 2,  16, 6, 16, 10, 16, 14};
  c.edges = {{0, 2, 4}, {2, 4, 4}, {16, 0, 2}, {16, 4, 2}};
  const stc::verify::Report report = stc::verify::run_case(c);
  EXPECT_TRUE(report.ok()) << report.summary();
}

// Back-end replay-diff corpus: run_replay_diff derives the machine shape
// from the case content (salt = blocks*7 + events*5 + line_bytes), so these
// two cases pin one in-order (odd salt) and one out-of-order (even salt)
// configuration through the replay differential check.
// Call/return-heavy so every op pays the memory-latency charge and the
// tiny derived window actually back-pressures the front end.
TEST(FuzzRegression, ReplayDiffInOrderCallChain) {
  stc::verify::FuzzCase c;  // 4 blocks, 7 events, line 32: salt 95 (inorder)
  c.cache_bytes = 1024;
  c.cfa_bytes = 256;
  c.line_bytes = 32;
  c.routines = {
      {{{3, stc::cfg::BlockKind::kCall}, {2, stc::cfg::BlockKind::kReturn}},
       false},
      {{{6, stc::cfg::BlockKind::kCall}, {1, stc::cfg::BlockKind::kReturn}},
       false},
  };
  c.edges = {{0, 2, 10}, {2, 3, 10}, {3, 1, 10}};
  c.trace = {0, 2, 3, 1, 0, 2, 3};
  const stc::verify::Report report = stc::verify::run_replay_diff(c);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(FuzzRegression, ReplayDiffOooBranchyLoop) {
  stc::verify::FuzzCase c;  // 4 blocks, 8 events, line 32: salt 100 (ooo)
  c.cache_bytes = 512;
  c.cfa_bytes = 128;
  c.line_bytes = 32;
  c.routines = {
      {{{9, stc::cfg::BlockKind::kBranch},
        {2, stc::cfg::BlockKind::kBranch},
        {12, stc::cfg::BlockKind::kFallThrough},
        {1, stc::cfg::BlockKind::kReturn}},
       false},
  };
  c.edges = {{0, 1, 20}, {1, 2, 15}, {2, 0, 15}, {1, 3, 5}};
  c.trace = {0, 1, 2, 0, 1, 2, 1, 3};
  const stc::verify::Report report = stc::verify::run_replay_diff(c);
  EXPECT_TRUE(report.ok()) << report.summary();
}

// Multi-tenant composer corpus: run_multitenant_diff derives the tenant
// count, quantum and arrival model from the case content (the same salt as
// run_replay_diff), so these cases pin distinct scheduler shapes through
// the composition invariants — determinism, conservation, single-tenant
// byte-identity, cross-engine replay identity, and the tenant-partitioned
// layout's full-oracle pass. The first pins a two-routine loop whose trace
// is long enough for several slices but short enough that the final slice
// is truncated at a stream boundary — the segment-provenance edge the
// conservation check is most sensitive to.
TEST(FuzzRegression, MultitenantTruncatedFinalSlice) {
  stc::verify::FuzzCase c;
  c.cache_bytes = 1024;
  c.cfa_bytes = 256;
  c.line_bytes = 32;
  c.routines = {
      {{{3, stc::cfg::BlockKind::kBranch}, {1, stc::cfg::BlockKind::kReturn}},
       false},
      {{{5, stc::cfg::BlockKind::kReturn}}, false},
  };
  c.edges = {
      {0, 1, 12},
      {1, 2, 8},
      {2, 0, 8},
  };
  c.trace = {0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0};
  const stc::verify::Report report = stc::verify::run_multitenant_diff(c);
  EXPECT_TRUE(report.ok()) << report.summary();
}

// A CFA so small it affords exactly one byte per derived tenant: the
// partitioned layout's demand-weighted budgets collapse to their floors and
// every hot block spills to the shared later passes, which the oracle's
// check_tenant_partition must still accept (empty sub-windows are legal,
// empty *regions* are not).
TEST(FuzzRegression, MultitenantMinimalCfaFloors) {
  stc::verify::FuzzCase c;
  c.cache_bytes = 512;
  c.cfa_bytes = 4;
  c.line_bytes = 32;
  c.routines = {
      {{{2, stc::cfg::BlockKind::kBranch}, {2, stc::cfg::BlockKind::kReturn}},
       false},
      {{{7, stc::cfg::BlockKind::kReturn}}, false},
  };
  c.edges = {{0, 1, 6}, {1, 2, 4}};
  c.trace = {0, 1, 2, 2, 0, 1, 2, 0, 1};
  const stc::verify::Report report = stc::verify::run_multitenant_diff(c);
  EXPECT_TRUE(report.ok()) << report.summary();
}

// Pinned from the stc_fuzz --trace-bytes corpus after the v3 format grew a
// chunk-index footer: every byte of the footer (index entries, count, index
// CRC, trailing magic) is flipped and every truncation inside the footer is
// tried, and each mutant must either be rejected with a structured error or
// decode to a byte-identical round-trip — never a silently different trace.
TEST(FuzzRegression, TraceBytesV3IndexFooterMutations) {
  stc::trace::BlockTrace trace;
  std::uint32_t id = 0;
  // Short deltas until the payload spills past one chunk so the footer
  // indexes more than one entry (the cross-entry tiling checks fire).
  while (trace.num_chunks() < 3) {
    id = (id * 37 + 11) % 4096;
    trace.append(id);
  }
  const std::vector<std::uint8_t> original = trace.serialize();
  const std::size_t footer =
      stc::trace::format::footer_bytes(trace.num_chunks());
  ASSERT_GT(original.size(), footer);

  const auto accepts_only_roundtrip = [&](const std::vector<std::uint8_t>& m) {
    auto decoded = stc::trace::BlockTrace::deserialize(m.data(), m.size());
    return !decoded.is_ok() || decoded.value().serialize() == m;
  };
  std::vector<std::uint8_t> mutant = original;
  for (std::size_t off = original.size() - footer; off < original.size();
       ++off) {
    for (const std::uint8_t bit :
         {0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0xff}) {
      mutant[off] = original[off] ^ static_cast<std::uint8_t>(bit);
      EXPECT_TRUE(accepts_only_roundtrip(mutant))
          << "bit flip 0x" << std::hex << int{bit} << " at offset " << std::dec
          << off;
      mutant[off] = original[off];
    }
    EXPECT_TRUE(accepts_only_roundtrip(
        std::vector<std::uint8_t>(original.begin(),
                                  original.begin() + static_cast<long>(off))))
        << "truncation at " << off;
  }
}

// Pins an odd-length trace as a plain tail case: 61 events (20 loop trips of
// three blocks, then the exit) that end on a return, not on a loop boundary.
// The plan's kernels and feed must agree with the references bit for bit
// through the last event. Salt 4*7 + 61*5 + 32 = 365 (odd): in-order back end.
TEST(FuzzRegression, ReplayDiffSimdTailOddLength) {
  stc::verify::FuzzCase c;
  c.cache_bytes = 1024;
  c.cfa_bytes = 256;
  c.line_bytes = 32;
  c.routines = {
      {{{5, stc::cfg::BlockKind::kBranch},
        {3, stc::cfg::BlockKind::kBranch},
        {8, stc::cfg::BlockKind::kFallThrough},
        {1, stc::cfg::BlockKind::kReturn}},
       false},
  };
  c.edges = {{0, 1, 40}, {1, 2, 30}, {2, 0, 30}, {1, 3, 10}};
  c.trace.clear();
  for (int i = 0; i < 20; ++i) {  // 20 loop trips then the exit: 61 events
    c.trace.insert(c.trace.end(), {0, 1, 2});
  }
  c.trace.push_back(3);
  ASSERT_EQ(c.trace.size() % 8, 5u);
  const stc::verify::Report report = stc::verify::run_replay_diff(c);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(FuzzRegression, TraceVisitsColdUnprofiledBlocks) {
  stc::verify::FuzzCase c;
  c.cache_bytes = 2048;
  c.cfa_bytes = 512;
  c.line_bytes = 64;
  c.routines = {
      {{{1, stc::cfg::BlockKind::kBranch}, {1, stc::cfg::BlockKind::kReturn}},
       false},
      {{{9, stc::cfg::BlockKind::kReturn}}, false},
  };
  c.edges = {{0, 1, 5}};      // block 2 has no edges: it is layout-cold
  c.trace = {2, 2, 0, 1, 2};  // but the trace executes it most
  const stc::verify::Report report = stc::verify::run_case(c);
  EXPECT_TRUE(report.ok()) << report.summary();
}
