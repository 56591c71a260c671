// Shared helpers for tests: synthetic programs, weighted CFGs and traces.
#pragma once

#include <memory>

#include "cfg/builder.h"
#include "cfg/program.h"
#include "profile/profile.h"
#include "support/rng.h"
#include "trace/block_trace.h"

namespace stc::testing {

// Random program: `routines` routines of 1..8 blocks with plausible kinds
// (entry anything, last block a return for multi-block routines).
inline std::unique_ptr<cfg::ProgramImage> random_image(Rng& rng,
                                                       int routines) {
  cfg::ProgramBuilder builder;
  const cfg::ModuleId mod = builder.module("synthetic");
  for (int r = 0; r < routines; ++r) {
    const int nblocks = 1 + static_cast<int>(rng.uniform(8));
    std::vector<cfg::BlockDef> blocks;
    for (int b = 0; b < nblocks; ++b) {
      cfg::BlockKind kind;
      if (b + 1 == nblocks) {
        kind = cfg::BlockKind::kReturn;
      } else {
        const std::uint64_t pick = rng.uniform(10);
        kind = pick < 3   ? cfg::BlockKind::kFallThrough
               : pick < 8 ? cfg::BlockKind::kBranch
                          : cfg::BlockKind::kCall;
      }
      blocks.push_back({std::string("b").append(std::to_string(b)),
                        static_cast<std::uint16_t>(1 + rng.uniform(12)),
                        kind});
    }
    builder.routine(std::string("r").append(std::to_string(r)), mod,
                    std::move(blocks), /*executor_op=*/rng.chance(0.1));
  }
  return builder.build();
}

// Random weighted CFG over an image: a random subset of blocks receives
// positive execution counts (skewed), and each executed block gets 0..4
// outgoing edges toward other executed blocks with weights that sum to at
// most its own count (so transition probabilities stay <= 1).
inline profile::WeightedCFG random_wcfg(const cfg::ProgramImage& image,
                                        Rng& rng,
                                        double executed_fraction = 0.5) {
  profile::WeightedCFG cfg;
  cfg.image = &image;
  cfg.block_count.assign(image.num_blocks(), 0);
  cfg.succs.resize(image.num_blocks());

  std::vector<cfg::BlockId> executed;
  for (cfg::BlockId b = 0; b < image.num_blocks(); ++b) {
    if (rng.chance(executed_fraction)) {
      cfg.block_count[b] = 1 + rng.zipf(10000, 1.1);
      executed.push_back(b);
    }
  }
  if (executed.empty() && image.num_blocks() > 0) {
    cfg.block_count[0] = 100;
    executed.push_back(0);
  }
  for (cfg::BlockId b : executed) {
    const int nedges = static_cast<int>(rng.uniform(5));
    std::uint64_t budget = cfg.block_count[b];
    for (int e = 0; e < nedges && budget > 0; ++e) {
      const cfg::BlockId to = rng.pick(executed);
      const std::uint64_t w = 1 + rng.uniform(budget);
      budget -= w;
      cfg.succs[b].push_back({to, w});
    }
    std::sort(cfg.succs[b].begin(), cfg.succs[b].end(),
              [](const auto& x, const auto& y) {
                if (x.count != y.count) return x.count > y.count;
                return x.to < y.to;
              });
  }
  return cfg;
}

// Arbitrary block-id trace over an image (simulators accept any sequence).
inline trace::BlockTrace random_trace(const cfg::ProgramImage& image, Rng& rng,
                                      std::size_t events) {
  trace::BlockTrace trace;
  for (std::size_t i = 0; i < events; ++i) {
    trace.append(static_cast<cfg::BlockId>(rng.uniform(image.num_blocks())));
  }
  return trace;
}

// ---- Degenerate families ---------------------------------------------------
//
// Edge-case program shapes the random generators above are unlikely to hit:
// empty programs, single-block programs, routines that are all one block,
// and blocks far larger than a cache line. Family index selects the shape so
// parameterized suites can sweep all of them by name.

inline constexpr int kNumDegenerateFamilies = 5;

inline const char* degenerate_family_name(int family) {
  switch (family) {
    case 0: return "EmptyProgram";
    case 1: return "SingleBlockProgram";
    case 2: return "AllSingleBlockRoutines";
    case 3: return "OversizedBlocks";
    case 4: return "NonReturnTails";
    default: return "Unknown";
  }
}

inline std::unique_ptr<cfg::ProgramImage> degenerate_image(Rng& rng,
                                                           int family) {
  cfg::ProgramBuilder builder;
  const cfg::ModuleId mod = builder.module("degenerate");
  switch (family) {
    case 0:  // no routines at all
      break;
    case 1:  // the whole program is one block
      builder.routine("only", mod, {{"b0", 1, cfg::BlockKind::kReturn}});
      break;
    case 2: {  // many routines of exactly one block each
      const int n = 2 + static_cast<int>(rng.uniform(30));
      for (int r = 0; r < n; ++r) {
        builder.routine(std::string("r").append(std::to_string(r)), mod,
                        {{"b0", static_cast<std::uint16_t>(1 + rng.uniform(4)),
                          cfg::BlockKind::kReturn}});
      }
      break;
    }
    case 3: {  // blocks spanning many cache lines (up to ~1KB of code)
      const int n = 1 + static_cast<int>(rng.uniform(6));
      for (int r = 0; r < n; ++r) {
        std::vector<cfg::BlockDef> blocks;
        blocks.push_back({"big",
                          static_cast<std::uint16_t>(64 + rng.uniform(192)),
                          cfg::BlockKind::kBranch});
        blocks.push_back({"ret", 1, cfg::BlockKind::kReturn});
        builder.routine(std::string("r").append(std::to_string(r)), mod,
                        std::move(blocks));
      }
      break;
    }
    case 4: {  // routines whose last block is not a return
      const int n = 2 + static_cast<int>(rng.uniform(8));
      for (int r = 0; r < n; ++r) {
        std::vector<cfg::BlockDef> blocks;
        blocks.push_back({"b0", static_cast<std::uint16_t>(1 + rng.uniform(8)),
                          cfg::BlockKind::kFallThrough});
        blocks.push_back({"b1", static_cast<std::uint16_t>(1 + rng.uniform(8)),
                          cfg::BlockKind::kBranch});
        builder.routine(std::string("r").append(std::to_string(r)), mod,
                        std::move(blocks));
      }
      break;
    }
    default:
      break;
  }
  return builder.build();
}

// Weighted CFG that deliberately includes self-loops and zero-weight edges
// (profiles can produce both; layouts must tolerate them).
inline profile::WeightedCFG degenerate_wcfg(const cfg::ProgramImage& image,
                                            Rng& rng) {
  profile::WeightedCFG cfg;
  cfg.image = &image;
  cfg.block_count.assign(image.num_blocks(), 0);
  cfg.succs.resize(image.num_blocks());
  for (cfg::BlockId b = 0; b < image.num_blocks(); ++b) {
    if (rng.chance(0.3)) continue;  // unexecuted block
    cfg.block_count[b] = 1 + rng.zipf(1000, 1.1);
    if (rng.chance(0.3)) cfg.succs[b].push_back({b, cfg.block_count[b] / 2});
    if (rng.chance(0.3)) {
      cfg.succs[b].push_back(
          {static_cast<cfg::BlockId>(rng.uniform(image.num_blocks())), 0});
    }
    std::sort(cfg.succs[b].begin(), cfg.succs[b].end(),
              [](const auto& x, const auto& y) {
                if (x.count != y.count) return x.count > y.count;
                return x.to < y.to;
              });
  }
  return cfg;
}

}  // namespace stc::testing
