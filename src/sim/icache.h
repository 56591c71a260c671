// Instruction cache simulator.
//
// Supports the three hardware organizations Table 3 compares against code
// reordering: direct-mapped, 2-way (any power-of-two associativity with true
// LRU), and a fully-associative victim cache bolted onto the main cache.
// Addresses are byte addresses; the cache operates on line granularity.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "support/check.h"
#include "support/stats.h"

namespace stc::sim {

struct CacheGeometry {
  std::uint32_t size_bytes = 64 * 1024;
  std::uint32_t line_bytes = 64;  // 16 four-byte instructions (SEQ.3 default)
  std::uint32_t assoc = 1;        // ways; sets = size / (line * assoc)

  std::uint32_t num_sets() const { return size_bytes / (line_bytes * assoc); }
};

struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;
  std::uint64_t victim_hits = 0;  // misses rescued by the victim cache

  double miss_ratio() const {
    return accesses == 0 ? 0.0
                         : static_cast<double>(misses) /
                               static_cast<double>(accesses);
  }

  // Registers the raw event counts for machine-readable reporting.
  void export_counters(CounterSet& out) const;
};

class ICache {
 public:
  // victim_lines > 0 attaches a fully-associative LRU victim cache of that
  // many lines; lines evicted from the main cache land there, and a victim
  // hit swaps the line back (counted as a hit in the stats).
  explicit ICache(const CacheGeometry& geometry, std::uint32_t victim_lines = 0);

  const CacheGeometry& geometry() const { return geometry_; }

  // Accesses the line containing `addr`; returns true on hit. On a miss the
  // line is filled (allocate-on-miss).
  bool access(std::uint64_t addr);

  // Probes without side effects (used by tests).
  bool contains(std::uint64_t addr) const;

  // Installs the line containing `addr` without touching the access stats or
  // the observer: prefetches are not demand probes, so the Table 3/4 counter
  // contracts are unaffected. Returns true when the line was already present
  // (main or victim cache; a victim copy is promoted back, as in access());
  // on false the line has been filled, evicting per the normal LRU/victim
  // policy — prefetch pollution is modeled, prefetch hits are not counted.
  bool prefetch_fill(std::uint64_t addr);

  // Verification hook: called once per access() with the line-aligned
  // address and the outcome (true = hit, including victim-cache rescues),
  // after the stats counters have been updated. Lets an external checker
  // recount probes/misses independently of CacheStats.
  using AccessObserver = std::function<void(std::uint64_t line_addr, bool hit)>;
  void set_observer(AccessObserver observer) {
    observer_ = std::move(observer);
  }

  void reset();
  const CacheStats& stats() const { return stats_; }

 private:
  static constexpr std::uint64_t kInvalidTag = ~std::uint64_t{0};

  std::uint64_t line_of(std::uint64_t addr) const {
    return addr / geometry_.line_bytes;
  }

  // Returns true if found (and promotes in LRU order).
  bool probe_victim(std::uint64_t line, std::uint64_t* evicted_slot);

  CacheGeometry geometry_;
  std::uint32_t sets_;
  // tags_[set * assoc + way]; lru_[same index] holds a recency counter.
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint64_t> lru_;
  std::uint64_t lru_clock_ = 0;

  std::vector<std::uint64_t> victim_tags_;
  std::vector<std::uint64_t> victim_lru_;

  AccessObserver observer_;
  CacheStats stats_;
};

// ---- Table 3 result --------------------------------------------------------

// Counters of a Table 3 miss-rate replay (sim/replay.h replay_missrate).
struct MissRateResult {
  std::uint64_t instructions = 0;
  std::uint64_t line_accesses = 0;
  std::uint64_t misses = 0;

  // The paper's Table 3 metric: i-cache misses per instruction executed,
  // reported as a percentage (e.g. 6.5 for the 8K/orig cell).
  double misses_per_100_insns() const {
    return instructions == 0 ? 0.0
                             : 100.0 * static_cast<double>(misses) /
                                   static_cast<double>(instructions);
  }

  // Registers the raw event counts for machine-readable reporting.
  void export_counters(CounterSet& out) const;
};

}  // namespace stc::sim
