#include "sim/icache.h"

namespace stc::sim {

void CacheStats::export_counters(CounterSet& out) const {
  out.add("cache_probes", accesses);
  out.add("cache_misses", misses);
  out.add("victim_hits", victim_hits);
}

void MissRateResult::export_counters(CounterSet& out) const {
  out.add("instructions", instructions);
  out.add("line_probes", line_accesses);
  out.add("cache_misses", misses);
}

ICache::ICache(const CacheGeometry& geometry, std::uint32_t victim_lines)
    : geometry_(geometry) {
  STC_REQUIRE(geometry.line_bytes > 0 &&
              (geometry.line_bytes & (geometry.line_bytes - 1)) == 0);
  STC_REQUIRE(geometry.assoc > 0);
  STC_REQUIRE(geometry.size_bytes % (geometry.line_bytes * geometry.assoc) ==
              0);
  sets_ = geometry.num_sets();
  STC_REQUIRE((sets_ & (sets_ - 1)) == 0);
  tags_.assign(std::size_t{sets_} * geometry.assoc, kInvalidTag);
  lru_.assign(tags_.size(), 0);
  victim_tags_.assign(victim_lines, kInvalidTag);
  victim_lru_.assign(victim_lines, 0);
}

void ICache::reset() {
  std::fill(tags_.begin(), tags_.end(), kInvalidTag);
  std::fill(lru_.begin(), lru_.end(), 0);
  std::fill(victim_tags_.begin(), victim_tags_.end(), kInvalidTag);
  std::fill(victim_lru_.begin(), victim_lru_.end(), 0);
  lru_clock_ = 0;
  stats_ = CacheStats{};
}

bool ICache::probe_victim(std::uint64_t line, std::uint64_t* promoted_from) {
  for (std::size_t i = 0; i < victim_tags_.size(); ++i) {
    if (victim_tags_[i] == line) {
      *promoted_from = i;
      return true;
    }
  }
  return false;
}

bool ICache::access(std::uint64_t addr) {
  ++stats_.accesses;
  ++lru_clock_;
  const std::uint64_t line = line_of(addr);
  const std::uint32_t set = static_cast<std::uint32_t>(line & (sets_ - 1));
  const std::size_t base = std::size_t{set} * geometry_.assoc;
  const auto notify = [&](bool hit) {
    if (observer_) observer_(line * geometry_.line_bytes, hit);
    return hit;
  };

  // Main-cache lookup.
  for (std::uint32_t way = 0; way < geometry_.assoc; ++way) {
    if (tags_[base + way] == line) {
      lru_[base + way] = lru_clock_;
      return notify(true);
    }
  }

  // Choose the LRU way of the set as the fill/eviction slot.
  std::uint32_t victim_way = 0;
  for (std::uint32_t way = 1; way < geometry_.assoc; ++way) {
    if (lru_[base + way] < lru_[base + victim_way]) victim_way = way;
  }
  const std::uint64_t evicted = tags_[base + victim_way];

  // Victim-cache rescue: swap the requested line back into the main cache
  // and demote the evicted line into the victim slot it occupied.
  if (!victim_tags_.empty()) {
    std::uint64_t slot = 0;
    if (probe_victim(line, &slot)) {
      ++stats_.victim_hits;
      victim_tags_[slot] = evicted;
      victim_lru_[slot] = lru_clock_;
      tags_[base + victim_way] = line;
      lru_[base + victim_way] = lru_clock_;
      return notify(true);
    }
  }

  ++stats_.misses;
  tags_[base + victim_way] = line;
  lru_[base + victim_way] = lru_clock_;

  // Demote the evicted line into the victim cache (LRU replacement there).
  if (!victim_tags_.empty() && evicted != kInvalidTag) {
    std::size_t slot = 0;
    for (std::size_t i = 1; i < victim_tags_.size(); ++i) {
      if (victim_lru_[i] < victim_lru_[slot]) slot = i;
    }
    victim_tags_[slot] = evicted;
    victim_lru_[slot] = lru_clock_;
  }
  return notify(false);
}

bool ICache::prefetch_fill(std::uint64_t addr) {
  const std::uint64_t line = line_of(addr);
  const std::uint32_t set = static_cast<std::uint32_t>(line & (sets_ - 1));
  const std::size_t base = std::size_t{set} * geometry_.assoc;

  // Already resident in the main cache: leave the LRU order alone (a
  // prefetch of a cached line is a no-op, not a demand reference).
  for (std::uint32_t way = 0; way < geometry_.assoc; ++way) {
    if (tags_[base + way] == line) return true;
  }

  ++lru_clock_;
  std::uint32_t victim_way = 0;
  for (std::uint32_t way = 1; way < geometry_.assoc; ++way) {
    if (lru_[base + way] < lru_[base + victim_way]) victim_way = way;
  }
  const std::uint64_t evicted = tags_[base + victim_way];

  if (!victim_tags_.empty()) {
    std::uint64_t slot = 0;
    if (probe_victim(line, &slot)) {
      victim_tags_[slot] = evicted;
      victim_lru_[slot] = lru_clock_;
      tags_[base + victim_way] = line;
      lru_[base + victim_way] = lru_clock_;
      return true;
    }
  }

  tags_[base + victim_way] = line;
  lru_[base + victim_way] = lru_clock_;
  if (!victim_tags_.empty() && evicted != kInvalidTag) {
    std::size_t slot = 0;
    for (std::size_t i = 1; i < victim_tags_.size(); ++i) {
      if (victim_lru_[i] < victim_lru_[slot]) slot = i;
    }
    victim_tags_[slot] = evicted;
    victim_lru_[slot] = lru_clock_;
  }
  return false;
}

bool ICache::contains(std::uint64_t addr) const {
  const std::uint64_t line = line_of(addr);
  const std::uint32_t set = static_cast<std::uint32_t>(line & (sets_ - 1));
  const std::size_t base = std::size_t{set} * geometry_.assoc;
  for (std::uint32_t way = 0; way < geometry_.assoc; ++way) {
    if (tags_[base + way] == line) return true;
  }
  for (std::uint64_t tag : victim_tags_) {
    if (tag == line) return true;
  }
  return false;
}

}  // namespace stc::sim
