#include "sim/trace_cache.h"

#include "sim/replay.h"
#include "support/check.h"

namespace stc::sim {

TraceCache::TraceCache(const TraceCacheParams& params) : params_(params) {
  STC_REQUIRE(params.entries > 0 &&
              (params.entries & (params.entries - 1)) == 0);
  STC_REQUIRE(params.width > 0);
  entries_.resize(params.entries);
}

std::uint32_t TraceCache::probe(std::uint64_t addr, FetchPipe& pipe) const {
  ++probes_;
  const Entry& entry = entries_[index_of(addr)];
  if (!entry.valid || entry.start != addr) return 0;
  // Perfect multiple-branch prediction: the hit is valid only if the stored
  // path equals the actual upcoming path.
  FetchPipe::Insn insn;
  for (std::uint32_t k = 0; k < entry.addrs.size(); ++k) {
    if (!pipe.peek(k, insn)) return 0;
    if (insn.addr != entry.addrs[k]) return 0;
  }
  return static_cast<std::uint32_t>(entry.addrs.size());
}

void TraceCache::begin_fill(std::uint64_t start_addr) {
  STC_REQUIRE(!fill_active_);
  fill_active_ = true;
  fill_start_ = start_addr;
  fill_branches_ = 0;
  fill_addrs_.clear();
}

void TraceCache::fill_push(const FetchPipe::Insn& insn) {
  if (!fill_active_) return;
  fill_addrs_.push_back(insn.addr);
  if (insn.is_branch) ++fill_branches_;
  if (fill_addrs_.size() >= params_.width ||
      fill_branches_ >= params_.max_branches) {
    commit_fill();
  }
}

void TraceCache::commit_fill() {
  Entry& entry = entries_[index_of(fill_start_)];
  entry.valid = true;
  entry.start = fill_start_;
  entry.addrs = fill_addrs_;
  fill_active_ = false;
  ++stored_;
}

FetchResult run_trace_cache(const ReplayPlan& plan, const FetchParams& params,
                            const TraceCacheParams& tc_params, ICache* cache) {
  FetchPipe pipe(plan);
  STC_REQUIRE(params.perfect_icache || cache != nullptr);
  if (cache != nullptr) cache->reset();
  const std::uint32_t line_bytes =
      cache != nullptr ? cache->geometry().line_bytes : 64;

  TraceCache tc(tc_params);
  FetchResult result;
  while (!pipe.done()) {
    const std::uint64_t fetch_addr = pipe.addr();
    if (const std::uint32_t hit_len = tc.probe(fetch_addr, pipe)) {
      // Trace cache hit: the whole stored trace is supplied this cycle.
      ++result.tc_hits;
      ++result.fetch_requests;
      ++result.cycles;
      result.instructions += hit_len;
      // The fill buffer observes the retired instruction stream regardless
      // of where the instructions came from.
      if (tc.fill_active()) {
        FetchPipe::Insn insn;
        for (std::uint32_t k = 0; k < hit_len && pipe.peek(k, insn); ++k) {
          tc.fill_push(insn);
        }
      }
      pipe.consume(hit_len);
      continue;
    }
    ++result.tc_misses;

    // Miss: the sequential unit fetches from the i-cache while the fill
    // buffer constructs a new trace starting at this address.
    if (!tc.fill_active()) tc.begin_fill(fetch_addr);
    // Snapshot the upcoming instructions for the fill buffer before the
    // cycle consumes them.
    std::vector<FetchPipe::Insn> supplied_insns;
    {
      FetchPipe::Insn peeked;
      for (std::uint32_t k = 0; k < params.width && pipe.peek(k, peeked); ++k) {
        supplied_insns.push_back(peeked);
      }
    }
    const Seq3Cycle cycle = seq3_fetch_cycle(pipe, params, line_bytes);
    result.instructions += cycle.supplied;
    ++result.fetch_requests;
    ++result.cycles;
    if (!params.perfect_icache) {
      std::uint32_t missed = cache->access(cycle.line0) ? 0 : 1;
      if (cycle.touched_line1 && !cache->access(cycle.line0 + line_bytes)) {
        ++missed;
      }
      if (missed > 0) {
        ++result.miss_requests;
        result.lines_missed += missed;
        result.cycles += params.penalty_per_line
                             ? std::uint64_t{params.miss_penalty} * missed
                             : params.miss_penalty;
      }
    }
    for (std::uint32_t k = 0; k < cycle.supplied; ++k) {
      tc.fill_push(supplied_insns[k]);
    }
  }
  result.tc_fills = tc.stored_traces();
  result.tc_probes = tc.probes();
  return result;
}

}  // namespace stc::sim
