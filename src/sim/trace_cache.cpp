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

std::uint32_t TraceCache::probe(std::uint64_t addr, const FetchPipe& pipe,
                                Seq3Group* group) const {
  ++probes_;
  const Entry& entry = entries_[index_of(addr)];
  if (!entry.valid || entry.start != addr) return 0;
  // Perfect multiple-branch prediction: the hit is valid only if the stored
  // path equals the actual upcoming path.
  const auto len = static_cast<std::uint32_t>(entry.addrs.size());
  pipe.peek_group(len, group);
  if (group->insns.size() != len) return 0;  // the trace ends first
  for (std::uint32_t k = 0; k < len; ++k) {
    if (group->insns[k].addr != entry.addrs[k]) return 0;
  }
  return len;
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
  return trace_cache_loop(plan, params, tc_params, cache,
                          [cache](std::uint32_t) { return NoFrontEnd{cache}; });
}

}  // namespace stc::sim
