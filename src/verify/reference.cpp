#include "verify/reference.h"

namespace stc::verify {

BlockRunStream::BlockRunStream(const trace::BlockTrace& trace,
                               const cfg::ProgramImage& image,
                               const cfg::AddressMap& layout)
    : image_(image), layout_(layout), cursor_(trace) {
  if (!cursor_.done()) {
    pending_ = cursor_.next();
    have_pending_ = true;
  }
}

bool BlockRunStream::next(trace::BlockRun& out) {
  if (!have_pending_) return false;
  const cfg::BlockInfo& info = image_.block(pending_);
  out.block = pending_;
  out.addr = layout_.addr(pending_);
  out.insns = info.insns;
  out.ends_in_branch = cfg::ends_in_branch(info.kind);
  out.kind = info.kind;
  if (cursor_.done()) {
    have_pending_ = false;
    out.has_next = false;
    out.taken = false;
    out.next_addr = 0;
    return true;
  }
  pending_ = cursor_.next();
  out.has_next = true;
  out.next_addr = layout_.addr(pending_);
  out.taken = out.next_addr != out.end_addr();
  return true;
}

sim::MissRateResult reference_missrate(
    const trace::BlockTrace& trace, const cfg::ProgramImage& image,
    const cfg::AddressMap& layout, sim::ICache& cache,
    std::vector<std::uint64_t>* per_block_misses) {
  sim::MissRateResult result;
  if (per_block_misses != nullptr) {
    per_block_misses->assign(image.num_blocks(), 0);
  }
  const std::uint32_t line = cache.geometry().line_bytes;
  BlockRunStream stream(trace, image, layout);
  trace::BlockRun run;
  std::uint64_t prev_line = ~std::uint64_t{0};
  while (stream.next(run)) {
    result.instructions += run.insns;
    const std::uint64_t first = run.addr / line;
    const std::uint64_t last = (run.end_addr() - 1) / line;
    for (std::uint64_t l = first; l <= last; ++l) {
      // Consecutive instructions on one line probe the cache once; a line
      // re-entered after leaving (even the same line) probes again.
      if (l == prev_line) continue;
      ++result.line_accesses;
      if (!cache.access(l * line)) {
        ++result.misses;
        if (per_block_misses != nullptr) ++(*per_block_misses)[run.block];
      }
      prev_line = l;
    }
  }
  return result;
}

trace::SequentialityStats reference_sequentiality(
    const trace::BlockTrace& trace, const cfg::ProgramImage& image,
    const cfg::AddressMap& layout) {
  trace::SequentialityStats stats;
  BlockRunStream stream(trace, image, layout);
  trace::BlockRun run;
  while (stream.next(run)) {
    stats.instructions += run.insns;
    ++stats.dynamic_blocks;
    if (run.has_next && run.taken) ++stats.taken_transitions;
  }
  return stats;
}

}  // namespace stc::verify
