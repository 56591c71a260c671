#include "verify/reference.h"

namespace stc::verify {

sim::MissRateResult reference_missrate(
    const trace::BlockTrace& trace, const cfg::ProgramImage& image,
    const cfg::AddressMap& layout, sim::ICache& cache,
    std::vector<std::uint64_t>* per_block_misses) {
  sim::MissRateResult result;
  if (per_block_misses != nullptr) {
    per_block_misses->assign(image.num_blocks(), 0);
  }
  const std::uint32_t line = cache.geometry().line_bytes;
  trace::BlockRunStream stream(trace, image, layout);
  // Track the block id alongside the run for attribution.
  trace::BlockTrace::Cursor ids(trace);
  trace::BlockRun run;
  std::uint64_t prev_line = ~std::uint64_t{0};
  while (stream.next(run)) {
    const cfg::BlockId block = ids.next();
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
        if (per_block_misses != nullptr) ++(*per_block_misses)[block];
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
  trace::BlockRunStream stream(trace, image, layout);
  trace::BlockRun run;
  while (stream.next(run)) {
    stats.instructions += run.insns;
    ++stats.dynamic_blocks;
    if (run.has_next && run.taken) ++stats.taken_transitions;
  }
  return stats;
}

}  // namespace stc::verify
