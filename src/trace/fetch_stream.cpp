#include "trace/fetch_stream.h"

namespace stc::trace {

void SequentialityStats::export_counters(CounterSet& out) const {
  out.add("instructions", instructions);
  out.add("blocks", dynamic_blocks);
  out.add("taken_transitions", taken_transitions);
}

BlockRunStream::BlockRunStream(const BlockTrace& trace,
                               const cfg::ProgramImage& image,
                               const cfg::AddressMap& layout)
    : image_(image), layout_(layout), cursor_(trace) {
  if (!cursor_.done()) {
    pending_ = cursor_.next();
    have_pending_ = true;
  }
}

bool BlockRunStream::next(BlockRun& out) {
  if (!have_pending_) return false;
  const cfg::BlockInfo& info = image_.block(pending_);
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

}  // namespace stc::trace
