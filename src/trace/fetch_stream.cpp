#include "trace/fetch_stream.h"

namespace stc::trace {

void SequentialityStats::export_counters(CounterSet& out) const {
  out.add("instructions", instructions);
  out.add("blocks", dynamic_blocks);
  out.add("taken_transitions", taken_transitions);
}

}  // namespace stc::trace
