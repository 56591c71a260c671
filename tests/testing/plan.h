// The one helper tests use to turn a (trace, image, layout) triple into the
// replay plan every simulator takes (sim/replay.h).
#pragma once

#include <cstdint>

#include "cfg/address_map.h"
#include "cfg/program.h"
#include "sim/replay.h"
#include "trace/block_trace.h"

namespace stc::testing {

// Builds a compiled plan with line tables for `line_bytes` (0 for none:
// only replay_missrate reads them, and it derives line bounds from the
// block metadata without) and back-end tables when `spec` is enabled.
// Throws on a build failure, which only an armed "replay.compile" fault
// causes.
inline sim::ReplayPlan make_plan(const trace::BlockTrace& trace,
                                 const cfg::ProgramImage& image,
                                 const cfg::AddressMap& layout,
                                 std::uint32_t line_bytes = 0,
                                 const sim::BackendSpec& spec = {}) {
  return sim::build_replay_plan(sim::ReplayMode::kCompiled, trace, image,
                                layout, line_bytes, spec)
      .take();
}

}  // namespace stc::testing
