// The oracle's reference implementations of the two replay kernels.
//
// sim::replay_missrate and sim::replay_sequentiality run span kernels over
// a plan's event slab with pre-resolved line tables. These references walk
// the BlockTrace itself, one event at a time, through trace::BlockRunStream
// and derive every line bound from the run's addresses. They are genuinely
// second implementations, so check_replay_modes, STC_VERIFY=1 bench cells
// and the replay_throughput bench compare the kernels against them.
#pragma once

#include <cstdint>
#include <vector>

#include "cfg/address_map.h"
#include "cfg/program.h"
#include "sim/icache.h"
#include "trace/block_trace.h"
#include "trace/fetch_stream.h"

namespace stc::verify {

// Streams every executed instruction of the trace (under `layout`) through
// the cache, touching each line once per crossing. When `per_block_misses`
// is non-null it is resized to the block count and accumulates each miss
// against the block whose instructions triggered it.
sim::MissRateResult reference_missrate(
    const trace::BlockTrace& trace, const cfg::ProgramImage& image,
    const cfg::AddressMap& layout, sim::ICache& cache,
    std::vector<std::uint64_t>* per_block_misses = nullptr);

// Instructions, dynamic blocks and taken transitions of the trace under
// `layout`.
trace::SequentialityStats reference_sequentiality(
    const trace::BlockTrace& trace, const cfg::ProgramImage& image,
    const cfg::AddressMap& layout);

}  // namespace stc::verify
