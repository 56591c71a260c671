// The unified fetch→decode→issue→commit pipeline: the PR 3 speculative
// front end (SEQ.3 + predictor/BTB/RAS + FDIP) feeding the bounded back end
// under one clock.
//
// Per cycle:
//   1. the back end commits and issues (backend.h),
//   2. if the fetch unit is not mid-stall and the decode FIFO has room, one
//      SEQ.3 fetch cycle runs — i-cache misses, late-prefetch waits and
//      mispredict bubbles delay the NEXT fetch rather than freezing the
//      whole machine (the back end keeps draining during front-end stalls,
//      which is exactly the decoupling a fetch-bandwidth study needs to
//      model); completed basic blocks decode into ops,
//   3. up to decode_width ops dispatch into the IQ/ROB; a full window
//      stalls dispatch, a full FIFO stalls fetch (back-pressure).
// The run ends when the trace, the FIFO and the window are all drained, so
// fetch.cycles == be_cycles and retired_insns == fetched instructions.
//
// Each op's latency and registers come from the plan's back-end tables;
// verify::check_plan_feed proves those equal the BackendSpec helpers
// computed from the image and layout.
#pragma once

#include "backend/backend.h"
#include "frontend/front_end.h"
#include "sim/fetch_unit.h"
#include "sim/icache.h"
#include "sim/replay.h"
#include "support/error.h"

namespace stc::backend {

struct BackendResult {
  sim::FetchResult fetch;
  frontend::FrontEndStats frontend;
  BackendStats backend;

  double ipc() const { return backend.ipc(); }
};

// Runs the plan's whole trace (sim/replay.h) through the pipeline. Its
// fetch stage issues the same sim::seq3_request as the SEQ.3 loop, with the
// speculative Engine as policy. `cache` may be null only with
// fetch_params.perfect_icache. Requires !backend_params.off() — backend-off
// callers run the front-end loops (bench::measure_seq3 routes this). The
// plan must carry back-end tables
// (a missing table aborts), built with backend_params.spec() — the
// ReplayPlanCache keys on the spec fingerprint to guarantee it. The only
// failure is an injected "backend.dispatch" fault, which fires once per
// run before the first op and is surfaced as a structured Status.
Result<BackendResult> run_seq3_backend(const sim::ReplayPlan& plan,
                                       const sim::FetchParams& fetch_params,
                                       const frontend::FrontEndParams& fe_params,
                                       const BackendParams& backend_params,
                                       sim::ICache* cache);

}  // namespace stc::backend
