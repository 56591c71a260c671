#include "backend/backend.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "support/check.h"
#include "support/env.h"

namespace stc::backend {

const char* to_string(BackendKind kind) {
  switch (kind) {
    case BackendKind::kOff: return "off";
    case BackendKind::kInOrder: return "inorder";
    case BackendKind::kOoo: return "ooo";
  }
  return "?";
}

bool parse_backend(const char* name, BackendKind* out) {
  const std::string v(name);
  if (v == "off") {
    *out = BackendKind::kOff;
  } else if (v == "inorder") {
    *out = BackendKind::kInOrder;
  } else if (v == "ooo") {
    *out = BackendKind::kOoo;
  } else {
    return false;
  }
  return true;
}

Result<BackendParams> BackendParams::try_from_environment() {
  BackendParams params;
  Result<std::string> kind = env::backend();
  if (!kind.is_ok()) return kind.status();
  const bool ok = parse_backend(kind.value().c_str(), &params.kind);
  STC_CHECK_MSG(ok, "env::backend() returned an unknown backend name");
  Result<std::uint32_t> iq = env::iq_depth();
  if (!iq.is_ok()) return iq.status();
  params.iq_depth = iq.value();
  Result<std::uint32_t> rob = env::rob_depth();
  if (!rob.is_ok()) return rob.status();
  params.rob_depth = rob.value();
  return params;
}

BackendParams BackendParams::from_environment() {
  Result<BackendParams> params = try_from_environment();
  if (!params.is_ok()) {
    std::fprintf(stderr, "environment: %s\n",
                 params.status().to_string().c_str());
    std::exit(2);
  }
  return params.value();
}

void BackendStats::export_counters(CounterSet& out) const {
  out.add("be_cycles", cycles);
  out.add("be_retired_ops", retired_ops);
  out.add("be_retired_insns", retired_insns);
  out.add("be_dispatched_ops", dispatched_ops);
  out.add("be_issued_ops", issued_ops);
  out.add("be_iq_peak", iq_peak);
  out.add("be_rob_peak", rob_peak);
  out.add("be_iq_occupancy", iq_occupancy_sum);
  out.add("be_rob_occupancy", rob_occupancy_sum);
  out.add("be_frontend_stalls", frontend_stall_cycles);
  out.add("be_dispatch_stall_iq", dispatch_stall_iq);
  out.add("be_dispatch_stall_rob", dispatch_stall_rob);
  out.add("be_issue_stalls", issue_stall_cycles);
  out.add("be_empty_cycles", empty_cycles);
}

Backend::Backend(const BackendParams& params, BackendStats* stats)
    : params_(params),
      stats_(stats),
      rob_(params.rob_depth),
      last_writer_(sim::kBackendRegs, kNoSeq) {
  STC_REQUIRE(params.kind != BackendKind::kOff);
  STC_REQUIRE(params.decode_width >= 1);
  STC_REQUIRE(params.issue_width >= 1);
  STC_REQUIRE(params.commit_width >= 1);
  STC_REQUIRE(params.iq_depth >= 1);
  STC_REQUIRE(params.rob_depth >= 1);
  STC_REQUIRE(params.fetch_buffer_ops >= 1);
  STC_REQUIRE(stats != nullptr);
}

bool Backend::dep_satisfied(std::uint64_t dep, std::uint64_t now) const {
  if (dep == kNoSeq) return true;
  const RobEntry& entry = rob_[dep % params_.rob_depth];
  // The producer retired and its slot was reused (or cleared): the value
  // has long been architectural.
  if (entry.seq != dep) return true;
  if (dep < retire_) return true;  // retired, slot not yet reused
  return entry.issued && now >= entry.done_cycle;
}

void Backend::dispatch(const BackendOp& op) {
  STC_REQUIRE(can_dispatch());
  RobEntry& entry = rob_[next_seq_ % params_.rob_depth];
  entry.seq = next_seq_;
  entry.op = op;
  // Rename-style dependence capture: only the youngest prior writer of each
  // source matters, and writing dest never waits on anything.
  entry.dep1 = last_writer_[op.src1];
  entry.dep2 = last_writer_[op.src2];
  entry.issued = false;
  entry.done_cycle = 0;
  last_writer_[op.dest] = next_seq_;
  iq_.push_back(next_seq_);
  ++next_seq_;
  ++stats_->dispatched_ops;
  stats_->iq_peak = std::max<std::uint64_t>(stats_->iq_peak, iq_.size());
  stats_->rob_peak = std::max(stats_->rob_peak, in_flight());
}

void Backend::step(std::uint64_t now) {
  // Commit: in program order, up to commit_width completed ops.
  std::uint32_t committed = 0;
  while (committed < params_.commit_width && retire_ < next_seq_) {
    const RobEntry& head = rob_[retire_ % params_.rob_depth];
    STC_DCHECK(head.seq == retire_);
    if (!head.issued || now < head.done_cycle) break;
    ++stats_->retired_ops;
    stats_->retired_insns += head.op.insns;
    if (observer_) observer_(head.op);
    ++retire_;
    ++committed;
  }

  // Issue: age order over the queue. In-order machines stop at the first
  // not-ready op (the queue head is the oldest waiting op).
  std::uint32_t issued = 0;
  for (auto it = iq_.begin(); it != iq_.end() && issued < params_.issue_width;) {
    RobEntry& entry = rob_[*it % params_.rob_depth];
    if (dep_satisfied(entry.dep1, now) && dep_satisfied(entry.dep2, now)) {
      entry.issued = true;
      entry.done_cycle = now + std::max<std::uint32_t>(1, entry.op.latency);
      ++issued;
      ++stats_->issued_ops;
      it = iq_.erase(it);
    } else if (params_.kind == BackendKind::kInOrder) {
      break;
    } else {
      ++it;
    }
  }
  if (issued == 0 && !iq_.empty()) ++stats_->issue_stall_cycles;

  // Occupancy sampling for this cycle.
  stats_->iq_occupancy_sum += iq_.size();
  stats_->rob_occupancy_sum += in_flight();
  if (empty()) ++stats_->empty_cycles;
}

}  // namespace stc::backend
