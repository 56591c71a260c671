// The speculative front-end engine: the front-end policy (sim/fetch_unit.h)
// of every speculative driver. run_seq3_frontend and
// run_trace_cache_frontend (front_end.cpp) instantiate sim::seq3_loop and
// sim::trace_cache_loop with it, and the back-end pipeline
// (src/backend/pipeline.cpp) hands it to each sim::seq3_request. It owns
// the committed predictor/BTB/RAS state, the in-flight prefetch
// book-keeping, and the decoupled fetch-target queue that scans the pipe
// ahead of fetch.
//
// Header-only because the drivers live in two libraries (stc_frontend and
// stc_backend) and the engine must evolve in lockstep for their counters to
// stay comparable.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "frontend/front_end.h"
#include "sim/fetch_unit.h"
#include "sim/icache.h"
#include "support/check.h"

namespace stc::frontend {

class Engine {
 public:
  Engine(const sim::FetchParams& fetch, const FrontEndParams& fe,
         sim::ICache* cache, std::uint32_t line_bytes, FrontEndStats* stats)
      : fetch_(fetch),
        fe_(fe),
        cache_(cache),
        line_bytes_(line_bytes),
        stats_(stats),
        perfect_(fe.kind == BpredKind::kPerfect),
        pred_(make_predictor(fe.kind, fe.table_bits)),
        btb_(fe.btb_entries),
        ras_(fe.ras_depth),
        spec_ras_(fe.ras_depth) {}

  // Only a realistic predictor reads the retired groups.
  bool resolves() const { return !perfect_; }

  // Demand access for one fetch line. Returns true on hit; accumulates the
  // prefetch outcome for the line and, for a line whose prefetch is still
  // in flight, raises *wait to the residual latency. The request stalls for
  // its largest residual, so only the part a line adds to *wait counts as
  // late-prefetch stall.
  bool access(std::uint64_t line_addr, std::uint64_t now,
              std::uint64_t* wait) {
    const bool hit = cache_->access(line_addr);
    const auto it = inflight_.find(line_addr / line_bytes_);
    if (it != inflight_.end()) {
      if (hit) {
        if (now >= it->second) {
          ++stats_->prefetch_useful;
        } else {
          ++stats_->prefetch_late;
          const std::uint64_t residual = it->second - now;
          if (residual > *wait) {
            stats_->prefetch_late_cycles += residual - *wait;
            *wait = residual;
          }
        }
      } else {
        ++stats_->prefetch_evicted;
      }
      inflight_.erase(it);
    }
    return hit;
  }

  // The `supplied` instructions of a request have been consumed from the
  // pipe: slides the fetch-target queue past them, then resolves the
  // group's transfers (`group` is non-null whenever resolves()). Returns
  // the misprediction bubble cycles.
  std::uint64_t retire(std::uint32_t supplied, const sim::Seq3Group* group) {
    advance(supplied);
    return perfect_ ? 0 : resolve(*group);
  }

  // Next-trace selection: would the current predictions follow the stored
  // path of a trace-cache hit that supplies `hit`? Pure check — no
  // counters, no training; resolution happens when the group retires.
  bool accepts_trace(const sim::Seq3Group& hit) {
    if (perfect_) return true;
    ReturnAddressStack ras = ras_;
    const std::vector<sim::FetchPipe::Insn>& insns = hit.insns;
    for (std::size_t k = 0; k < insns.size(); ++k) {
      const sim::FetchPipe::Insn& insn = insns[k];
      if (!insn.is_branch) continue;
      std::uint64_t actual_next = 0;
      if (!next_after(hit, k, &actual_next)) break;  // nothing to diverge
      if (predict_next(insn, ras, nullptr) != actual_next) return false;
    }
    return true;
  }

  // Extends the run-ahead window along the predicted path, then issues up
  // to prefetch_width line prefetches from the queue.
  void run_ahead(const sim::FetchPipe& pipe, std::uint64_t now) {
    if (!prefetching()) return;
    fill_scan(pipe);
    issue(now);
  }

 private:
  struct FtqEntry {
    std::uint64_t line = 0;    // line index (addr / line_bytes)
    std::uint32_t insns = 0;   // window instructions mapped onto the entry
    bool issued = false;       // prefetch decision already made
  };

  // The address fetched after instruction `k` of `group`; false when the
  // trace ends at it.
  static bool next_after(const sim::Seq3Group& group, std::size_t k,
                         std::uint64_t* next) {
    if (k + 1 < group.insns.size()) {
      *next = group.insns[k + 1].addr;
      return true;
    }
    *next = group.next_addr;
    return group.has_next;
  }

  bool prefetching() const {
    return fe_.prefetch && !fetch_.perfect_icache && cache_ != nullptr &&
           fe_.ftq_depth > 0;
  }

  // Predicts the address fetched after branch `insn`: the direction first,
  // then the target from `ras` for a return or the BTB otherwise. Pops
  // `ras` for a return and pushes the fall-through for a call. Counts RAS
  // and BTB activity into `counted` when it is non-null.
  std::uint64_t predict_next(const sim::FetchPipe::Insn& insn,
                             ReturnAddressStack& ras,
                             FrontEndStats* counted) {
    const std::uint64_t fallthrough = insn.addr + cfg::kInsnBytes;
    std::uint64_t ras_target = 0;
    if (insn.kind == cfg::BlockKind::kReturn) {
      ras_target = ras.pop();
      if (counted != nullptr) ++counted->ras_pops;
    }
    std::uint64_t pred_next = fallthrough;
    if (pred_->predict(insn.addr)) {
      if (insn.kind == cfg::BlockKind::kReturn) {
        if (ras_target != 0) pred_next = ras_target;
      } else {
        if (counted != nullptr) ++counted->btb_lookups;
        std::uint64_t target = 0;
        if (btb_.lookup(insn.addr, &target)) {
          pred_next = target;
        } else if (counted != nullptr) {
          ++counted->btb_misses;
        }
      }
    }
    if (insn.kind == cfg::BlockKind::kCall) {
      ras.push(fallthrough);
      if (counted != nullptr) ++counted->ras_pushes;
    }
    return pred_next;
  }

  // Resolves every control transfer of a retired fetch group against the
  // committed predictor state, training as it goes. Returns the bubble
  // cycles charged for mispredictions.
  std::uint64_t resolve(const sim::Seq3Group& group) {
    const std::vector<sim::FetchPipe::Insn>& insns = group.insns;
    std::uint64_t bubbles = 0;
    for (std::size_t k = 0; k < insns.size(); ++k) {
      const sim::FetchPipe::Insn& insn = insns[k];
      if (!insn.is_branch) continue;  // layout-inserted jumps are free
      std::uint64_t actual_next = 0;
      if (!next_after(group, k, &actual_next)) break;  // nothing to resolve

      ++stats_->bp_lookups;
      const std::uint64_t pred_next = predict_next(insn, ras_, stats_);

      // Train on the resolved outcome along the actual path.
      pred_->update(insn.addr, insn.taken);
      if (insn.taken && insn.kind != cfg::BlockKind::kReturn) {
        btb_.update(insn.addr, actual_next);
      }

      if (pred_next != actual_next) {
        ++stats_->bp_mispredicts;
        stats_->bp_bubble_cycles += fe_.mispredict_penalty;
        bubbles += fe_.mispredict_penalty;
        flush_ftq();
      }
    }
    return bubbles;
  }

  // Slides the fetch-target queue window forward over `n` just-consumed
  // instructions.
  void advance(std::uint32_t n) {
    if (!prefetching()) return;
    std::uint32_t left = n;
    while (left > 0 && !ftq_.empty()) {
      FtqEntry& front = ftq_.front();
      const std::uint32_t eat = std::min(left, front.insns);
      front.insns -= eat;
      left -= eat;
      if (front.insns == 0) ftq_.pop_front();
    }
    scan_offset_ -= std::min(scan_offset_, n);
    if (blocked_) {
      blocked_offset_ -= static_cast<std::int64_t>(n);
      // The blocking branch has retired (and resolved); if it did not flush
      // us the prediction was right after all — resume scanning.
      if (blocked_offset_ < 0) blocked_ = false;
    }
  }

  void flush_ftq() {
    if (!prefetching()) return;
    ftq_.clear();
    scan_offset_ = 0;
    blocked_ = false;
    spec_ras_ = ras_;
  }

  void fill_scan(const sim::FetchPipe& pipe) {
    sim::FetchPipe::Insn insn;
    sim::FetchPipe::Insn next;
    while (!blocked_) {
      if (!pipe.peek(scan_offset_, insn)) break;  // end of trace
      const std::uint64_t line = insn.addr / line_bytes_;
      if (ftq_.empty() || ftq_.back().line != line) {
        if (ftq_.size() >= fe_.ftq_depth) break;  // window full
        ftq_.push_back(FtqEntry{line, 0, false});
      }
      ++ftq_.back().insns;
      ++scan_offset_;
      if (!insn.is_branch || perfect_) continue;
      if (!pipe.peek(scan_offset_, next)) break;
      // Speculative prediction with frozen tables and a private RAS copy;
      // a divergence from the trace means the machine would fetch the wrong
      // path from here — stop until the branch resolves.
      if (predict_next(insn, spec_ras_, nullptr) != next.addr) {
        blocked_ = true;
        blocked_offset_ = static_cast<std::int64_t>(scan_offset_) - 1;
      }
    }
  }

  void issue(std::uint64_t now) {
    std::uint32_t issued = 0;
    for (FtqEntry& entry : ftq_) {
      if (issued >= fe_.prefetch_width) break;
      if (entry.issued) continue;
      entry.issued = true;
      if (inflight_.count(entry.line) != 0) continue;  // already in flight
      if (cache_->prefetch_fill(entry.line * line_bytes_)) continue;
      inflight_[entry.line] = now + fetch_.miss_penalty;
      ++stats_->prefetch_issued;
      ++issued;
    }
  }

  const sim::FetchParams fetch_;
  const FrontEndParams fe_;
  sim::ICache* cache_;
  const std::uint32_t line_bytes_;
  FrontEndStats* stats_;

  const bool perfect_;
  std::unique_ptr<BranchPredictor> pred_;
  Btb btb_;
  ReturnAddressStack ras_;

  // Fetch-target queue state. `scan_offset_` is the window length in
  // instructions, relative to the pipe's current front; `spec_ras_` evolves
  // along the scanned (predicted) path and is resynced on every flush.
  std::deque<FtqEntry> ftq_;
  std::uint32_t scan_offset_ = 0;
  bool blocked_ = false;
  std::int64_t blocked_offset_ = 0;  // window offset of the blocking branch
  ReturnAddressStack spec_ras_;

  // line index -> completion cycle of the in-flight (or never-demanded)
  // prefetch; erased at the first demand access of the line.
  std::unordered_map<std::uint64_t, std::uint64_t> inflight_;
};

}  // namespace stc::frontend
