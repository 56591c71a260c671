#include "sim/replay.h"

#include <algorithm>
#include <functional>

#include "support/faultpoint.h"

namespace stc::sim {

void BlockMetaTable::build(const cfg::ProgramImage& image,
                           const cfg::AddressMap& layout) {
  const std::size_t n = image.num_blocks();
  addr_.assign(n, 0);
  end_addr_.assign(n, 0);
  insns_.assign(n, 0);
  branch_.assign(n, 0);
  kind_.assign(n, 0);
  for (cfg::BlockId b = 0; b < n; ++b) {
    const cfg::BlockInfo& info = image.block(b);
    addr_[b] = layout.addr(b);
    end_addr_[b] = addr_[b] + std::uint64_t{info.insns} * cfg::kInsnBytes;
    insns_[b] = info.insns;
    branch_[b] = cfg::ends_in_branch(info.kind) ? 1 : 0;
    kind_[b] = static_cast<std::uint8_t>(info.kind);
  }
}

void EventSlab::build(const trace::BlockTrace& trace) {
  events_.clear();
  events_.reserve(static_cast<std::size_t>(trace.num_events()));
  for (std::size_t c = 0; c < trace.num_chunks(); ++c) {
    trace.decode_chunk(c, events_);
  }
  STC_CHECK(events_.size() == trace.num_events());
  max_id_ = 0;
  for (const cfg::BlockId id : events_) max_id_ = std::max(max_id_, id);
}

void EventSlab::adopt(std::vector<cfg::BlockId> events) {
  events_ = std::move(events);
  max_id_ = 0;
  for (const cfg::BlockId id : events_) max_id_ = std::max(max_id_, id);
}

Status CompiledTable::build(const BlockMetaTable& meta,
                            std::uint32_t line_bytes) {
  if (line_bytes == 0) return Status::ok();  // layout-only plan
  if (Status s = fault::fail_if("replay.compile",
                                "building compiled replay tables");
      !s.is_ok()) {
    return s;
  }
  STC_REQUIRE((line_bytes & (line_bytes - 1)) == 0);
  const std::size_t n = meta.size();
  first_line_.assign(n, 0);
  last_line_.assign(n, 0);
  for (cfg::BlockId b = 0; b < n; ++b) {
    first_line_[b] = meta.addr(b) / line_bytes;
    // Mirrors the reference: the last line is the one holding the block's
    // final instruction byte (end_addr - 1), even for zero-length blocks.
    last_line_[b] = (meta.end_addr(b) - 1) / line_bytes;
  }
  line_bytes_ = line_bytes;
  return Status::ok();
}

void BackendTable::build(const BlockMetaTable& meta, const BackendSpec& spec) {
  STC_REQUIRE(spec.enabled);
  const std::size_t n = meta.size();
  latency_.assign(n, 0);
  dest_.assign(n, 0);
  src1_.assign(n, 0);
  src2_.assign(n, 0);
  for (cfg::BlockId b = 0; b < n; ++b) {
    latency_[b] = backend_op_latency(spec, meta.insns(b), meta.kind(b));
    backend_op_regs(meta.addr(b), meta.insns(b), &dest_[b], &src1_[b],
                    &src2_[b]);
  }
  spec_ = spec;
  valid_ = true;
}

Result<ReplayPlan> build_replay_plan(ReplayMode mode,
                                     std::shared_ptr<const EventSlab> slab,
                                     const cfg::ProgramImage& image,
                                     const cfg::AddressMap& layout,
                                     std::uint32_t line_bytes,
                                     const BackendSpec& backend) {
  STC_REQUIRE(mode == ReplayMode::kCompiled);
  STC_REQUIRE(slab != nullptr);
  ReplayPlan plan;
  plan.slab_ = std::move(slab);
  plan.meta_.build(image, layout);
  // One range check here buys unchecked indexing in every hot loop.
  STC_CHECK_MSG(plan.slab_->size() == 0 ||
                    plan.slab_->max_id() < plan.meta_.size(),
                "trace names blocks outside the program image");
  if (Status s = plan.compiled_.build(plan.meta_, line_bytes); !s.is_ok()) {
    return s.with_context("compiled replay");
  }
  if (backend.enabled) {
    plan.backend_.build(plan.meta_, backend);
  }
  return plan;
}

Result<ReplayPlan> build_replay_plan(ReplayMode mode,
                                     const trace::BlockTrace& trace,
                                     const cfg::ProgramImage& image,
                                     const cfg::AddressMap& layout,
                                     std::uint32_t line_bytes,
                                     const BackendSpec& backend) {
  auto slab = std::make_shared<EventSlab>();
  slab->build(trace);
  return build_replay_plan(mode, std::move(slab), image, layout, line_bytes,
                           backend);
}

Result<const ReplayPlan*> ReplayPlanCache::get(
    const trace::BlockTrace& trace, const cfg::ProgramImage& image,
    const cfg::AddressMap& layout, std::uint32_t line_bytes,
    const BackendSpec& backend) {
  // Content fingerprints (see the class comment): FNV-1a over what each
  // object *says*, so a rebuilt layout at a recycled address never hits a
  // stale entry.
  const auto fnv = [](std::uint64_t h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
    return h;
  };
  constexpr std::uint64_t kBasis = 14695981039346656037ull;
  std::uint64_t image_fp = fnv(kBasis, image.num_blocks());
  for (cfg::BlockId b = 0; b < image.num_blocks(); ++b) {
    const cfg::BlockInfo& info = image.block(b);
    image_fp = fnv(image_fp, info.insns);
    image_fp = fnv(image_fp, static_cast<std::uint64_t>(info.kind));
    image_fp = fnv(image_fp, info.orig_addr);
  }
  std::uint64_t layout_fp = fnv(kBasis, layout.size());
  for (cfg::BlockId b = 0; b < layout.size(); ++b) {
    layout_fp = fnv(layout_fp, layout.addr(b));
  }
  const std::uint64_t trace_fp = trace.content_hash();

  std::lock_guard<std::mutex> lock(mu_);
  const Key key{trace_fp, image_fp, layout_fp, line_bytes,
                backend.fingerprint()};
  auto it = plans_.find(key);
  if (it != plans_.end()) return it->second.get();

  std::shared_ptr<const EventSlab>& slab = slabs_[trace_fp];
  if (slab == nullptr) {
    auto built = std::make_shared<EventSlab>();
    built->build(trace);
    slab = std::move(built);
  }
  Result<ReplayPlan> plan = build_replay_plan(
      ReplayMode::kCompiled, slab, image, layout, line_bytes, backend);
  if (!plan.is_ok()) return plan.status();
  it = plans_
           .emplace(key, std::make_unique<const ReplayPlan>(
                             std::move(plan).take()))
           .first;
  return it->second.get();
}

namespace replay_detail {

void missrate_span(const cfg::BlockId* events, std::size_t n,
                   const BlockMetaTable& meta, const CompiledTable* tables,
                   std::uint32_t line_bytes, ICache& cache,
                   std::vector<std::uint64_t>* per_block_misses,
                   MissSpanState& state, MissRateResult& result) {
  const bool use_tables = tables != nullptr && tables->valid() &&
                          tables->line_bytes() == line_bytes;
  std::uint64_t prev_line = state.prev_line;
  // Same contract as verify::reference_missrate: consecutive instructions on one
  // line probe once; a line re-entered after leaving probes again.
  for (std::size_t i = 0; i < n; ++i) {
    const cfg::BlockId block = events[i];
    result.instructions += meta.insns(block);
    const std::uint64_t first = use_tables ? tables->first_line(block)
                                           : meta.addr(block) / line_bytes;
    const std::uint64_t last = use_tables
                                   ? tables->last_line(block)
                                   : (meta.end_addr(block) - 1) / line_bytes;
    for (std::uint64_t l = first; l <= last; ++l) {
      if (l == prev_line) continue;
      ++result.line_accesses;
      if (!cache.access(l * line_bytes)) {
        ++result.misses;
        if (per_block_misses != nullptr) ++(*per_block_misses)[block];
      }
      prev_line = l;
    }
  }
  state.prev_line = prev_line;
}

void sequentiality_span(const cfg::BlockId* events, std::size_t n,
                        const BlockMetaTable& meta, SeqSpanState& state,
                        trace::SequentialityStats& stats) {
  if (n == 0) return;
  // The transition into this span belongs to the previous span's last event
  // — the slab loop sees the two events adjacent.
  if (state.have_prev &&
      meta.addr(events[0]) != meta.end_addr(state.prev)) {
    ++stats.taken_transitions;
  }
  stats.dynamic_blocks += n;
  for (std::size_t i = 0; i < n; ++i) {
    stats.instructions += meta.insns(events[i]);
    if (i + 1 < n &&
        meta.addr(events[i + 1]) != meta.end_addr(events[i])) {
      ++stats.taken_transitions;
    }
  }
  state.have_prev = true;
  state.prev = events[n - 1];
}

}  // namespace replay_detail

MissRateResult replay_missrate(const ReplayPlan& plan, ICache& cache,
                               std::vector<std::uint64_t>* per_block_misses) {
  MissRateResult result;
  const BlockMetaTable& meta = plan.meta();
  if (per_block_misses != nullptr) {
    per_block_misses->assign(meta.size(), 0);
  }
  replay_detail::MissSpanState state;
  replay_detail::missrate_span(plan.slab().data(), plan.slab().size(), meta,
                               &plan.compiled(), cache.geometry().line_bytes,
                               cache, per_block_misses, state, result);
  return result;
}

trace::SequentialityStats replay_sequentiality(const ReplayPlan& plan) {
  trace::SequentialityStats stats;
  replay_detail::SeqSpanState state;
  replay_detail::sequentiality_span(plan.slab().data(), plan.slab().size(),
                                    plan.meta(), state, stats);
  return stats;
}

namespace {

// Shared chunk pump for the streamed replays: decode, range-check against
// the metadata table (the streamed loops index unchecked, exactly like the
// slab loops after their one-time max_id check), replay.
Status stream_chunks(
    const trace::TraceReader& reader, const BlockMetaTable& meta,
    const std::function<void(const cfg::BlockId*, std::size_t)>& on_span) {
  std::vector<cfg::BlockId> buffer;
  for (std::size_t c = 0; c < reader.num_chunks(); ++c) {
    buffer.clear();
    Result<std::size_t> decoded = reader.decode_chunk(c, buffer);
    if (!decoded.is_ok()) {
      return decoded.status().with_context("streamed replay");
    }
    for (const cfg::BlockId id : buffer) {
      if (id >= meta.size()) {
        return corrupt_data_error("trace names block " + std::to_string(id) +
                                  " outside the program image")
            .with_context("streamed replay");
      }
    }
    on_span(buffer.data(), buffer.size());
  }
  return Status::ok();
}

}  // namespace

Result<MissRateResult> replay_missrate_streamed(
    const trace::TraceReader& reader, const BlockMetaTable& meta,
    const CompiledTable* tables, ICache& cache) {
  MissRateResult result;
  replay_detail::MissSpanState state;
  const std::uint32_t line = cache.geometry().line_bytes;
  Status s = stream_chunks(
      reader, meta,
      [&](const cfg::BlockId* events, std::size_t n) {
        replay_detail::missrate_span(events, n, meta, tables, line, cache,
                                     nullptr, state, result);
      });
  if (!s.is_ok()) return s;
  return result;
}

Result<trace::SequentialityStats> replay_sequentiality_streamed(
    const trace::TraceReader& reader, const BlockMetaTable& meta) {
  trace::SequentialityStats stats;
  replay_detail::SeqSpanState state;
  Status s = stream_chunks(
      reader, meta,
      [&](const cfg::BlockId* events, std::size_t n) {
        replay_detail::sequentiality_span(events, n, meta, state, stats);
      });
  if (!s.is_ok()) return s;
  return stats;
}

}  // namespace stc::sim
