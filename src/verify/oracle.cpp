#include "verify/oracle.h"

#include <algorithm>
#include <string>

#include "cfg/types.h"
#include "sim/replay.h"
#include "sim/trace_cache.h"
#include "trace/fetch_stream.h"
#include "verify/reference.h"

namespace stc::verify {
namespace {

using cfg::BlockId;

std::string u64(std::uint64_t v) { return std::to_string(v); }

// "block #12 'name'" — identifies a block in error messages.
std::string block_ref(const cfg::ProgramImage& image, BlockId b) {
  std::string out = "block #" + u64(b);
  if (b < image.num_blocks()) {
    out += " '" + image.block(b).name + "'";
  }
  return out;
}

// Reports stop accumulating detail past this; walks can stop early.
constexpr std::uint64_t kGiveUpAfter = 64;

}  // namespace

void Report::fail(std::string message) {
  ++total_;
  if (errors_.size() < kMaxErrors) errors_.push_back(std::move(message));
}

void Report::merge(const Report& other, std::string_view context) {
  total_ += other.total_;
  for (const std::string& msg : other.errors_) {
    if (errors_.size() >= kMaxErrors) break;
    if (context.empty()) {
      errors_.push_back(msg);
    } else {
      errors_.push_back(std::string(context) + ": " + msg);
    }
  }
}

std::string Report::summary() const {
  if (ok()) return "OK";
  std::string out = u64(total_) + " violation(s):\n";
  for (const std::string& msg : errors_) {
    out += "  - " + msg + "\n";
  }
  if (total_ > errors_.size()) {
    out += "  ... and " + u64(total_ - errors_.size()) + " more\n";
  }
  return out;
}

std::uint64_t trace_instructions(const trace::BlockTrace& trace,
                                 const cfg::ProgramImage& image) {
  std::uint64_t insns = 0;
  trace.for_each([&](BlockId b) {
    if (b < image.num_blocks()) insns += image.block(b).insns;
  });
  return insns;
}

// ---- Invariant class 1: structure ----------------------------------------

Report check_structure(const cfg::ProgramImage& image,
                       const cfg::AddressMap& layout) {
  Report report;
  if (layout.size() != image.num_blocks()) {
    report.fail("layout '" + layout.name() + "' covers " + u64(layout.size()) +
                " blocks, image has " + u64(image.num_blocks()));
    return report;
  }

  struct Placed {
    std::uint64_t begin;
    std::uint64_t end;
    BlockId block;
  };
  std::vector<Placed> placed;
  placed.reserve(layout.size());
  for (BlockId b = 0; b < image.num_blocks(); ++b) {
    if (!layout.assigned(b)) {
      report.fail(block_ref(image, b) + " is unassigned (lost by the layout)");
      continue;
    }
    const std::uint64_t begin = layout.addr(b);
    const std::uint64_t bytes = image.block(b).bytes();
    if (begin > ~std::uint64_t{0} - bytes) {
      report.fail(block_ref(image, b) + " wraps the address space (addr " +
                  u64(begin) + " + " + u64(bytes) + " bytes)");
      continue;
    }
    placed.push_back({begin, begin + bytes, b});
  }

  std::sort(placed.begin(), placed.end(),
            [](const Placed& a, const Placed& b) {
              if (a.begin != b.begin) return a.begin < b.begin;
              return a.end < b.end;
            });
  for (std::size_t i = 1; i < placed.size(); ++i) {
    if (placed[i].begin < placed[i - 1].end) {
      report.fail(block_ref(image, placed[i - 1].block) + " [" +
                  u64(placed[i - 1].begin) + ", " + u64(placed[i - 1].end) +
                  ") overlaps " + block_ref(image, placed[i].block) + " [" +
                  u64(placed[i].begin) + ", " + u64(placed[i].end) + ")");
      if (report.total_found() >= kGiveUpAfter) break;
    }
  }
  return report;
}

Report check_replication_structure(
    const cfg::ProgramImage& original, const cfg::ProgramImage& extended,
    const std::vector<BlockId>& origin_blocks) {
  Report report;
  if (origin_blocks.size() != extended.num_blocks()) {
    report.fail("origin map covers " + u64(origin_blocks.size()) +
                " blocks, extended image has " + u64(extended.num_blocks()));
    return report;
  }
  if (extended.num_blocks() < original.num_blocks()) {
    report.fail("extended image (" + u64(extended.num_blocks()) +
                " blocks) lost blocks of the original (" +
                u64(original.num_blocks()) + ")");
    return report;
  }
  for (BlockId b = 0; b < extended.num_blocks(); ++b) {
    const BlockId origin = origin_blocks[b];
    if (b < original.num_blocks() && origin != b) {
      report.fail("original " + block_ref(original, b) +
                  " remapped to origin #" + u64(origin) +
                  " (original ids must be unchanged)");
      continue;
    }
    if (origin >= original.num_blocks()) {
      report.fail("clone " + block_ref(extended, b) +
                  " claims out-of-range origin #" + u64(origin));
      continue;
    }
    const cfg::BlockInfo& clone = extended.block(b);
    const cfg::BlockInfo& orig = original.block(origin);
    if (clone.insns != orig.insns) {
      report.fail("clone " + block_ref(extended, b) + " has " +
                  u64(clone.insns) + " insns, origin " +
                  block_ref(original, origin) + " has " + u64(orig.insns));
    }
    if (clone.kind != orig.kind) {
      report.fail("clone " + block_ref(extended, b) +
                  " changed block kind vs origin " +
                  block_ref(original, origin));
    }
    if (clone.index_in_routine != orig.index_in_routine) {
      report.fail("clone " + block_ref(extended, b) +
                  " sits at routine offset " + u64(clone.index_in_routine) +
                  ", origin at " + u64(orig.index_in_routine) +
                  " (clones must mirror whole routines)");
    }
    if (report.total_found() >= kGiveUpAfter) break;
  }
  return report;
}

// ---- Invariant class 2: replay equivalence -------------------------------

Report check_replay(const trace::BlockTrace& trace,
                    const cfg::ProgramImage& image,
                    const cfg::AddressMap& layout) {
  Report report;
  if (layout.size() != image.num_blocks()) {
    report.fail("layout does not cover the image; structure check applies");
    return report;
  }

  // A plan indexes its tables unchecked, so out-of-range events are
  // reported before one is built.
  {
    std::uint64_t event = 0;
    trace::BlockTrace::Cursor scan(trace);
    while (!scan.done()) {
      const BlockId b = scan.next();
      if (b >= image.num_blocks()) {
        report.fail("event " + u64(event) + " names out-of-range block #" +
                    u64(b));
        return report;
      }
      ++event;
    }
  }
  Result<sim::ReplayPlan> plan = sim::build_replay_plan(
      sim::ReplayMode::kCompiled, trace, image, layout, /*line_bytes=*/0);
  if (!plan.is_ok()) {
    report.fail("plan build failed: " + plan.status().to_string());
    return report;
  }

  // Ground truth: the trace events themselves, sized by the image and
  // addressed by the map. The reference stream and the plan-fed FetchPipe
  // the simulators read must reproduce them.
  trace::BlockTrace::Cursor truth(trace);
  trace::BlockRunStream stream(trace, image, layout);
  sim::FetchPipe pipe(plan.value());

  std::uint64_t event = 0;
  std::uint64_t insns_seen = 0;
  BlockId cur = truth.done() ? cfg::kInvalidBlock : truth.next();
  while (cur != cfg::kInvalidBlock) {
    if (!layout.assigned(cur)) {
      report.fail("event " + u64(event) + ": " + block_ref(image, cur) +
                  " has no address");
      return report;
    }
    const cfg::BlockInfo& info = image.block(cur);
    const std::uint64_t addr = layout.addr(cur);
    const BlockId next = truth.done() ? cfg::kInvalidBlock : truth.next();
    const bool has_next = next != cfg::kInvalidBlock;
    const bool valid_next = has_next && next < image.num_blocks() &&
                            layout.assigned(next);
    const std::uint64_t seq_end = addr + std::uint64_t{info.insns} *
                                             cfg::kInsnBytes;
    const bool taken = valid_next && layout.addr(next) != seq_end;

    // BlockRunStream must agree field for field.
    trace::BlockRun run;
    if (!stream.next(run)) {
      report.fail("stream ended at event " + u64(event) + " of " +
                  u64(trace.num_events()));
      return report;
    }
    if (run.addr != addr || run.insns != info.insns) {
      report.fail("event " + u64(event) + " (" + block_ref(image, cur) +
                  "): stream run at addr " + u64(run.addr) + "/" +
                  u64(run.insns) + " insns, expected " + u64(addr) + "/" +
                  u64(info.insns));
    }
    if (run.ends_in_branch != cfg::ends_in_branch(info.kind)) {
      report.fail("event " + u64(event) + " (" + block_ref(image, cur) +
                  "): stream branch flag disagrees with block kind");
    }
    if (run.has_next != has_next ||
        (valid_next && run.next_addr != layout.addr(next))) {
      report.fail("event " + u64(event) + " (" + block_ref(image, cur) +
                  "): stream lookahead disagrees with the trace");
    }
    if (valid_next && run.taken != taken) {
      report.fail("event " + u64(event) + " (" + block_ref(image, cur) +
                  "): stream taken=" + (run.taken ? "1" : "0") +
                  ", first-principles taken=" + (taken ? "1" : "0"));
    }

    // FetchPipe must deliver the same block as individual instructions at
    // consecutive addresses.
    for (std::uint32_t k = 0; k < info.insns; ++k) {
      sim::FetchPipe::Insn insn;
      if (!pipe.peek(0, insn)) {
        report.fail("pipe ended inside event " + u64(event) + " (" +
                    block_ref(image, cur) + ") at instruction " + u64(k));
        return report;
      }
      const bool last = k + 1 == info.insns;
      const std::uint64_t want = addr + std::uint64_t{k} * cfg::kInsnBytes;
      if (insn.addr != want || insn.block_end != last ||
          insn.is_branch != (last && cfg::ends_in_branch(info.kind)) ||
          insn.taken != (last && taken)) {
        report.fail("event " + u64(event) + " (" + block_ref(image, cur) +
                    ") instruction " + u64(k) + ": pipe yields addr " +
                    u64(insn.addr) + ", expected " + u64(want) +
                    " (or flag mismatch)");
      }
      pipe.consume(1);
      ++insns_seen;
      if (report.total_found() >= kGiveUpAfter) return report;
    }

    ++event;
    cur = next;
  }

  trace::BlockRun extra;
  if (stream.next(extra)) {
    report.fail("stream yields runs past the " + u64(trace.num_events()) +
                " trace events");
  }
  if (!pipe.done()) {
    report.fail("pipe still has instructions after the trace ended");
  }
  if (event != trace.num_events()) {
    report.fail("replayed " + u64(event) + " events, trace records " +
                u64(trace.num_events()));
  }
  if (insns_seen != trace_instructions(trace, image)) {
    report.fail("replayed " + u64(insns_seen) + " instructions, trace holds " +
                u64(trace_instructions(trace, image)));
  }
  return report;
}

Report check_replicated_replay(const trace::BlockTrace& original_trace,
                               const trace::BlockTrace& transformed,
                               const cfg::ProgramImage& original,
                               const cfg::ProgramImage& extended,
                               const std::vector<BlockId>& origin_blocks) {
  Report report;
  if (origin_blocks.size() != extended.num_blocks()) {
    report.fail("origin map does not cover the extended image");
    return report;
  }
  if (original_trace.num_events() != transformed.num_events()) {
    report.fail("transform changed the event count: " +
                u64(original_trace.num_events()) + " -> " +
                u64(transformed.num_events()));
    return report;
  }
  trace::BlockTrace::Cursor orig(original_trace);
  trace::BlockTrace::Cursor repl(transformed);
  std::uint64_t event = 0;
  while (!orig.done()) {
    const BlockId o = orig.next();
    const BlockId t = repl.next();
    if (t >= extended.num_blocks()) {
      report.fail("event " + u64(event) +
                  ": transformed trace names out-of-range block #" + u64(t));
      return report;
    }
    if (origin_blocks[t] != o) {
      report.fail("event " + u64(event) + ": transformed " +
                  block_ref(extended, t) + " projects to origin #" +
                  u64(origin_blocks[t]) + ", original trace executed " +
                  block_ref(original, o));
      if (report.total_found() >= kGiveUpAfter) return report;
    }
    ++event;
  }
  return report;
}

// ---- Invariant class 3: simulator + occupancy invariants -----------------

Report check_cfa_occupancy(const cfg::ProgramImage& image,
                           const cfg::AddressMap& layout,
                           const core::MappingProvenance& provenance) {
  Report report;
  if (provenance.empty()) return report;  // no CFA contract
  if (provenance.pass_of.size() != image.num_blocks() ||
      layout.size() != image.num_blocks()) {
    report.fail("provenance/layout do not cover the image");
    return report;
  }
  const std::uint64_t cache = provenance.cache_bytes;
  const std::uint64_t cfa = provenance.cfa_bytes;
  if (cache == 0) {
    report.fail("provenance has cache_bytes == 0");
    return report;
  }
  if (cfa == 0) return report;  // no reservation: occupancy is trivial

  for (BlockId b = 0; b < image.num_blocks(); ++b) {
    if (!layout.assigned(b)) continue;  // structure check reports this
    const std::uint32_t pass = provenance.pass_of[b];
    const std::uint64_t addr = layout.addr(b);
    const std::uint64_t bytes = image.block(b).bytes();
    if (pass == 0) {
      // Figure 4: first-pass sequences own [0, cfa) of region 0.
      if (addr + bytes > cfa) {
        report.fail("pass-0 " + block_ref(image, b) + " [" + u64(addr) + ", " +
                    u64(addr + bytes) + ") leaves the CFA budget [0, " +
                    u64(cfa) + ")");
      }
    } else if (pass != core::MappingProvenance::kColdPass) {
      // Later passes must keep every region's CFA window free.
      const std::uint64_t offset = addr % cache;
      if (offset < cfa) {
        report.fail("pass-" + u64(pass) + " " + block_ref(image, b) +
                    " starts at region offset " + u64(offset) +
                    ", inside the reserved CFA window [0, " + u64(cfa) + ")");
      } else if (bytes > cache - offset) {
        // Straddles into the next region's reserved window.
        if (bytes <= cache - cfa) {
          report.fail("pass-" + u64(pass) + " " + block_ref(image, b) +
                      " (" + u64(bytes) + " bytes at region offset " +
                      u64(offset) + ") straddles into the next CFA window");
        } else if (offset != cfa) {
          report.fail("oversized pass-" + u64(pass) + " " +
                      block_ref(image, b) + " (" + u64(bytes) +
                      " bytes) does not start at a window boundary");
        }
      }
    }
    if (report.total_found() >= kGiveUpAfter) break;
  }
  return report;
}

Report check_tenant_partition(const cfg::ProgramImage& image,
                              const cfg::AddressMap& layout,
                              const core::MappingProvenance& provenance) {
  Report report;
  if (provenance.empty() || !provenance.partitioned()) return report;
  if (provenance.pass_of.size() != image.num_blocks() ||
      provenance.tenant_of.size() != image.num_blocks() ||
      layout.size() != image.num_blocks()) {
    report.fail("partitioned provenance/layout do not cover the image");
    return report;
  }
  const std::uint64_t cfa = provenance.cfa_bytes;
  const std::uint32_t groups = provenance.num_tenant_regions;
  if (cfa < groups) {
    report.fail("partitioned provenance has cfa_bytes " + u64(cfa) +
                " < num_tenant_regions " + u64(groups));
    return report;
  }
  // Window boundaries: groups+1 ascending offsets tiling [0, cfa).
  const auto& starts = provenance.tenant_region_start;
  if (starts.size() != std::size_t{groups} + 1 || starts.front() != 0 ||
      starts.back() != cfa) {
    report.fail("partitioned provenance has " + u64(starts.size()) +
                " region boundaries for " + u64(groups) +
                " regions (expected " + u64(groups + 1) +
                " offsets from 0 to cfa_bytes)");
    return report;
  }
  for (std::uint32_t g = 0; g < groups; ++g) {
    if (starts[g] >= starts[g + 1]) {
      report.fail("tenant region " + u64(g) + " is empty or reversed: [" +
                  u64(starts[g]) + ", " + u64(starts[g + 1]) + ")");
      return report;
    }
  }

  for (BlockId b = 0; b < image.num_blocks(); ++b) {
    if (!layout.assigned(b)) continue;  // structure check reports this
    const bool pass0 = provenance.pass_of[b] == 0;
    const std::uint32_t tenant = provenance.tenant_of[b];
    if (!pass0) {
      if (tenant != core::MappingProvenance::kNoTenant) {
        report.fail(block_ref(image, b) + " carries tenant " + u64(tenant) +
                    " but was not placed by a tenant's first pass");
      }
      continue;
    }
    if (tenant >= groups) {
      report.fail("pass-0 " + block_ref(image, b) + " has tenant id " +
                  u64(tenant) + ", expected [0, " + u64(groups) + ")");
      continue;
    }
    const std::uint64_t lo = starts[tenant];
    const std::uint64_t hi = starts[tenant + 1];
    const std::uint64_t addr = layout.addr(b);
    const std::uint64_t bytes = image.block(b).bytes();
    if (addr < lo || addr + bytes > hi) {
      report.fail("tenant-" + u64(tenant) + " pass-0 " + block_ref(image, b) +
                  " [" + u64(addr) + ", " + u64(addr + bytes) +
                  ") leaves its CFA sub-window [" + u64(lo) + ", " + u64(hi) +
                  ")");
    }
    if (report.total_found() >= kGiveUpAfter) break;
  }
  return report;
}

Report check_missrate_result(const sim::MissRateResult& result,
                             const sim::CacheStats& stats,
                             std::uint64_t expected_instructions) {
  Report report;
  if (result.instructions != expected_instructions) {
    report.fail("miss-rate run executed " + u64(result.instructions) +
                " instructions, trace holds " + u64(expected_instructions));
  }
  if (result.line_accesses != stats.accesses) {
    report.fail("driver counted " + u64(result.line_accesses) +
                " line accesses, cache counted " + u64(stats.accesses));
  }
  if (result.misses != stats.misses) {
    report.fail("driver counted " + u64(result.misses) +
                " misses, cache counted " + u64(stats.misses));
  }
  if (stats.misses + stats.victim_hits > stats.accesses) {
    report.fail("cache counters inconsistent: misses " + u64(stats.misses) +
                " + victim hits " + u64(stats.victim_hits) + " > accesses " +
                u64(stats.accesses));
  }
  return report;
}

Report check_fetch_result(const sim::FetchResult& result,
                          const sim::FetchParams& params,
                          std::uint64_t expected_instructions,
                          bool with_trace_cache) {
  Report report;
  if (result.instructions != expected_instructions) {
    report.fail("fetch run supplied " + u64(result.instructions) +
                " instructions, trace holds " + u64(expected_instructions));
  }
  if (result.instructions >
      std::uint64_t{params.width} * result.fetch_requests) {
    report.fail("supplied " + u64(result.instructions) +
                " instructions in " + u64(result.fetch_requests) +
                " requests of width " + u64(params.width));
  }
  const std::uint64_t penalty_units =
      params.penalty_per_line ? result.lines_missed : result.miss_requests;
  const std::uint64_t expect_cycles =
      result.fetch_requests +
      std::uint64_t{params.miss_penalty} * penalty_units;
  if (result.cycles != expect_cycles) {
    report.fail("cycle identity broken: " + u64(result.cycles) +
                " cycles, expected requests " + u64(result.fetch_requests) +
                " + penalty " + u64(params.miss_penalty) + " x " +
                u64(penalty_units));
  }
  if (result.miss_requests > result.fetch_requests) {
    report.fail("more missing requests (" + u64(result.miss_requests) +
                ") than requests (" + u64(result.fetch_requests) + ")");
  }
  if (result.lines_missed < result.miss_requests ||
      result.lines_missed > 2 * result.miss_requests) {
    report.fail("lines_missed " + u64(result.lines_missed) +
                " outside [miss_requests, 2 x miss_requests] = [" +
                u64(result.miss_requests) + ", " +
                u64(2 * result.miss_requests) + "]");
  }
  if (params.perfect_icache &&
      (result.miss_requests != 0 || result.lines_missed != 0)) {
    report.fail("perfect i-cache run reports misses");
  }
  if (with_trace_cache) {
    if (result.tc_hits + result.tc_misses != result.fetch_requests) {
      report.fail("tc_hits " + u64(result.tc_hits) + " + tc_misses " +
                  u64(result.tc_misses) + " != fetch_requests " +
                  u64(result.fetch_requests));
    }
    if (result.tc_probes != result.tc_hits + result.tc_misses) {
      report.fail("trace cache probed " + u64(result.tc_probes) +
                  " times for " + u64(result.tc_hits + result.tc_misses) +
                  " recorded outcomes");
    }
    if (result.tc_fills > result.tc_probes) {
      report.fail("trace cache filled " + u64(result.tc_fills) +
                  " entries on only " + u64(result.tc_probes) + " probes");
    }
    if (result.tc_fills > result.tc_misses) {
      report.fail("trace cache filled " + u64(result.tc_fills) +
                  " entries from only " + u64(result.tc_misses) + " misses");
    }
  } else if (result.tc_hits != 0 || result.tc_misses != 0 ||
             result.tc_fills != 0 || result.tc_probes != 0) {
    report.fail("SEQ.3-only run reports trace-cache activity");
  }
  return report;
}

Report check_frontend_result(const frontend::FrontEndResult& result,
                             const sim::FetchParams& params,
                             const frontend::FrontEndParams& fe_params,
                             std::uint64_t expected_instructions,
                             bool with_trace_cache) {
  Report report;
  const sim::FetchResult& fetch = result.fetch;
  const frontend::FrontEndStats& fe = result.frontend;

  // Baseline cycle identity plus the two front-end stall terms. (The
  // instruction-count, width, miss-bound and trace-cache identities are
  // checked by the check_fetch_result merge below.)
  const std::uint64_t penalty_units =
      params.penalty_per_line ? fetch.lines_missed : fetch.miss_requests;
  const std::uint64_t expect_cycles =
      fetch.fetch_requests +
      std::uint64_t{params.miss_penalty} * penalty_units +
      fe.bp_bubble_cycles + fe.prefetch_late_cycles;
  if (fetch.cycles != expect_cycles) {
    report.fail("front-end cycle identity broken: " + u64(fetch.cycles) +
                " cycles, expected requests " + u64(fetch.fetch_requests) +
                " + penalty " + u64(params.miss_penalty) + " x " +
                u64(penalty_units) + " + bubbles " +
                u64(fe.bp_bubble_cycles) + " + late " +
                u64(fe.prefetch_late_cycles));
  }
  if (fe.bp_bubble_cycles !=
      fe.bp_mispredicts * std::uint64_t{fe_params.mispredict_penalty}) {
    report.fail("bubble cycles " + u64(fe.bp_bubble_cycles) + " != " +
                u64(fe.bp_mispredicts) + " mispredicts x penalty " +
                u64(fe_params.mispredict_penalty));
  }
  if (fe.bp_mispredicts > fe.bp_lookups) {
    report.fail("more mispredicts (" + u64(fe.bp_mispredicts) +
                ") than lookups (" + u64(fe.bp_lookups) + ")");
  }
  if (fe.btb_lookups > fe.bp_lookups) {
    report.fail("more BTB lookups (" + u64(fe.btb_lookups) +
                ") than resolved transfers (" + u64(fe.bp_lookups) + ")");
  }
  if (fe.btb_misses > fe.btb_lookups) {
    report.fail("more BTB misses (" + u64(fe.btb_misses) +
                ") than BTB lookups (" + u64(fe.btb_lookups) + ")");
  }
  if (fe.ras_pops > fe.bp_lookups) {
    report.fail("more RAS pops (" + u64(fe.ras_pops) +
                ") than resolved transfers (" + u64(fe.bp_lookups) + ")");
  }
  if (fe.prefetch_useful + fe.prefetch_late + fe.prefetch_evicted >
      fe.prefetch_issued) {
    report.fail("prefetch outcomes useful " + u64(fe.prefetch_useful) +
                " + late " + u64(fe.prefetch_late) + " + evicted " +
                u64(fe.prefetch_evicted) + " exceed issued " +
                u64(fe.prefetch_issued));
  }
  if (fe.prefetch_late == 0 && fe.prefetch_late_cycles != 0) {
    report.fail("late-prefetch stall cycles without late prefetches");
  }
  if (fe_params.kind == frontend::BpredKind::kPerfect &&
      (fe.bp_lookups != 0 || fe.bp_mispredicts != 0 ||
       fe.bp_bubble_cycles != 0)) {
    report.fail("perfect predictor reports prediction activity");
  }
  if ((!fe_params.prefetch || params.perfect_icache) &&
      (fe.prefetch_issued != 0 || fe.prefetch_useful != 0 ||
       fe.prefetch_late != 0 || fe.prefetch_evicted != 0 ||
       fe.prefetch_late_cycles != 0)) {
    report.fail("prefetch counters nonzero with prefetching disabled");
  }

  // The baseline per-request miss bounds and trace-cache identities carry
  // over unchanged; reuse them on a copy whose stall cycles are deducted so
  // the baseline cycle identity applies.
  sim::FetchResult base = fetch;
  base.cycles -= fe.bp_bubble_cycles + fe.prefetch_late_cycles;
  report.merge(check_fetch_result(base, params, expected_instructions,
                                  with_trace_cache),
               "frontend/base");
  return report;
}

Report check_backend_result(const backend::BackendResult& result,
                            const sim::FetchParams& params,
                            const frontend::FrontEndParams& fe_params,
                            const backend::BackendParams& backend_params,
                            std::uint64_t expected_instructions) {
  Report report;
  const sim::FetchResult& fetch = result.fetch;
  const frontend::FrontEndStats& fe = result.frontend;
  const backend::BackendStats& be = result.backend;
  if (backend_params.off()) {
    report.fail("backend result produced with STC_BACKEND=off");
    return report;
  }

  // Conservation: everything fetched is retired, in ops and instructions.
  if (fetch.instructions != expected_instructions) {
    report.fail("backend fetched " + u64(fetch.instructions) +
                " instructions, trace executes " +
                u64(expected_instructions));
  }
  if (be.retired_insns != fetch.instructions) {
    report.fail("backend retired " + u64(be.retired_insns) +
                " instructions, fetch supplied " + u64(fetch.instructions));
  }
  if (be.retired_ops != be.dispatched_ops ||
      be.retired_ops != be.issued_ops) {
    report.fail("backend did not drain: retired " + u64(be.retired_ops) +
                ", dispatched " + u64(be.dispatched_ops) + ", issued " +
                u64(be.issued_ops) + " ops");
  }
  if (be.retired_ops > be.retired_insns) {
    report.fail("more retired ops (" + u64(be.retired_ops) +
                ") than instructions (" + u64(be.retired_insns) +
                "): some op covered an empty block");
  }
  if (expected_instructions > 0 && be.retired_ops == 0) {
    report.fail("a nonempty trace retired zero ops");
  }

  // One clock: fetch and the back end count the same cycles, and neither
  // fetch requests nor commits can outrun their per-cycle bounds.
  if (fetch.cycles != be.cycles) {
    report.fail("clock split: fetch counts " + u64(fetch.cycles) +
                " cycles, backend " + u64(be.cycles));
  }
  if (fetch.fetch_requests > be.cycles) {
    report.fail("more fetch requests (" + u64(fetch.fetch_requests) +
                ") than cycles (" + u64(be.cycles) + ")");
  }
  if (be.retired_ops >
      be.cycles * std::uint64_t{backend_params.commit_width}) {
    report.fail("retired " + u64(be.retired_ops) + " ops in " +
                u64(be.cycles) + " cycles exceeds commit width " +
                u64(backend_params.commit_width));
  }
  if (be.issued_ops > be.cycles * std::uint64_t{backend_params.issue_width}) {
    report.fail("issued " + u64(be.issued_ops) + " ops in " + u64(be.cycles) +
                " cycles exceeds issue width " +
                u64(backend_params.issue_width));
  }

  // Bounded structures: high-water marks and per-cycle occupancy sums.
  if (be.iq_peak > backend_params.iq_depth) {
    report.fail("IQ peak " + u64(be.iq_peak) + " exceeds depth " +
                u64(backend_params.iq_depth));
  }
  if (be.rob_peak > backend_params.rob_depth) {
    report.fail("ROB peak " + u64(be.rob_peak) + " exceeds depth " +
                u64(backend_params.rob_depth));
  }
  if (be.iq_occupancy_sum >
      be.cycles * std::uint64_t{backend_params.iq_depth}) {
    report.fail("IQ occupancy sum " + u64(be.iq_occupancy_sum) +
                " exceeds depth x cycles");
  }
  if (be.rob_occupancy_sum >
      be.cycles * std::uint64_t{backend_params.rob_depth}) {
    report.fail("ROB occupancy sum " + u64(be.rob_occupancy_sum) +
                " exceeds depth x cycles");
  }
  for (const auto& [name, value] :
       {std::pair<const char*, std::uint64_t>{"frontend_stalls",
                                              be.frontend_stall_cycles},
        {"issue_stalls", be.issue_stall_cycles},
        {"empty_cycles", be.empty_cycles}}) {
    if (value > be.cycles) {
      report.fail(std::string(name) + " " + u64(value) + " exceed cycles " +
                  u64(be.cycles));
    }
  }

  // Front-end predictor bounds that survive the unified clock (the serial
  // front-end cycle identity does not apply here).
  if (fe.bp_bubble_cycles !=
      fe.bp_mispredicts * std::uint64_t{fe_params.mispredict_penalty}) {
    report.fail("bubble cycles " + u64(fe.bp_bubble_cycles) + " != " +
                u64(fe.bp_mispredicts) + " mispredicts x penalty " +
                u64(fe_params.mispredict_penalty));
  }
  if (fe.bp_mispredicts > fe.bp_lookups) {
    report.fail("more mispredicts (" + u64(fe.bp_mispredicts) +
                ") than lookups (" + u64(fe.bp_lookups) + ")");
  }
  if (fe_params.kind == frontend::BpredKind::kPerfect &&
      (fe.bp_lookups != 0 || fe.bp_mispredicts != 0 ||
       fe.bp_bubble_cycles != 0)) {
    report.fail("perfect predictor reports prediction activity");
  }
  if (params.perfect_icache &&
      (fetch.miss_requests != 0 || fetch.lines_missed != 0)) {
    report.fail("perfect icache reports misses");
  }
  return report;
}

Report check_simulators(const trace::BlockTrace& trace,
                        const cfg::ProgramImage& image,
                        const cfg::AddressMap& layout,
                        const sim::CacheGeometry& geometry) {
  Report report;
  const std::uint64_t expected = trace_instructions(trace, image);
  Result<sim::ReplayPlan> built =
      sim::build_replay_plan(sim::ReplayMode::kCompiled, trace, image, layout,
                             geometry.line_bytes);
  if (!built.is_ok()) {
    report.fail("plan build failed: " + built.status().to_string());
    return report;
  }
  const sim::ReplayPlan& plan = built.value();

  // Independent recount of line probes: consecutive instructions on one line
  // probe once; a re-entered line probes again (the Section 7.1 semantics).
  std::uint64_t expect_line_accesses = 0;
  {
    const std::uint32_t line = geometry.line_bytes;
    std::uint64_t prev_line = ~std::uint64_t{0};
    trace::BlockTrace::Cursor cursor(trace);
    while (!cursor.done()) {
      const BlockId b = cursor.next();
      if (b >= image.num_blocks() || !layout.assigned(b)) continue;
      const std::uint64_t addr = layout.addr(b);
      const std::uint64_t first = addr / line;
      const std::uint64_t last =
          (addr + image.block(b).bytes() - 1) / line;
      for (std::uint64_t l = first; l <= last; ++l) {
        if (l == prev_line) continue;
        ++expect_line_accesses;
        prev_line = l;
      }
    }
  }

  // Miss-rate simulator, recounted through the observer hook.
  {
    sim::ICache cache(geometry);
    std::uint64_t obs_accesses = 0;
    std::uint64_t obs_misses = 0;
    std::uint64_t obs_misaligned = 0;
    cache.set_observer([&](std::uint64_t line_addr, bool hit) {
      ++obs_accesses;
      if (!hit) ++obs_misses;
      if (line_addr % geometry.line_bytes != 0) ++obs_misaligned;
    });
    const sim::MissRateResult result = sim::replay_missrate(plan, cache);
    report.merge(check_missrate_result(result, cache.stats(), expected),
                 "missrate");
    if (result.line_accesses != expect_line_accesses) {
      report.fail("missrate: driver probed " + u64(result.line_accesses) +
                  " lines, independent recount expects " +
                  u64(expect_line_accesses));
    }
    if (obs_accesses != cache.stats().accesses ||
        obs_misses != cache.stats().misses) {
      report.fail("missrate: observer saw " + u64(obs_accesses) +
                  " accesses / " + u64(obs_misses) +
                  " misses, stats record " + u64(cache.stats().accesses) +
                  " / " + u64(cache.stats().misses));
    }
    if (obs_misaligned != 0) {
      report.fail("missrate: " + u64(obs_misaligned) +
                  " observed probe addresses were not line-aligned");
    }
  }

  // SEQ.3 fetch unit; its lines_missed must equal the cache's miss count.
  {
    sim::ICache cache(geometry);
    const sim::FetchParams params;
    const sim::FetchResult result = sim::run_seq3(plan, params, &cache);
    report.merge(check_fetch_result(result, params, expected, false), "seq3");
    if (result.lines_missed != cache.stats().misses) {
      report.fail("seq3: driver counted " + u64(result.lines_missed) +
                  " missed lines, cache counted " +
                  u64(cache.stats().misses));
    }
    if (cache.stats().accesses < result.fetch_requests ||
        cache.stats().accesses > 2 * result.fetch_requests) {
      report.fail("seq3: " + u64(cache.stats().accesses) +
                  " cache probes for " + u64(result.fetch_requests) +
                  " fetch requests (must be 1-2 per request)");
    }
  }

  // Trace cache in front of SEQ.3.
  {
    sim::ICache cache(geometry);
    const sim::FetchParams params;
    const sim::TraceCacheParams tc_params;
    const sim::FetchResult result =
        sim::run_trace_cache(plan, params, tc_params, &cache);
    report.merge(check_fetch_result(result, params, expected, true), "tc");
  }
  return report;
}

// ---- Umbrella ------------------------------------------------------------

Report verify_layout(const trace::BlockTrace& trace,
                     const cfg::ProgramImage& image,
                     const cfg::AddressMap& layout,
                     const core::MappingProvenance* provenance,
                     const OracleOptions& options) {
  Report report;
  if (options.structure) {
    report.merge(check_structure(image, layout), layout.name());
  }
  if (!report.ok()) {
    // Replay and simulation assume a structurally sound map; running them on
    // a broken one would only add noise after the real finding.
    return report;
  }
  if (provenance != nullptr) {
    report.merge(check_cfa_occupancy(image, layout, *provenance),
                 layout.name());
    report.merge(check_tenant_partition(image, layout, *provenance),
                 layout.name());
  }
  if (options.replay) {
    report.merge(check_replay(trace, image, layout), layout.name());
  }
  if (options.simulators) {
    report.merge(check_simulators(trace, image, layout, options.geometry),
                 layout.name());
  }
  return report;
}

Report check_counters_equal(const CounterSet& expected,
                            const CounterSet& actual, std::string_view what) {
  Report report;
  const auto& e = expected.items();
  const auto& a = actual.items();
  if (e.size() != a.size()) {
    report.fail(std::string(what) + ": " + u64(a.size()) +
                " counters (expected " + u64(e.size()) + ")");
    return report;
  }
  for (std::size_t i = 0; i < e.size(); ++i) {
    if (e[i].first != a[i].first) {
      report.fail(std::string(what) + ": counter #" + u64(i) + " is '" +
                  a[i].first + "' (expected '" + e[i].first + "')");
      continue;
    }
    if (e[i].second != a[i].second) {
      report.fail(std::string(what) + ": " + e[i].first + " = " +
                  u64(a[i].second) + " (expected " + u64(e[i].second) + ")");
    }
  }
  return report;
}

namespace {

// A realistic speculative front end (gshare + FDIP) so the differential
// covers predictor/BTB/RAS cycle counts, not just the Table 3/4 baselines.
frontend::FrontEndParams replay_diff_frontend() {
  frontend::FrontEndParams fe;
  fe.kind = frontend::BpredKind::kGshare;
  fe.table_bits = 8;
  fe.prefetch = true;
  fe.ftq_depth = 8;
  return fe;
}

// "addr plan 64, stream 80" for the first BlockRun field that differs, or
// empty when the two runs agree field for field.
std::string run_difference(const trace::BlockRun& got,
                           const trace::BlockRun& want) {
  const auto field = [](const char* name, std::uint64_t g, std::uint64_t w) {
    return std::string(name) + " plan " + u64(g) + ", stream " + u64(w);
  };
  if (got.addr != want.addr) return field("addr", got.addr, want.addr);
  if (got.insns != want.insns) return field("insns", got.insns, want.insns);
  if (got.ends_in_branch != want.ends_in_branch) {
    return field("ends_in_branch", got.ends_in_branch, want.ends_in_branch);
  }
  if (got.kind != want.kind) {
    return field("kind", static_cast<std::uint64_t>(got.kind),
                 static_cast<std::uint64_t>(want.kind));
  }
  if (got.has_next != want.has_next) {
    return field("has_next", got.has_next, want.has_next);
  }
  if (got.next_addr != want.next_addr) {
    return field("next_addr", got.next_addr, want.next_addr);
  }
  if (got.taken != want.taken) return field("taken", got.taken, want.taken);
  return {};
}

}  // namespace

backend::BackendParams replay_diff_backend() {
  backend::BackendParams bp;
  bp.kind = backend::BackendKind::kOoo;
  bp.iq_depth = 8;
  bp.rob_depth = 24;
  bp.fetch_buffer_ops = 12;
  return bp;
}

Report check_plan_feed(const trace::BlockTrace& trace,
                       const cfg::ProgramImage& image,
                       const cfg::AddressMap& layout,
                       const sim::ReplayPlan& plan,
                       const sim::BackendSpec& backend) {
  Report report;
  if (plan.num_events() != trace.num_events()) {
    report.fail("plan feeds " + u64(plan.num_events()) +
                " events, trace records " + u64(trace.num_events()));
    return report;
  }
  trace::BlockRunStream stream(trace, image, layout);
  trace::BlockRun want;
  trace::BlockRun got;
  for (std::uint64_t i = 0; stream.next(want); ++i) {
    plan.make_run(i, got);
    const std::string diff = run_difference(got, want);
    if (!diff.empty()) {
      report.fail("plan feed diverges at event " + u64(i) + " (" +
                  block_ref(image, plan.slab()[i]) + "): " + diff);
      return report;
    }
  }

  const sim::BackendTable& table = plan.backend();
  if (table.valid() != backend.enabled) {
    report.fail(std::string("plan ") +
                (table.valid() ? "carries" : "lacks") +
                " back-end tables, the caller expects " +
                (backend.enabled ? "them" : "none"));
    return report;
  }
  if (!table.valid()) return report;
  std::vector<bool> seen(image.num_blocks(), false);
  for (std::size_t i = 0; i < plan.slab().size(); ++i) {
    const BlockId b = plan.slab()[i];
    if (seen[b]) continue;
    seen[b] = true;
    const cfg::BlockInfo& info = image.block(b);
    const std::uint32_t latency =
        sim::backend_op_latency(backend, info.insns, info.kind);
    std::uint8_t dest = 0;
    std::uint8_t src1 = 0;
    std::uint8_t src2 = 0;
    sim::backend_op_regs(layout.addr(b), info.insns, &dest, &src1, &src2);
    if (table.latency(b) != latency || table.dest(b) != dest ||
        table.src1(b) != src1 || table.src2(b) != src2) {
      report.fail("back-end table for " + block_ref(image, b) +
                  ": latency/dest/src1/src2 " + u64(table.latency(b)) + "/" +
                  u64(table.dest(b)) + "/" + u64(table.src1(b)) + "/" +
                  u64(table.src2(b)) + ", spec gives " + u64(latency) + "/" +
                  u64(dest) + "/" + u64(src1) + "/" + u64(src2));
      if (report.total_found() >= kGiveUpAfter) return report;
    }
  }
  return report;
}

Report check_replay_modes(const trace::BlockTrace& trace,
                          const cfg::ProgramImage& image,
                          const cfg::AddressMap& layout,
                          const sim::CacheGeometry& geometry,
                          const backend::BackendParams* backend_params) {
  Report report;
  const sim::FetchParams fparams;
  const sim::TraceCacheParams tc_params;
  const frontend::FrontEndParams fe = replay_diff_frontend();
  const backend::BackendParams bp =
      backend_params != nullptr ? *backend_params : replay_diff_backend();

  Result<sim::ReplayPlan> built =
      sim::build_replay_plan(sim::ReplayMode::kCompiled, trace, image, layout,
                             geometry.line_bytes, bp.spec());
  if (!built.is_ok()) {
    report.fail("plan build failed: " + built.status().to_string());
    return report;
  }
  const sim::ReplayPlan& plan = built.value();

  // The two span kernels against their per-event references.
  {
    CounterSet want;
    CounterSet got;
    std::vector<std::uint64_t> want_per_block;
    std::vector<std::uint64_t> got_per_block;
    sim::ICache ref_cache(geometry);
    reference_missrate(trace, image, layout, ref_cache, &want_per_block)
        .export_counters(want);
    ref_cache.stats().export_counters(want);
    sim::ICache cache(geometry);
    sim::replay_missrate(plan, cache, &got_per_block).export_counters(got);
    cache.stats().export_counters(got);
    report.merge(check_counters_equal(want, got, "missrate"));
    if (got_per_block != want_per_block) {
      std::size_t where = 0;
      while (where < want_per_block.size() && where < got_per_block.size() &&
             want_per_block[where] == got_per_block[where]) {
        ++where;
      }
      report.fail("missrate: per-block miss attribution diverges at " +
                  block_ref(image, static_cast<BlockId>(where)));
    }
  }
  {
    CounterSet want;
    CounterSet got;
    reference_sequentiality(trace, image, layout).export_counters(want);
    sim::replay_sequentiality(plan).export_counters(got);
    report.merge(check_counters_equal(want, got, "sequentiality"));
  }

  // The fetch family reads nothing but the feed and the back-end tables,
  // so an equal feed proves their counters equal to a per-event walk's.
  report.merge(check_plan_feed(trace, image, layout, plan, bp.spec()),
               "feed");

  // Each fetch-family simulator once on the plan, through its identities.
  const std::uint64_t expected = trace_instructions(trace, image);
  {
    sim::ICache cache(geometry);
    report.merge(check_fetch_result(sim::run_seq3(plan, fparams, &cache),
                                    fparams, expected, false),
                 "seq3");
  }
  {
    sim::ICache cache(geometry);
    report.merge(
        check_fetch_result(
            sim::run_trace_cache(plan, fparams, tc_params, &cache), fparams,
            expected, true),
        "trace_cache");
  }
  {
    sim::ICache cache(geometry);
    report.merge(
        check_frontend_result(
            frontend::run_seq3_frontend(plan, fparams, fe, &cache), fparams,
            fe, expected, false),
        "seq3+frontend");
  }
  {
    sim::ICache cache(geometry);
    report.merge(check_frontend_result(
                     frontend::run_trace_cache_frontend(plan, fparams,
                                                        tc_params, fe, &cache),
                     fparams, fe, expected, true),
                 "trace_cache+frontend");
  }
  {
    sim::ICache cache(geometry);
    const Result<backend::BackendResult> r =
        backend::run_seq3_backend(plan, fparams, fe, bp, &cache);
    if (!r.is_ok()) {
      report.fail("backend: " + r.status().to_string());
    } else {
      report.merge(check_backend_result(r.value(), fparams, fe, bp, expected),
                   "backend");
    }
  }
  return report;
}

}  // namespace stc::verify
