// Recording and replay of dynamic basic-block traces.
//
// A workload is executed once per (query set, database) pair while a
// TraceRecorder captures the block stream. Every (layout x cache/fetch
// configuration) evaluation then *replays* the recorded trace, which is how
// the paper evaluates layouts without relinking the binary (Section 7.1).
//
// Storage is chunked, delta-varint coded: consecutive block ids are close
// together (execution is highly sequential), so most events cost 1-2 bytes.
//
// The on-disk format (version 3, see trace_format.h) is hardened against
// corruption: every header field is bounds-checked against the file size,
// each chunk carries a CRC32 and its event count, and every varint is
// decoded with overflow and truncation checks before the trace is accepted.
// A seekable per-chunk index footer (offset, byte length, event count, CRC
// per chunk) lets trace_io.h read one chunk at a time without materializing
// the trace; both readers share format::parse_header/parse_footer/
// check_chunk. load()/deserialize() return a structured error for any
// malformed input — a corrupt cache file can never abort the process or
// replay a silently wrong stream (the `stc_fuzz --trace-bytes` mode flips
// every byte to prove it).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cfg/exec.h"
#include "cfg/types.h"
#include "support/error.h"

namespace stc::trace {

class BlockTrace {
 public:
  std::uint64_t num_events() const { return num_events_; }
  std::uint64_t byte_size() const;
  bool empty() const { return num_events_ == 0; }

  void append(cfg::BlockId block);
  void clear();

  // FNV-1a over the encoded chunks (content identity, not object identity).
  // Memoized; appending invalidates. Used by ReplayPlanCache to key plans by
  // what a trace says rather than where it lives — bench grids rebuild
  // traces at recycled heap addresses.
  std::uint64_t content_hash() const;

  // Invokes fn(block) for every recorded event, in order.
  void for_each(const std::function<void(cfg::BlockId)>& fn) const;

  // Chunk-granular access for slab decoders (src/sim/replay.h). Each chunk
  // restarts its delta base, so chunks decode independently of one another.
  std::size_t num_chunks() const { return chunks_.size(); }
  // Appends chunk `index`'s block ids to `out`; returns the event count.
  std::size_t decode_chunk(std::size_t index,
                           std::vector<cfg::BlockId>& out) const;

  // Binary (de)serialization, for caching workload runs on disk.
  // Format (trace_format.h): magic, version, event count, then per chunk
  // {payload size, event count, crc32, payload}, then the version-3 index
  // footer; all integers little-endian u64. serialize/deserialize work on
  // in-memory buffers (the fuzz harness); save writes atomically (temp file
  // + rename, fault prefix "trace.save"), load reads and validates end to
  // end (fault prefix "trace.load"). Only version 3 is read or written.
  std::vector<std::uint8_t> serialize() const;
  static Result<BlockTrace> deserialize(const std::uint8_t* data,
                                        std::size_t size);
  Status save(const std::string& path) const;
  static Result<BlockTrace> load(const std::string& path);

  // Forward cursor for pull-style consumers (the simulators).
  class Cursor {
   public:
    explicit Cursor(const BlockTrace& trace)
        : trace_(&trace), remaining_(trace.num_events_) {}

    bool done() const { return remaining_ == 0; }
    // Returns the next block id; requires !done().
    cfg::BlockId next();

   private:
    const BlockTrace* trace_;
    std::uint64_t remaining_;
    std::size_t chunk_index_ = 0;
    std::size_t byte_pos_ = 0;
    std::int64_t last_id_ = 0;
  };

 private:
  friend class Cursor;

  std::vector<std::vector<std::uint8_t>> chunks_;
  std::uint64_t num_events_ = 0;
  std::int64_t last_id_ = 0;  // encoder state (delta base)
  mutable std::uint64_t content_hash_ = 0;  // 0 = not yet computed
};

// TraceSink adapter that appends every event to a BlockTrace.
class TraceRecorder final : public cfg::TraceSink {
 public:
  explicit TraceRecorder(BlockTrace& trace) : trace_(trace) {}
  void on_block(cfg::BlockId block) override { trace_.append(block); }

 private:
  BlockTrace& trace_;
};

}  // namespace stc::trace
