#include "trace/block_trace.h"

#include <string>
#include <utility>
#include <vector>

#include "support/check.h"
#include "support/crc32.h"
#include "support/faultpoint.h"
#include "support/io.h"
#include "support/varint.h"
#include "trace/trace_format.h"

namespace stc::trace {
namespace {

using format::kChunkHeaderBytes;
using format::kChunkTargetBytes;
using format::kHeaderBytes;
using format::kIndexEntryBytes;
using format::kIndexMagic;
using format::kMagic;
using format::kVersion;
using format::put_u64;

}  // namespace

std::uint64_t BlockTrace::byte_size() const {
  std::uint64_t total = 0;
  for (const auto& chunk : chunks_) total += chunk.size();
  return total;
}

void BlockTrace::append(cfg::BlockId block) {
  if (chunks_.empty() || chunks_.back().size() >= kChunkTargetBytes) {
    chunks_.emplace_back();
    chunks_.back().reserve(kChunkTargetBytes + 8);
    last_id_ = 0;  // each chunk restarts the delta base for seekability
  }
  put_svarint(chunks_.back(), static_cast<std::int64_t>(block) - last_id_);
  last_id_ = static_cast<std::int64_t>(block);
  ++num_events_;
  content_hash_ = 0;  // memoized hash is stale
}

void BlockTrace::clear() {
  chunks_.clear();
  num_events_ = 0;
  last_id_ = 0;
  content_hash_ = 0;
}

std::uint64_t BlockTrace::content_hash() const {
  if (content_hash_ != 0) return content_hash_;
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(num_events_);
  for (const std::vector<std::uint8_t>& chunk : chunks_) {
    mix(chunk.size());
    for (const std::uint8_t byte : chunk) {
      h ^= byte;
      h *= 1099511628211ull;
    }
  }
  content_hash_ = (h == 0) ? 1 : h;  // reserve 0 for "not computed"
  return content_hash_;
}

void BlockTrace::for_each(const std::function<void(cfg::BlockId)>& fn) const {
  Cursor cursor(*this);
  while (!cursor.done()) fn(cursor.next());
}

std::size_t BlockTrace::decode_chunk(std::size_t index,
                                     std::vector<cfg::BlockId>& out) const {
  STC_REQUIRE(index < chunks_.size());
  const auto& chunk = chunks_[index];
  std::size_t pos = 0;
  std::int64_t last_id = 0;  // every chunk restarts the delta base
  std::size_t events = 0;
  while (pos < chunk.size()) {
    last_id += get_svarint(chunk.data(), chunk.size(), pos);
    STC_DCHECK(last_id >= 0);
    out.push_back(static_cast<cfg::BlockId>(last_id));
    ++events;
  }
  return events;
}

cfg::BlockId BlockTrace::Cursor::next() {
  STC_REQUIRE(!done());
  while (byte_pos_ >= trace_->chunks_[chunk_index_].size()) {
    ++chunk_index_;
    byte_pos_ = 0;
    last_id_ = 0;
    STC_CHECK(chunk_index_ < trace_->chunks_.size());
  }
  const auto& chunk = trace_->chunks_[chunk_index_];
  const std::int64_t delta =
      get_svarint(chunk.data(), chunk.size(), byte_pos_);
  last_id_ += delta;
  --remaining_;
  STC_DCHECK(last_id_ >= 0);
  return static_cast<cfg::BlockId>(last_id_);
}

std::vector<std::uint8_t> BlockTrace::serialize() const {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + chunks_.size() * kChunkHeaderBytes + byte_size());
  put_u64(out, kMagic);
  put_u64(out, kVersion);
  put_u64(out, num_events_);
  put_u64(out, chunks_.size());
  // Chunk event counts are recomputed from the payload: each chunk restarts
  // its delta base, so the count is the number of varints it holds.
  std::vector<std::uint8_t> index;
  index.reserve(chunks_.size() * kIndexEntryBytes);
  for (const auto& chunk : chunks_) {
    std::size_t pos = 0;
    std::uint64_t events = 0;
    std::int64_t delta = 0;
    while (pos < chunk.size()) {
      const bool ok = try_get_svarint(chunk.data(), chunk.size(), pos, delta);
      STC_CHECK_MSG(ok, "in-memory trace chunk is malformed");
      ++events;
    }
    const std::uint32_t crc = crc32(chunk.data(), chunk.size());
    put_u64(out, chunk.size());
    put_u64(out, events);
    put_u64(out, crc);
    put_u64(index, out.size());  // absolute offset of the payload
    put_u64(index, chunk.size());
    put_u64(index, events);
    put_u64(index, crc);
    out.insert(out.end(), chunk.begin(), chunk.end());
  }
  // Version-3 footer: the index entries, then a fixed trailer that locates
  // and checksums them so a reader can seek from the end of the file.
  const std::uint64_t index_offset = out.size();
  out.insert(out.end(), index.begin(), index.end());
  put_u64(out, index_offset);
  put_u64(out, chunks_.size());
  put_u64(out, crc32(index.data(), index.size()));
  put_u64(out, kIndexMagic);
  return out;
}

Result<BlockTrace> BlockTrace::deserialize(const std::uint8_t* data,
                                           std::size_t size) {
  Result<format::Layout> header = format::parse_header(data, size);
  if (!header.is_ok()) return header.status();
  format::Layout layout = std::move(header).take();
  if (Status s = format::parse_footer(data + layout.footer_offset, layout);
      !s.is_ok()) {
    return s;
  }
  BlockTrace trace;
  trace.num_events_ = layout.num_events;
  trace.chunks_.reserve(layout.chunks.size());
  std::vector<cfg::BlockId> ids;
  for (std::size_t i = 0; i < layout.chunks.size(); ++i) {
    if (Status s = fault::fail_if("trace.load.chunk",
                                  "reading chunk " + std::to_string(i));
        !s.is_ok()) {
      return s;
    }
    const format::ChunkEntry& entry = layout.chunks[i];
    const std::uint8_t* chunk = data + entry.offset - kChunkHeaderBytes;
    ids.clear();
    if (Status s = format::check_chunk(i, entry, chunk, ids); !s.is_ok()) {
      return s;
    }
    // Appends continue from the last chunk's final id (its delta base).
    trace.last_id_ = ids.empty() ? 0 : ids.back();
    const std::uint8_t* payload = chunk + kChunkHeaderBytes;
    trace.chunks_.emplace_back(payload, payload + entry.size);
  }
  return trace;
}

Status BlockTrace::save(const std::string& path) const {
  const std::vector<std::uint8_t> bytes = serialize();
  Status s = write_file_atomic(path, bytes.data(), bytes.size(), "trace.save");
  return s.is_ok() ? s : s.with_context("trace '" + path + "'");
}

Result<BlockTrace> BlockTrace::load(const std::string& path) {
  const std::string context = "trace '" + path + "'";
  if (Status s = fault::fail_if("trace.load.open", "opening " + path);
      !s.is_ok()) {
    return s.with_context(context);
  }
  Result<std::vector<std::uint8_t>> bytes = read_file(path);
  if (!bytes.is_ok()) return bytes.status().with_context(context);
  return deserialize(bytes.value().data(), bytes.value().size())
      .with_context(context);
}

}  // namespace stc::trace
