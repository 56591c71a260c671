// On-disk layout of the BlockTrace binary format, shared by the in-memory
// (de)serializer (block_trace.cpp) and the streaming reader/writer
// (trace_io.cpp). All integers are little-endian u64.
//
//   header   : magic, version (3), num_events, num_chunks
//   chunk i  : {payload_bytes, events, crc32} + delta-svarint payload
//   index    : per chunk {payload_offset, payload_bytes, events, crc32}
//   trailer  : index_offset, num_chunks, index_crc32, index_magic
//
// The index entries duplicate the chunk headers (plus the absolute payload
// offset) so a reader can locate any chunk from the footer alone, without
// walking the file. parse_header/parse_footer are the one parser of that
// layout and check_chunk the one per-chunk validator; the in-memory and the
// streaming reader both call them, so they accept and reject the same bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cfg/types.h"
#include "support/error.h"

namespace stc::trace::format {

inline constexpr std::uint64_t kMagic = 0x53544331;       // "STC1"
inline constexpr std::uint64_t kIndexMagic = 0x53544349;  // "STCI"
inline constexpr std::uint64_t kVersion = 3;
inline constexpr std::size_t kHeaderBytes = 4 * 8;
inline constexpr std::size_t kChunkHeaderBytes = 3 * 8;  // size, events, crc32
inline constexpr std::size_t kIndexEntryBytes = 4 * 8;
inline constexpr std::size_t kTrailerBytes = 4 * 8;
// A chunk closes once its payload reaches this size; every chunk restarts
// the delta base so chunks decode independently.
inline constexpr std::size_t kChunkTargetBytes = 1 << 16;

inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

inline std::uint64_t get_u64(const std::uint8_t* data) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data[i]) << (8 * i);
  }
  return v;
}

// Footer size (index entries plus trailer) for `num_chunks` chunks.
inline std::size_t footer_bytes(std::uint64_t num_chunks) {
  return static_cast<std::size_t>(num_chunks) * kIndexEntryBytes +
         kTrailerBytes;
}

// One chunk as its index entry locates it.
struct ChunkEntry {
  std::uint64_t offset = 0;  // absolute file offset of the payload
  std::uint64_t size = 0;    // payload bytes
  std::uint64_t events = 0;
  std::uint64_t crc = 0;
};

// What the header and footer of a validated file say.
struct Layout {
  std::uint64_t num_events = 0;
  std::uint64_t num_chunks = 0;
  // Where the footer starts: file_size - footer_bytes(num_chunks).
  std::uint64_t footer_offset = 0;
  std::vector<ChunkEntry> chunks;  // filled by parse_footer
};

// Validates the header of a `file_size`-byte file: `header` holds its first
// min(file_size, kHeaderBytes) bytes. Checks magic, version and that the
// chunk count and its footer fit in the file. Fires fault point
// "trace.load.header". On success chunks is still empty.
Result<Layout> parse_header(const std::uint8_t* header,
                            std::uint64_t file_size);

// Validates the footer_bytes(layout.num_chunks) bytes at `footer` (read from
// layout.footer_offset) and fills layout.chunks: trailer magic, chunk count
// and offset, index CRC, entries that tile the chunk region exactly, and an
// event total equal to the header's.
Status parse_footer(const std::uint8_t* footer, Layout& layout);

// Validates chunk `index`: `chunk` holds its kChunkHeaderBytes header
// followed by entry.size payload bytes. The header must agree with the index
// entry, then the payload must match its CRC, every varint must decode to an
// in-range block id, and the count must equal entry.events. Appends the ids
// to `out`; on failure `out` is left as it was and the error names the chunk.
Status check_chunk(std::size_t index, const ChunkEntry& entry,
                   const std::uint8_t* chunk, std::vector<cfg::BlockId>& out);

}  // namespace stc::trace::format
