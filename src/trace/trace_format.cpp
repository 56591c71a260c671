#include "trace/trace_format.h"

#include <string>

#include "support/crc32.h"
#include "support/faultpoint.h"
#include "support/varint.h"

namespace stc::trace::format {

Result<Layout> parse_header(const std::uint8_t* header,
                            std::uint64_t file_size) {
  if (Status s = fault::fail_if("trace.load.header", "reading header");
      !s.is_ok()) {
    return s;
  }
  if (file_size < kHeaderBytes) {
    return corrupt_data_error("file too small (" + std::to_string(file_size) +
                              " bytes) for a trace header");
  }
  if (get_u64(header) != kMagic) {
    return corrupt_data_error("bad magic (not a trace file)");
  }
  const std::uint64_t version = get_u64(header + 8);
  if (version != kVersion) {
    return corrupt_data_error("unsupported trace version " +
                              std::to_string(version) + " (expected " +
                              std::to_string(kVersion) + ")");
  }
  Layout layout;
  layout.num_events = get_u64(header + 16);
  layout.num_chunks = get_u64(header + 24);
  if (layout.num_chunks > (file_size - kHeaderBytes) / kChunkHeaderBytes) {
    return corrupt_data_error("chunk count " +
                              std::to_string(layout.num_chunks) +
                              " exceeds file size");
  }
  const std::size_t footer = footer_bytes(layout.num_chunks);
  if (file_size < kHeaderBytes + footer) {
    return corrupt_data_error("file too small for a " +
                              std::to_string(layout.num_chunks) +
                              "-chunk index footer");
  }
  layout.footer_offset = file_size - footer;
  return layout;
}

Status parse_footer(const std::uint8_t* footer, Layout& layout) {
  const std::uint64_t num_chunks = layout.num_chunks;
  const std::size_t index_bytes =
      static_cast<std::size_t>(num_chunks) * kIndexEntryBytes;
  const std::uint8_t* trailer = footer + index_bytes;
  if (get_u64(trailer + 24) != kIndexMagic) {
    return corrupt_data_error("bad index footer magic");
  }
  const std::uint64_t index_offset = get_u64(trailer);
  const std::uint64_t stated_chunks = get_u64(trailer + 8);
  const std::uint64_t stated_index_crc = get_u64(trailer + 16);
  if (stated_chunks != num_chunks) {
    return corrupt_data_error("index footer lists " +
                              std::to_string(stated_chunks) +
                              " chunks but header says " +
                              std::to_string(num_chunks));
  }
  if (index_offset != layout.footer_offset) {
    return corrupt_data_error("index footer offset " +
                              std::to_string(index_offset) +
                              " does not match the file layout");
  }
  const std::uint32_t actual_index_crc = crc32(footer, index_bytes);
  if (stated_index_crc > 0xFFFFFFFFull ||
      actual_index_crc != static_cast<std::uint32_t>(stated_index_crc)) {
    return corrupt_data_error(
        "index footer crc mismatch (stored " +
        std::to_string(stated_index_crc) + ", computed " +
        std::to_string(actual_index_crc) + ")");
  }
  // Entries must tile the chunk region exactly: each payload follows its
  // chunk header, which follows the previous payload.
  layout.chunks.clear();
  layout.chunks.reserve(static_cast<std::size_t>(num_chunks));
  std::uint64_t expect_offset = kHeaderBytes + kChunkHeaderBytes;
  std::uint64_t total_events = 0;
  for (std::uint64_t i = 0; i < num_chunks; ++i) {
    const std::uint8_t* raw = footer + i * kIndexEntryBytes;
    ChunkEntry entry;
    entry.offset = get_u64(raw);
    entry.size = get_u64(raw + 8);
    entry.events = get_u64(raw + 16);
    entry.crc = get_u64(raw + 24);
    const std::string where = "chunk " + std::to_string(i);
    if (entry.offset != expect_offset || entry.size > index_offset ||
        entry.offset + entry.size > index_offset) {
      return corrupt_data_error(where +
                                ": index entry does not tile the chunk region");
    }
    if (entry.crc > 0xFFFFFFFFull) {
      return corrupt_data_error(where + ": crc field out of range");
    }
    if (entry.events > layout.num_events - total_events) {
      return corrupt_data_error("chunks hold more events than the header's " +
                                std::to_string(layout.num_events));
    }
    expect_offset = entry.offset + entry.size + kChunkHeaderBytes;
    total_events += entry.events;
    layout.chunks.push_back(entry);
  }
  if (expect_offset - kChunkHeaderBytes != index_offset) {
    return corrupt_data_error("stray bytes between last chunk and index footer");
  }
  if (total_events != layout.num_events) {
    return corrupt_data_error("chunks hold " + std::to_string(total_events) +
                              " events but header says " +
                              std::to_string(layout.num_events));
  }
  return Status::ok();
}

Status check_chunk(std::size_t index, const ChunkEntry& entry,
                   const std::uint8_t* chunk, std::vector<cfg::BlockId>& out) {
  const std::string where = "chunk " + std::to_string(index);
  if (get_u64(chunk) != entry.size || get_u64(chunk + 8) != entry.events ||
      get_u64(chunk + 16) != entry.crc) {
    return corrupt_data_error(where +
                              ": index entry disagrees with chunk header");
  }
  const std::uint8_t* payload = chunk + kChunkHeaderBytes;
  const std::size_t size = static_cast<std::size_t>(entry.size);
  const std::uint32_t actual_crc = crc32(payload, size);
  if (actual_crc != static_cast<std::uint32_t>(entry.crc)) {
    return corrupt_data_error(where + ": crc mismatch (stored " +
                              std::to_string(entry.crc) + ", computed " +
                              std::to_string(actual_crc) + ")");
  }
  const std::size_t base = out.size();
  const auto fail = [&](const std::string& what) {
    out.resize(base);
    return corrupt_data_error(where + ": " + what);
  };
  std::size_t pos = 0;
  std::int64_t last_id = 0;  // every chunk restarts the delta base
  while (pos < size) {
    std::int64_t delta = 0;
    if (!try_get_svarint(payload, size, pos, delta)) {
      return fail("malformed varint at chunk offset " + std::to_string(pos));
    }
    last_id += delta;
    if (last_id < 0 ||
        last_id >= static_cast<std::int64_t>(cfg::kInvalidBlock)) {
      return fail("block id " + std::to_string(last_id) +
                  " out of range at chunk offset " + std::to_string(pos));
    }
    out.push_back(static_cast<cfg::BlockId>(last_id));
  }
  if (out.size() - base != entry.events) {
    return fail("decodes to " + std::to_string(out.size() - base) +
                " events but index says " + std::to_string(entry.events));
  }
  return Status::ok();
}

}  // namespace stc::trace::format
