// Streaming access to on-disk block traces.
//
// BlockTrace::load() materializes the whole event stream in memory; that is
// fine for the paper's traces but not for production-scale ones. TraceReader
// opens a version-3 trace file, reads and validates only its header and
// index footer up front, and then reads chunks on demand: decode_chunk()
// preads one chunk at the offset its index entry gives into a local buffer,
// so resident memory stays bounded by one chunk whatever the trace size.
//
// Validation is per chunk: decode_chunk() CRC-checks and varint-validates
// exactly the chunk it reads, so corruption in one chunk — or a file
// truncated after open — is a clean Status naming that chunk and leaves
// every other chunk readable.
//
// TraceFileWriter is the producer side: events stream to disk through a
// bounded chunk buffer and finalize() writes the index footer and renames
// the temp file into place. The bytes it produces are identical to
// BlockTrace::serialize() over the same event stream, so everything proven
// about the in-memory path (fuzzing, corruption corpus) covers it too.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "cfg/types.h"
#include "support/error.h"
#include "trace/trace_format.h"

namespace stc::trace {

// A read-only handle on one trace file. Owns the file descriptor: move-only,
// closed on destruction. It keeps no file position (every read is a pread),
// so decode_chunk is safe to call from several threads at once.
class TraceReader {
 public:
  // Opens `path` and validates its header and index footer. Fault prefix
  // "trace.load" covers the open and header steps, mirroring
  // BlockTrace::load().
  static Result<TraceReader> open(const std::string& path);

  TraceReader(TraceReader&& other) noexcept { *this = std::move(other); }
  TraceReader& operator=(TraceReader&& other) noexcept;
  TraceReader(const TraceReader&) = delete;
  TraceReader& operator=(const TraceReader&) = delete;
  ~TraceReader();

  std::uint64_t num_events() const { return layout_.num_events; }
  std::size_t num_chunks() const { return layout_.chunks.size(); }
  std::uint64_t chunk_events(std::size_t index) const;
  std::uint64_t file_bytes() const { return file_bytes_; }

  // Reads, CRC-checks and decodes chunk `index`, appending its block ids to
  // `out`; returns the event count. Corruption or a short read is a clean
  // Status naming the chunk; `out` is left untouched on failure.
  Result<std::size_t> decode_chunk(std::size_t index,
                                   std::vector<cfg::BlockId>& out) const;

  // Empty reader (Result<T> needs it); only open() yields a usable one.
  TraceReader() = default;

 private:
  int fd_ = -1;
  std::string path_;
  std::uint64_t file_bytes_ = 0;
  format::Layout layout_;
};

// Streams events to `path` in the version-3 format without buffering more
// than one chunk. Usage: create() -> append()... -> finalize(). Write
// errors are sticky and surface from finalize(); an unfinalized writer
// removes its temp file on destruction, so `path` is only ever replaced by
// a complete, validated file (fault prefix "trace.save", like
// BlockTrace::save()).
class TraceFileWriter {
 public:
  static Result<TraceFileWriter> create(const std::string& path);

  TraceFileWriter(TraceFileWriter&& other) noexcept { *this = std::move(other); }
  TraceFileWriter& operator=(TraceFileWriter&& other) noexcept;
  TraceFileWriter(const TraceFileWriter&) = delete;
  TraceFileWriter& operator=(const TraceFileWriter&) = delete;
  ~TraceFileWriter();

  void append(cfg::BlockId block);
  std::uint64_t num_events() const { return num_events_; }

  // Flushes the last chunk, writes the index footer, patches the header and
  // renames the temp file over `path`. Returns the first error hit anywhere
  // in the stream. The writer is spent afterwards.
  Status finalize();

  // Empty writer (Result<T> needs it); only create() yields a usable one.
  TraceFileWriter() = default;

 private:
  void flush_chunk();
  void write_bytes(const void* data, std::size_t size);
  void abandon();

  std::string path_;
  std::string tmp_path_;
  std::FILE* file_ = nullptr;
  std::vector<std::uint8_t> chunk_;   // current chunk's encoded payload
  std::vector<std::uint8_t> index_;   // accumulated index entries
  std::uint64_t chunk_events_ = 0;
  std::uint64_t num_chunks_ = 0;
  std::uint64_t num_events_ = 0;
  std::uint64_t file_pos_ = 0;
  std::int64_t last_id_ = 0;          // encoder delta base
  Status error_;                      // sticky; reported by finalize()
};

}  // namespace stc::trace
