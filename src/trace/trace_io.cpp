#include "trace/trace_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>

#include "support/check.h"
#include "support/crc32.h"
#include "support/faultpoint.h"
#include "support/varint.h"

namespace stc::trace {
namespace {

using format::kChunkHeaderBytes;
using format::kChunkTargetBytes;
using format::kHeaderBytes;
using format::kIndexMagic;
using format::kMagic;
using format::kVersion;
using format::put_u64;

// Reads exactly `size` bytes at `offset`. A file that ends early (one
// truncated after open included) is an I/O error, never a partial buffer.
Status pread_exact(int fd, std::uint64_t offset, std::uint8_t* data,
                   std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::pread(fd, data + done, size - done,
                              static_cast<off_t>(offset + done));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      return io_error(std::string("read failed: ") + std::strerror(errno));
    }
    if (n == 0) {
      return io_error("short read: " + std::to_string(done) + " of " +
                      std::to_string(size) + " bytes at offset " +
                      std::to_string(offset));
    }
    done += static_cast<std::size_t>(n);
  }
  return Status::ok();
}

}  // namespace

TraceReader& TraceReader::operator=(TraceReader&& other) noexcept {
  if (this == &other) return *this;
  if (fd_ >= 0) ::close(fd_);
  fd_ = other.fd_;
  path_ = std::move(other.path_);
  file_bytes_ = other.file_bytes_;
  layout_ = std::move(other.layout_);
  other.fd_ = -1;
  return *this;
}

TraceReader::~TraceReader() {
  if (fd_ >= 0) ::close(fd_);
}

std::uint64_t TraceReader::chunk_events(std::size_t index) const {
  STC_REQUIRE(index < layout_.chunks.size());
  return layout_.chunks[index].events;
}

Result<TraceReader> TraceReader::open(const std::string& path) {
  const std::string context = "trace '" + path + "'";
  if (Status s = fault::fail_if("trace.load.open", "opening " + path);
      !s.is_ok()) {
    return s.with_context(context);
  }
  TraceReader reader;
  reader.fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (reader.fd_ < 0) {
    return not_found_error("cannot open '" + path + "'").with_context(context);
  }
  reader.path_ = path;
  struct stat st = {};
  if (::fstat(reader.fd_, &st) != 0 || !S_ISREG(st.st_mode)) {
    return io_error("not a readable regular file").with_context(context);
  }
  reader.file_bytes_ = static_cast<std::uint64_t>(st.st_size);

  std::uint8_t header[kHeaderBytes] = {};
  const std::size_t header_bytes = static_cast<std::size_t>(
      std::min<std::uint64_t>(reader.file_bytes_, kHeaderBytes));
  if (Status s = pread_exact(reader.fd_, 0, header, header_bytes);
      !s.is_ok()) {
    return s.with_context(context);
  }
  Result<format::Layout> layout =
      format::parse_header(header, reader.file_bytes_);
  if (!layout.is_ok()) return layout.status().with_context(context);
  reader.layout_ = std::move(layout).take();
  std::vector<std::uint8_t> footer(
      format::footer_bytes(reader.layout_.num_chunks));
  if (Status s = pread_exact(reader.fd_, reader.layout_.footer_offset,
                             footer.data(), footer.size());
      !s.is_ok()) {
    return s.with_context(context);
  }
  if (Status s = format::parse_footer(footer.data(), reader.layout_);
      !s.is_ok()) {
    return s.with_context(context);
  }
  return reader;
}

Result<std::size_t> TraceReader::decode_chunk(
    std::size_t index, std::vector<cfg::BlockId>& out) const {
  STC_REQUIRE(index < layout_.chunks.size());
  const format::ChunkEntry& entry = layout_.chunks[index];
  // One read buffer per thread, reused chunk after chunk: a pass allocates
  // once, and concurrent callers never share a buffer.
  thread_local std::vector<std::uint8_t> chunk;
  chunk.resize(kChunkHeaderBytes + static_cast<std::size_t>(entry.size));
  if (Status s = pread_exact(fd_, entry.offset - kChunkHeaderBytes,
                             chunk.data(), chunk.size());
      !s.is_ok()) {
    return s.with_context("chunk " + std::to_string(index) + " of '" + path_ +
                          "'");
  }
  const std::size_t before = out.size();
  if (Status s = format::check_chunk(index, entry, chunk.data(), out);
      !s.is_ok()) {
    return s;
  }
  return out.size() - before;
}

TraceFileWriter& TraceFileWriter::operator=(TraceFileWriter&& other) noexcept {
  if (this == &other) return *this;
  abandon();
  path_ = std::move(other.path_);
  tmp_path_ = std::move(other.tmp_path_);
  file_ = other.file_;
  chunk_ = std::move(other.chunk_);
  index_ = std::move(other.index_);
  chunk_events_ = other.chunk_events_;
  num_chunks_ = other.num_chunks_;
  num_events_ = other.num_events_;
  file_pos_ = other.file_pos_;
  last_id_ = other.last_id_;
  error_ = other.error_;
  other.file_ = nullptr;
  return *this;
}

TraceFileWriter::~TraceFileWriter() { abandon(); }

void TraceFileWriter::abandon() {
  if (file_ == nullptr) return;
  std::fclose(file_);
  std::remove(tmp_path_.c_str());
  file_ = nullptr;
}

Result<TraceFileWriter> TraceFileWriter::create(const std::string& path) {
  const std::string tmp = path + ".tmp";
  if (Status s = fault::fail_if("trace.save.open", "opening " + tmp);
      !s.is_ok()) {
    return s.with_context("trace '" + path + "'");
  }
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return io_error("cannot open '" + tmp + "' for writing")
        .with_context("trace '" + path + "'");
  }
  TraceFileWriter writer;
  writer.path_ = path;
  writer.tmp_path_ = tmp;
  writer.file_ = f;
  writer.chunk_.reserve(kChunkTargetBytes + 8);
  // Placeholder header; finalize() seeks back and patches the counts in.
  std::vector<std::uint8_t> header;
  put_u64(header, kMagic);
  put_u64(header, kVersion);
  put_u64(header, 0);
  put_u64(header, 0);
  writer.write_bytes(header.data(), header.size());
  return writer;
}

void TraceFileWriter::write_bytes(const void* data, std::size_t size) {
  if (!error_.is_ok() || file_ == nullptr) return;
  if (size > 0 && std::fwrite(data, 1, size, file_) != size) {
    error_ = io_error("short write to '" + tmp_path_ + "'");
    return;
  }
  file_pos_ += size;
}

void TraceFileWriter::append(cfg::BlockId block) {
  if (chunk_.size() >= kChunkTargetBytes) flush_chunk();
  put_svarint(chunk_, static_cast<std::int64_t>(block) - last_id_);
  last_id_ = static_cast<std::int64_t>(block);
  ++chunk_events_;
  ++num_events_;
}

void TraceFileWriter::flush_chunk() {
  if (error_.is_ok()) {
    error_ = fault::fail_if("trace.save.write", "writing " + tmp_path_);
  }
  const std::uint32_t crc = crc32(chunk_.data(), chunk_.size());
  std::vector<std::uint8_t> header;
  put_u64(header, chunk_.size());
  put_u64(header, chunk_events_);
  put_u64(header, crc);
  put_u64(index_, file_pos_ + kChunkHeaderBytes);  // payload offset
  put_u64(index_, chunk_.size());
  put_u64(index_, chunk_events_);
  put_u64(index_, crc);
  write_bytes(header.data(), header.size());
  write_bytes(chunk_.data(), chunk_.size());
  ++num_chunks_;
  chunk_.clear();
  chunk_events_ = 0;
  last_id_ = 0;  // each chunk restarts the delta base for seekability
}

Status TraceFileWriter::finalize() {
  const std::string context = "trace '" + path_ + "'";
  if (file_ == nullptr) {
    return internal_error("finalize() on a spent trace writer");
  }
  if (!chunk_.empty()) flush_chunk();
  const std::uint64_t index_offset = file_pos_;
  std::vector<std::uint8_t> footer = index_;
  put_u64(footer, index_offset);
  put_u64(footer, num_chunks_);
  put_u64(footer, crc32(index_.data(), index_.size()));
  put_u64(footer, kIndexMagic);
  write_bytes(footer.data(), footer.size());
  // Patch the real event/chunk counts into the placeholder header.
  if (error_.is_ok()) {
    std::vector<std::uint8_t> header;
    put_u64(header, kMagic);
    put_u64(header, kVersion);
    put_u64(header, num_events_);
    put_u64(header, num_chunks_);
    if (std::fseek(file_, 0, SEEK_SET) != 0 ||
        std::fwrite(header.data(), 1, header.size(), file_) !=
            header.size()) {
      error_ = io_error("cannot patch header of '" + tmp_path_ + "'");
    }
  }
  // fclose flushes; a full disk surfaces here as a failed close.
  if (std::fclose(file_) != 0 && error_.is_ok()) {
    error_ = io_error("cannot flush '" + tmp_path_ + "'");
  }
  file_ = nullptr;
  if (error_.is_ok()) {
    error_ = fault::fail_if("trace.save.rename", "renaming " + tmp_path_);
  }
  if (error_.is_ok() &&
      std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    error_ = io_error("cannot rename '" + tmp_path_ + "' to '" + path_ + "'");
  }
  if (!error_.is_ok()) {
    std::remove(tmp_path_.c_str());
    return error_.with_context(context);
  }
  return error_;
}

}  // namespace stc::trace
