#include "trace/trace_io.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "cfg/address_map.h"
#include "sim/replay.h"
#include "support/error.h"
#include "support/faultpoint.h"
#include "support/rng.h"
#include "testing/synthetic.h"
#include "trace/block_trace.h"
#include "trace/trace_format.h"

namespace stc::trace {
namespace {

long peak_rss_kb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // Linux: KB
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// Walks block ids deterministically; enough events to span several chunks.
std::vector<cfg::BlockId> make_events(std::size_t n) {
  std::vector<cfg::BlockId> ids;
  ids.reserve(n);
  std::uint64_t x = 99991;
  for (std::size_t i = 0; i < n; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    ids.push_back(static_cast<cfg::BlockId>((x >> 33) % 5000));
  }
  return ids;
}

// Writes a little-endian u64 in place (format::put_u64 appends).
void patch_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

class TraceIoTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::reset(); }
  void TearDown() override {
    fault::reset();
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }

  // Streams `events` through a TraceFileWriter into path_.
  void write_file(const std::vector<cfg::BlockId>& events) {
    auto writer = TraceFileWriter::create(path_);
    ASSERT_TRUE(writer.is_ok()) << writer.status().to_string();
    for (const cfg::BlockId id : events) writer.value().append(id);
    const Status s = writer.value().finalize();
    ASSERT_TRUE(s.is_ok()) << s.to_string();
  }

  // Decodes every chunk of `reader` in order.
  std::vector<cfg::BlockId> decode_all(const TraceReader& reader) {
    std::vector<cfg::BlockId> out;
    for (std::size_t c = 0; c < reader.num_chunks(); ++c) {
      auto r = reader.decode_chunk(c, out);
      EXPECT_TRUE(r.is_ok()) << r.status().to_string();
    }
    return out;
  }

  // Per-test name: ctest runs the suite's tests in parallel processes.
  std::string path_ =
      temp_path((std::string("stc_trace_io_") +
                 ::testing::UnitTest::GetInstance()->current_test_info()->name() +
                 ".trace")
                    .c_str());
};

TEST_F(TraceIoTest, WriterMatchesInMemorySerializeMultiChunk) {
  // 80000 events encode past 64 KB, so the file spans several chunks; the
  // streamed bytes must equal BlockTrace::serialize() over the same events.
  const auto events = make_events(80000);
  BlockTrace trace;
  for (const cfg::BlockId id : events) trace.append(id);
  write_file(events);
  EXPECT_GT(trace.num_chunks(), 1u);
  EXPECT_EQ(slurp(path_), trace.serialize());
}

TEST_F(TraceIoTest, WriterMatchesInMemorySerializeEmpty) {
  write_file({});
  EXPECT_EQ(slurp(path_), BlockTrace().serialize());
}

TEST_F(TraceIoTest, WriterRenameFaultLeavesNoFile) {
  auto writer = TraceFileWriter::create(path_);
  ASSERT_TRUE(writer.is_ok());
  writer.value().append(7);
  fault::arm("trace.save.rename");
  const Status s = writer.value().finalize();
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), ErrorCode::kFaultInjected);
  EXPECT_FALSE(std::ifstream(path_).good());
  EXPECT_FALSE(std::ifstream(path_ + ".tmp").good());
}

TEST_F(TraceIoTest, SeekToChunkMatchesInMemoryDecode) {
  const auto events = make_events(80000);
  BlockTrace trace;
  for (const cfg::BlockId id : events) trace.append(id);
  write_file(events);

  auto opened = TraceReader::open(path_);
  ASSERT_TRUE(opened.is_ok()) << opened.status().to_string();
  const TraceReader reader = std::move(opened).take();
  ASSERT_EQ(reader.num_chunks(), trace.num_chunks());
  ASSERT_EQ(reader.num_events(), trace.num_events());

  // Random access: decode chunks in reverse order, each independently, and
  // compare against the in-memory chunk decoder.
  for (std::size_t c = reader.num_chunks(); c-- > 0;) {
    std::vector<cfg::BlockId> from_file;
    auto r = reader.decode_chunk(c, from_file);
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    std::vector<cfg::BlockId> from_memory;
    trace.decode_chunk(c, from_memory);
    EXPECT_EQ(from_file, from_memory) << "chunk " << c;
    EXPECT_EQ(r.value(), reader.chunk_events(c));
  }
  EXPECT_EQ(decode_all(reader), events);
}

TEST_F(TraceIoTest, SingleChunkCorruptionLeavesOtherChunksReadable) {
  write_file(make_events(80000));
  auto bytes = slurp(path_);
  // Flip a payload byte in the middle of the file: chunk 1's payload for any
  // multi-chunk trace (chunk 0 starts at byte 56).
  bytes[format::kHeaderBytes + format::kChunkHeaderBytes +
        format::kChunkTargetBytes + 2 * format::kChunkHeaderBytes + 10] ^=
      0x40;
  spit(path_, bytes);

  auto opened = TraceReader::open(path_);
  ASSERT_TRUE(opened.is_ok()) << opened.status().to_string();
  const TraceReader& reader = opened.value();
  ASSERT_GE(reader.num_chunks(), 3u);
  std::vector<cfg::BlockId> out;
  const auto bad = reader.decode_chunk(1, out);
  ASSERT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.status().code(), ErrorCode::kCorruptData);
  EXPECT_NE(bad.status().message().find("chunk 1"), std::string::npos);
  EXPECT_TRUE(out.empty());  // failed decode leaves `out` untouched
  EXPECT_TRUE(reader.decode_chunk(0, out).is_ok());
  EXPECT_TRUE(reader.decode_chunk(2, out).is_ok());
}

TEST_F(TraceIoTest, ChunkHeaderDisagreementIsCaughtAtDecode) {
  write_file(make_events(80000));
  auto bytes = slurp(path_);
  // Corrupt chunk 0's on-disk header (its events field). The CRC-protected
  // index footer is untouched, so open() succeeds; the lazy header check in
  // decode_chunk must flag the disagreement.
  patch_u64(&bytes[format::kHeaderBytes + 8], 1);
  spit(path_, bytes);

  auto opened = TraceReader::open(path_);
  ASSERT_TRUE(opened.is_ok()) << opened.status().to_string();
  std::vector<cfg::BlockId> out;
  const auto bad = opened.value().decode_chunk(0, out);
  ASSERT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.status().code(), ErrorCode::kCorruptData);
  EXPECT_NE(bad.status().message().find("disagrees with chunk header"),
            std::string::npos);
}

TEST_F(TraceIoTest, TruncatedFooterFailsOpen) {
  write_file(make_events(1000));
  auto bytes = slurp(path_);
  bytes.resize(bytes.size() - 8);
  spit(path_, bytes);
  auto opened = TraceReader::open(path_);
  ASSERT_FALSE(opened.is_ok());
  EXPECT_EQ(opened.status().code(), ErrorCode::kCorruptData);
}

TEST_F(TraceIoTest, Version2IsRejectedAsUnsupported) {
  write_file(make_events(1000));
  auto bytes = slurp(path_);
  patch_u64(&bytes[8], 2);
  spit(path_, bytes);
  auto opened = TraceReader::open(path_);
  ASSERT_FALSE(opened.is_ok());
  EXPECT_EQ(opened.status().code(), ErrorCode::kCorruptData);
  EXPECT_NE(opened.status().message().find("unsupported trace version 2"),
            std::string::npos)
      << opened.status().to_string();
}

// The reader keeps only a descriptor: a file cut short after open() is a
// clean error on the chunks it lost, and the chunks still on disk read fine.
TEST_F(TraceIoTest, FileTruncatedAfterOpenIsCleanError) {
  const auto events = make_events(80000);
  write_file(events);
  auto opened = TraceReader::open(path_);
  ASSERT_TRUE(opened.is_ok()) << opened.status().to_string();
  const TraceReader& reader = opened.value();
  ASSERT_GE(reader.num_chunks(), 3u);

  // Cut the file right after chunk 0's payload.
  const std::uint64_t chunk0_bytes = format::get_u64(&slurp(path_)[32]);
  const int fd = ::open(path_.c_str(), O_WRONLY);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::ftruncate(fd, static_cast<off_t>(format::kHeaderBytes +
                                               format::kChunkHeaderBytes +
                                               chunk0_bytes)),
            0);
  ::close(fd);

  const std::size_t last = reader.num_chunks() - 1;
  std::vector<cfg::BlockId> out;
  const auto lost = reader.decode_chunk(last, out);
  ASSERT_FALSE(lost.is_ok());
  EXPECT_NE(lost.status().message().find("chunk " + std::to_string(last)),
            std::string::npos)
      << lost.status().to_string();
  EXPECT_TRUE(out.empty());
  const auto kept = reader.decode_chunk(0, out);
  ASSERT_TRUE(kept.is_ok()) << kept.status().to_string();
  EXPECT_TRUE(std::equal(out.begin(), out.end(), events.begin()));
}

// Streaming a trace many times the size of one chunk must not grow resident
// memory with the file. Each test runs in its own process under ctest, so
// ru_maxrss is this test's own peak.
TEST_F(TraceIoTest, StreamedReplayKeepsResidentMemoryBounded) {
  Rng rng(7);
  const auto image = testing::random_image(rng, 20000);
  const cfg::AddressMap layout = cfg::AddressMap::original(*image);
  sim::BlockMetaTable meta;
  meta.build(*image, layout);
  {
    // Ids scattered over the whole image code to 2-3 byte deltas, so 26M
    // events make a file of about 70 MB.
    auto writer = TraceFileWriter::create(path_);
    ASSERT_TRUE(writer.is_ok()) << writer.status().to_string();
    for (std::size_t i = 0; i < 26'000'000; ++i) {
      writer.value().append(
          static_cast<cfg::BlockId>(rng.uniform(image->num_blocks())));
    }
    const Status s = writer.value().finalize();
    ASSERT_TRUE(s.is_ok()) << s.to_string();
  }
  // The baseline precedes open(): a reader that loads the file there must
  // fail this test too.
  const long before_kb = peak_rss_kb();
  auto opened = TraceReader::open(path_);
  ASSERT_TRUE(opened.is_ok()) << opened.status().to_string();
  const TraceReader& reader = opened.value();
  ASSERT_GE(reader.file_bytes(), std::uint64_t{64} << 20);
  auto seq = sim::replay_sequentiality_streamed(reader, meta);
  ASSERT_TRUE(seq.is_ok()) << seq.status().to_string();
  EXPECT_EQ(seq.value().dynamic_blocks, reader.num_events());
  const long grown_kb = peak_rss_kb() - before_kb;
  EXPECT_LT(grown_kb, 16 * 1024) << "peak RSS grew by " << grown_kb
                                 << " KB streaming a "
                                 << (reader.file_bytes() >> 20) << " MB file";
}

TEST_F(TraceIoTest, OpenFaultPointSurfaces) {
  write_file(make_events(100));
  fault::arm("trace.load.open");
  auto opened = TraceReader::open(path_);
  ASSERT_FALSE(opened.is_ok());
  EXPECT_EQ(opened.status().code(), ErrorCode::kFaultInjected);
}

}  // namespace
}  // namespace stc::trace
