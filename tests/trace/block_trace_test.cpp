#include "trace/block_trace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "support/crc32.h"
#include "support/error.h"
#include "support/rng.h"
#include "trace/trace_format.h"

namespace stc::trace {
namespace {

TEST(BlockTraceTest, EmptyTrace) {
  BlockTrace t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.num_events(), 0u);
  BlockTrace::Cursor cursor(t);
  EXPECT_TRUE(cursor.done());
}

TEST(BlockTraceTest, AppendAndIterate) {
  BlockTrace t;
  const std::vector<cfg::BlockId> ids = {5, 6, 7, 6, 5, 1000000, 0};
  for (auto id : ids) t.append(id);
  EXPECT_EQ(t.num_events(), ids.size());

  std::vector<cfg::BlockId> out;
  t.for_each([&](cfg::BlockId b) { out.push_back(b); });
  EXPECT_EQ(out, ids);
}

TEST(BlockTraceTest, CursorMatchesForEach) {
  BlockTrace t;
  Rng rng(5);
  std::vector<cfg::BlockId> ids;
  for (int i = 0; i < 10000; ++i) {
    ids.push_back(static_cast<cfg::BlockId>(rng.uniform(5000)));
    t.append(ids.back());
  }
  BlockTrace::Cursor cursor(t);
  for (auto id : ids) {
    ASSERT_FALSE(cursor.done());
    EXPECT_EQ(cursor.next(), id);
  }
  EXPECT_TRUE(cursor.done());
}

TEST(BlockTraceTest, DeltaCodingIsCompact) {
  BlockTrace t;
  // Sequential-ish ids (deltas of +-1) should cost ~1 byte per event.
  cfg::BlockId id = 1000;
  for (int i = 0; i < 10000; ++i) {
    id += (i % 2 == 0) ? 1 : -1;
    t.append(id);
  }
  EXPECT_LT(t.byte_size(), 11000u);
}

TEST(BlockTraceTest, CrossesChunkBoundaries) {
  BlockTrace t;
  // Enough large-delta events to span several 64KB chunks.
  for (int i = 0; i < 100000; ++i) {
    t.append(static_cast<cfg::BlockId>((i * 7919) % 1000003));
  }
  std::uint64_t n = 0;
  cfg::BlockId last = 0;
  t.for_each([&](cfg::BlockId b) {
    last = b;
    ++n;
  });
  EXPECT_EQ(n, 100000u);
  EXPECT_EQ(last, static_cast<cfg::BlockId>((99999 * 7919) % 1000003));
}

TEST(BlockTraceTest, ClearResets) {
  BlockTrace t;
  t.append(1);
  t.append(2);
  t.clear();
  EXPECT_TRUE(t.empty());
  t.append(42);
  BlockTrace::Cursor cursor(t);
  EXPECT_EQ(cursor.next(), 42u);
}

TEST(BlockTraceTest, SaveAndLoadRoundTrip) {
  BlockTrace t;
  Rng rng(77);
  std::vector<cfg::BlockId> ids;
  for (int i = 0; i < 50000; ++i) {
    ids.push_back(static_cast<cfg::BlockId>(rng.uniform(1 << 20)));
    t.append(ids.back());
  }
  const std::string path = ::testing::TempDir() + "/stc_trace_roundtrip.bin";
  ASSERT_TRUE(t.save(path).is_ok());
  auto loaded = BlockTrace::load(path);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value().num_events(), t.num_events());
  std::size_t i = 0;
  loaded.value().for_each([&](cfg::BlockId b) {
    ASSERT_LT(i, ids.size());
    EXPECT_EQ(b, ids[i++]);
  });
  std::remove(path.c_str());
}

TEST(BlockTraceTest, AppendAfterLoadContinuesStream) {
  BlockTrace t;
  for (cfg::BlockId id = 100; id < 160; ++id) t.append(id);
  const auto bytes = t.serialize();
  auto loaded = BlockTrace::deserialize(bytes.data(), bytes.size());
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  BlockTrace resumed = std::move(loaded).take();
  resumed.append(161);
  t.append(161);
  EXPECT_EQ(resumed.serialize(), t.serialize());
}

TEST(BlockTraceTest, RecorderSinkAppends) {
  BlockTrace t;
  TraceRecorder recorder(t);
  recorder.on_block(3);
  recorder.on_block(9);
  EXPECT_EQ(t.num_events(), 2u);
}

TEST(BlockTraceTest, LoadMissingFileIsStructuredError) {
  auto loaded = BlockTrace::load("/nonexistent/path/trace.bin");
  ASSERT_FALSE(loaded.is_ok());
  EXPECT_EQ(loaded.status().code(), ErrorCode::kNotFound);
  EXPECT_NE(loaded.status().message().find("/nonexistent/path/trace.bin"),
            std::string::npos);
}

// ---- corruption corpus -----------------------------------------------------
//
// Every entry mutates a valid serialized trace one way and asserts the
// deserializer rejects it with a structured kCorruptData error (never an
// abort, never a silently different trace).

class BlockTraceCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(123);
    for (int i = 0; i < 2000; ++i) {
      trace_.append(static_cast<cfg::BlockId>(rng.uniform(1 << 22)));
    }
    bytes_ = trace_.serialize();
  }

  static void put_u64_at(std::vector<std::uint8_t>& b, std::size_t pos,
                         std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      b[pos + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(v >> (8 * i));
    }
  }

  // Size of the version-3 index footer, read back from the header's chunk
  // count so the tests track the real chunking.
  std::size_t footer_size() const {
    return format::footer_bytes(format::get_u64(&bytes_[24]));
  }

  static Status expect_rejected(const std::vector<std::uint8_t>& bytes) {
    auto r = BlockTrace::deserialize(bytes.empty() ? nullptr : bytes.data(),
                                     bytes.size());
    EXPECT_FALSE(r.is_ok()) << "corrupt input was accepted";
    return r.is_ok() ? Status() : r.status();
  }

  BlockTrace trace_;
  std::vector<std::uint8_t> bytes_;
};

TEST_F(BlockTraceCorruptionTest, BadMagic) {
  bytes_[0] ^= 0xff;
  const Status s = expect_rejected(bytes_);
  EXPECT_EQ(s.code(), ErrorCode::kCorruptData);
  EXPECT_NE(s.message().find("magic"), std::string::npos);
}

TEST_F(BlockTraceCorruptionTest, FutureVersion) {
  put_u64_at(bytes_, 8, 99);  // version field
  const Status s = expect_rejected(bytes_);
  EXPECT_EQ(s.code(), ErrorCode::kCorruptData);
  EXPECT_NE(s.message().find("version"), std::string::npos);
}

TEST_F(BlockTraceCorruptionTest, HeaderEventCountMismatch) {
  put_u64_at(bytes_, 16, trace_.num_events() + 1);
  EXPECT_EQ(expect_rejected(bytes_).code(), ErrorCode::kCorruptData);
}

TEST_F(BlockTraceCorruptionTest, AbsurdChunkCount) {
  put_u64_at(bytes_, 24, ~0ull);  // num_chunks
  EXPECT_EQ(expect_rejected(bytes_).code(), ErrorCode::kCorruptData);
}

TEST_F(BlockTraceCorruptionTest, TruncatedAtEveryStructuralBoundary) {
  // Empty file, partial header, header only, partial chunk header, chunk
  // header only, partial payload, and one-byte-short.
  const std::size_t boundaries[] = {0u,  1u,  31u, 32u, 40u,
                                    56u, 57u, bytes_.size() - 1};
  for (const std::size_t len : boundaries) {
    ASSERT_LE(len, bytes_.size());
    std::vector<std::uint8_t> prefix(bytes_.begin(),
                                     bytes_.begin() + static_cast<long>(len));
    EXPECT_EQ(expect_rejected(prefix).code(), ErrorCode::kCorruptData)
        << "prefix length " << len;
  }
}

TEST_F(BlockTraceCorruptionTest, PayloadCrcMismatch) {
  bytes_[bytes_.size() - footer_size() - 1] ^= 0x01;  // last payload byte
  const Status s = expect_rejected(bytes_);
  EXPECT_EQ(s.code(), ErrorCode::kCorruptData);
  EXPECT_NE(s.message().find("crc"), std::string::npos);
}

TEST_F(BlockTraceCorruptionTest, ChunkPayloadSizeRunsPastEnd) {
  put_u64_at(bytes_, 32, bytes_.size());  // chunk 0 payload_size
  EXPECT_EQ(expect_rejected(bytes_).code(), ErrorCode::kCorruptData);
}

TEST_F(BlockTraceCorruptionTest, TrailingGarbage) {
  bytes_.push_back(0x00);
  EXPECT_EQ(expect_rejected(bytes_).code(), ErrorCode::kCorruptData);
}

TEST_F(BlockTraceCorruptionTest, VarintOverflowInPayload) {
  // A hand-built file whose single chunk holds one 11-byte varint with every
  // continuation bit set: the decoder must flag the varint, not run away.
  std::vector<std::uint8_t> payload(11, 0xff);
  const std::uint64_t crc = crc32(payload.data(), payload.size());
  std::vector<std::uint8_t> file;
  for (const std::uint64_t v : {format::kMagic, format::kVersion,
                                std::uint64_t{1},  // num_events
                                std::uint64_t{1},  // num_chunks
                                std::uint64_t{payload.size()},
                                std::uint64_t{1},  // chunk event count
                                crc}) {
    format::put_u64(file, v);
  }
  file.insert(file.end(), payload.begin(), payload.end());
  // The index footer: one entry matching the chunk header, then the trailer.
  std::vector<std::uint8_t> index;
  for (const std::uint64_t v : {std::uint64_t{56}, std::uint64_t{payload.size()},
                                std::uint64_t{1}, crc}) {
    format::put_u64(index, v);
  }
  const std::uint64_t index_offset = file.size();
  file.insert(file.end(), index.begin(), index.end());
  for (const std::uint64_t v :
       {index_offset, std::uint64_t{1},
        std::uint64_t{crc32(index.data(), index.size())}, format::kIndexMagic}) {
    format::put_u64(file, v);
  }
  const Status s = expect_rejected(file);
  EXPECT_EQ(s.code(), ErrorCode::kCorruptData);
  EXPECT_NE(s.message().find("varint"), std::string::npos) << s.to_string();
}

// ---- version-3 index footer ------------------------------------------------

TEST_F(BlockTraceCorruptionTest, TruncatedFooter) {
  // Drop the trailer's last 8 bytes: the index magic is gone.
  bytes_.resize(bytes_.size() - 8);
  const Status s = expect_rejected(bytes_);
  EXPECT_EQ(s.code(), ErrorCode::kCorruptData);
}

TEST_F(BlockTraceCorruptionTest, IndexEntryDisagreesWithChunkHeader) {
  // Flip the first index entry's payload_bytes field; the chunk headers are
  // untouched, so the footer and the body now disagree.
  const std::size_t index_offset = bytes_.size() - footer_size();
  bytes_[index_offset + 8] ^= 0x01;
  const Status s = expect_rejected(bytes_);
  EXPECT_EQ(s.code(), ErrorCode::kCorruptData);
  EXPECT_NE(s.message().find("index"), std::string::npos);
}

TEST_F(BlockTraceCorruptionTest, IndexCrcMismatch) {
  // Flip a bit in the trailer's index crc field.
  bytes_[bytes_.size() - 16] ^= 0x01;
  const Status s = expect_rejected(bytes_);
  EXPECT_EQ(s.code(), ErrorCode::kCorruptData);
  EXPECT_NE(s.message().find("index"), std::string::npos);
}

TEST_F(BlockTraceCorruptionTest, TrailerIndexOffsetWrong) {
  put_u64_at(bytes_, bytes_.size() - 32, 0);  // index_offset
  EXPECT_EQ(expect_rejected(bytes_).code(), ErrorCode::kCorruptData);
}

TEST(BlockTraceV3Test, SerializeEmitsVersion3WithIndexFooter) {
  BlockTrace t;
  for (cfg::BlockId id = 0; id < 100; ++id) t.append(id);
  const auto bytes = t.serialize();
  EXPECT_EQ(format::get_u64(&bytes[8]), format::kVersion);
  const std::uint64_t chunks = format::get_u64(&bytes[24]);
  ASSERT_GE(bytes.size(), format::footer_bytes(chunks));
  EXPECT_EQ(format::get_u64(&bytes[bytes.size() - 8]), format::kIndexMagic);
}

// Version 2 (the same layout without the index footer) is no longer read:
// its bytes are rejected as an unsupported version, whatever follows them.
std::vector<std::uint8_t> v3_as_v2(std::size_t events, bool keep_footer) {
  BlockTrace t;
  for (cfg::BlockId id = 0; id < events; ++id) t.append(id);
  auto bytes = t.serialize();
  const std::uint64_t chunks = format::get_u64(&bytes[24]);
  if (!keep_footer) bytes.resize(bytes.size() - format::footer_bytes(chunks));
  bytes[8] = 2;  // little-endian version field: 3 -> 2
  return bytes;
}

void expect_unsupported_v2(const std::vector<std::uint8_t>& bytes) {
  auto r = BlockTrace::deserialize(bytes.data(), bytes.size());
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kCorruptData);
  EXPECT_NE(r.status().message().find("unsupported trace version 2"),
            std::string::npos)
      << r.status().to_string();
}

TEST(BlockTraceV3Test, Version2IsRejectedAsUnsupported) {
  expect_unsupported_v2(v3_as_v2(60000, /*keep_footer=*/false));
}

TEST(BlockTraceV3Test, Version2WithTrailingBytesIsRejectedAsUnsupported) {
  auto v2 = v3_as_v2(50, /*keep_footer=*/false);
  v2.push_back(0x00);
  expect_unsupported_v2(v2);
  expect_unsupported_v2(v3_as_v2(50, /*keep_footer=*/true));
}

TEST_F(BlockTraceCorruptionTest, CorruptFileOnDiskLoadsAsError) {
  bytes_[bytes_.size() / 2] ^= 0x40;
  const std::string path = ::testing::TempDir() + "/stc_trace_corrupt.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes_.data(), 1, bytes_.size(), f), bytes_.size());
  std::fclose(f);
  auto loaded = BlockTrace::load(path);
  ASSERT_FALSE(loaded.is_ok());
  EXPECT_EQ(loaded.status().code(), ErrorCode::kCorruptData);
  // The error names the file so a failing bench run is actionable.
  EXPECT_NE(loaded.status().message().find(path), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace stc::trace
