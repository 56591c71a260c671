#include "support/io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "support/error.h"
#include "support/faultpoint.h"

namespace stc {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

bool exists(const std::string& path) {
  std::ifstream in(path);
  return in.good();
}

class AtomicWriteTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::reset(); }
  void TearDown() override {
    fault::reset();
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  std::string path_ = temp_path("stc_io_test.txt");
};

TEST_F(AtomicWriteTest, WritesAndReplaces) {
  ASSERT_TRUE(write_file_atomic(path_, "one", 3, "test.write").is_ok());
  EXPECT_EQ(slurp(path_), "one");
  ASSERT_TRUE(write_file_atomic(path_, "twotwo", 6, "test.write").is_ok());
  EXPECT_EQ(slurp(path_), "twotwo");
  EXPECT_FALSE(exists(path_ + ".tmp"));
}

TEST_F(AtomicWriteTest, UnwritableDirectoryIsIoError) {
  const Status s =
      write_file_atomic("/nonexistent/dir/file.txt", "x", 1, "test.write");
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), ErrorCode::kIoError);
  EXPECT_NE(s.message().find("/nonexistent/dir/file.txt"), std::string::npos);
}

TEST_F(AtomicWriteTest, FaultAtEveryStepLeavesOldContentIntact) {
  // The no-torn-file property: whichever step fails, the previous content
  // survives untouched and no temp file is left behind.
  ASSERT_TRUE(write_file_atomic(path_, "old", 3, "test.write").is_ok());
  for (const char* point :
       {"test.write.open", "test.write.write", "test.write.rename"}) {
    fault::arm(point);
    const Status s = write_file_atomic(path_, "NEW", 3, "test.write");
    ASSERT_FALSE(s.is_ok()) << point;
    EXPECT_EQ(s.code(), ErrorCode::kFaultInjected) << point;
    EXPECT_EQ(slurp(path_), "old") << point;
    EXPECT_FALSE(exists(path_ + ".tmp")) << point;
  }
  // With the faults consumed the write goes through.
  ASSERT_TRUE(write_file_atomic(path_, "NEW", 3, "test.write").is_ok());
  EXPECT_EQ(slurp(path_), "NEW");
}

TEST(ReadFileTest, MissingFileIsNotFound) {
  auto r = read_file("/nonexistent/file.bin");
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kNotFound);
}

TEST(ReadFileTest, RoundTripsBytes) {
  const std::string path = temp_path("stc_io_roundtrip.bin");
  const std::vector<std::uint8_t> payload = {0x00, 0xff, 0x7f, 0x0a, 0x00};
  ASSERT_TRUE(
      write_file_atomic(path, payload.data(), payload.size(), "test.write")
          .is_ok());
  auto r = read_file(path);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), payload);
  std::remove(path.c_str());
}

TEST(ReadFileTest, EmptyFileReadsEmpty) {
  const std::string path = temp_path("stc_io_empty.bin");
  ASSERT_TRUE(write_file_atomic(path, "", 0, "test.write").is_ok());
  auto r = read_file(path);
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(r.value().empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace stc
