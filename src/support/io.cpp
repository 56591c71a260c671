#include "support/io.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>

#include "support/faultpoint.h"

namespace stc {

namespace {

// Signal cleanup slots. States: 0 = free, 1 = being written (skip), 2 = live.
// The handler only reads paths in state 2, which the claiming thread fully
// wrote (and null-terminated) before the release-store to 2.
constexpr int kCleanupSlots = 16;
constexpr std::size_t kCleanupPathMax = 512;
std::atomic<int> cleanup_state[kCleanupSlots];
char cleanup_path[kCleanupSlots][kCleanupPathMax];

}  // namespace

int register_signal_cleanup_path(const std::string& path) {
  if (path.size() + 1 > kCleanupPathMax) return -1;
  for (int i = 0; i < kCleanupSlots; ++i) {
    int expected = 0;
    if (!cleanup_state[i].compare_exchange_strong(expected, 1,
                                                  std::memory_order_acquire)) {
      continue;
    }
    std::memcpy(cleanup_path[i], path.c_str(), path.size() + 1);
    cleanup_state[i].store(2, std::memory_order_release);
    return i;
  }
  return -1;
}

void unregister_signal_cleanup_path(int id) {
  if (id < 0 || id >= kCleanupSlots) return;
  cleanup_state[id].store(0, std::memory_order_release);
}

void unlink_signal_cleanup_paths() {
  for (int i = 0; i < kCleanupSlots; ++i) {
    if (cleanup_state[i].load(std::memory_order_acquire) == 2) {
      ::unlink(cleanup_path[i]);
    }
  }
}

Status write_file_atomic(const std::string& path, const void* data,
                         std::size_t size, std::string_view fault_prefix) {
  const std::string prefix(fault_prefix);
  const std::string tmp = path + ".tmp";
  Status status = fault::fail_if(prefix + ".open", "opening " + tmp);
  std::FILE* f = nullptr;
  int cleanup_id = -1;
  if (status.is_ok()) {
    cleanup_id = register_signal_cleanup_path(tmp);
    f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr) status = io_error("cannot open '" + tmp + "' for writing");
  }
  if (status.is_ok()) {
    status = fault::fail_if(prefix + ".write", "writing " + tmp);
    if (status.is_ok() && size > 0 &&
        std::fwrite(data, 1, size, f) != size) {
      status = io_error("short write to '" + tmp + "'");
    }
  }
  if (f != nullptr) {
    // fclose flushes; a full disk surfaces here as a failed close.
    if (std::fclose(f) != 0 && status.is_ok()) {
      status = io_error("cannot flush '" + tmp + "'");
    }
  }
  if (status.is_ok()) {
    status = fault::fail_if(prefix + ".rename", "renaming " + tmp);
    if (status.is_ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
      status = io_error("cannot rename '" + tmp + "' to '" + path + "'");
    }
  }
  if (!status.is_ok()) std::remove(tmp.c_str());
  // Whether renamed away or removed, the temp name no longer exists.
  unregister_signal_cleanup_path(cleanup_id);
  return status;
}

Result<std::vector<std::uint8_t>> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return not_found_error("cannot open '" + path + "'");
  std::vector<std::uint8_t> bytes;
  std::uint8_t buffer[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof buffer, f)) > 0) {
    bytes.insert(bytes.end(), buffer, buffer + n);
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return io_error("read failed on '" + path + "'");
  return bytes;
}

}  // namespace stc
