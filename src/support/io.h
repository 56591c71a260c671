// Crash-safe file I/O for reports, journals and traces.
//
// write_file_atomic writes to <path>.tmp and renames over <path>, so readers
// never observe a torn file: either the old content survives or the new
// content is complete. Each step is a fault point (<prefix>.open,
// <prefix>.write, <prefix>.rename) so tests and STC_FAULT can prove the
// no-torn-file property; on any failure the temp file is removed.
//
// read_file reads a small file whole (BlockTrace::load, the journal). Traces
// too large for that stream chunk by chunk through trace::TraceReader.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "support/error.h"

namespace stc {

// Atomically replaces `path` with `size` bytes at `data`. `fault_prefix`
// names the injection points (e.g. "report.write" -> report.write.open ...).
// The temp file is registered for signal cleanup while it exists, so a
// SIGINT/SIGTERM handler can unlink in-flight temp files (see below).
Status write_file_atomic(const std::string& path, const void* data,
                         std::size_t size, std::string_view fault_prefix);

// Async-signal-safe temp-file cleanup registry.
//
// A fixed pool of path slots that a signal handler may walk with nothing but
// async-signal-safe calls. write_file_atomic registers its temp file for the
// window where the file exists under its temporary name; the experiment
// runner's SIGINT/SIGTERM handler calls unlink_signal_cleanup_paths() so an
// interrupted run never strands `.tmp` litter. Registration silently no-ops
// when all slots are busy or the path is too long — cleanup is best-effort by
// design. Returns the claimed slot id, or -1 when not registered.
int register_signal_cleanup_path(const std::string& path);
// Releases slot `id` (from register_signal_cleanup_path); -1 is a no-op.
void unregister_signal_cleanup_path(int id);
// Unlinks every registered path. Only async-signal-safe calls; callable from
// a signal handler. Slots stay claimed (the owner still unregisters).
void unlink_signal_cleanup_paths();

// Reads the whole file; kNotFound when it cannot be opened, kIoError on a
// short or failed read.
Result<std::vector<std::uint8_t>> read_file(const std::string& path);

}  // namespace stc
