// Central, validated access to the STC_* environment knobs.
//
// Every knob is parsed in exactly one place, strictly: a malformed value is
// an invalid-argument Status naming the knob, the offending value, and the
// accepted values — never a silent fallback to a default (the failure mode
// that makes a typo'd STC_THREADS=all quietly run a different experiment).
// Unset knobs return their documented defaults.
//
// Bench binaries call validate_all() (via bench::Env::from_environment)
// before doing any work, so a bad knob fails the process in milliseconds
// with exit code 2 instead of aborting mid-sweep.
#pragma once

#include <cstdint>
#include <string>

#include "support/error.h"

namespace stc::env {

// STC_THREADS: grid worker count; positive integer. 0 when unset (meaning
// "let the ThreadPool pick hardware concurrency").
Result<std::size_t> threads();

// STC_SF: TPC-D scale factor; finite double > 0. Default 0.002.
Result<double> scale_factor();

// STC_SEED: generator seed; unsigned integer. Default 19990401.
Result<std::uint64_t> seed();

// STC_LINE: cache line bytes; power of two in [8, 1024]. Default 32.
Result<std::uint32_t> line_bytes();

// STC_BENCH_DIR: directory that BENCH_*.json reports land in; must already
// exist and be a directory. Default ".".
Result<std::string> bench_dir();

// STC_VERIFY: 0/1 — run every measurement cell under the layout oracle.
Result<bool> verify();

// STC_BPRED: front-end predictor name; one of perfect|always|bimodal|
// gshare|local. Default "perfect".
Result<std::string> bpred();

// STC_FTQ_DEPTH: fetch-target queue depth in lines; non-negative integer
// (0 disables prefetching). Default 8.
Result<std::uint32_t> ftq_depth();

// STC_BACKEND: execution back end behind the front end; one of
// off|inorder|ooo. Default "off" (fetch-only simulation, byte-identical to
// the paper's configuration). See src/backend/backend.h.
Result<std::string> backend();

// STC_IQ_DEPTH: back-end issue-queue depth in ops; integer in [1, 1024].
// Default 16. Only meaningful with STC_BACKEND != off.
Result<std::uint32_t> iq_depth();

// STC_ROB_DEPTH: back-end reorder-buffer depth in ops; integer in
// [1, 4096]. Default 64. Only meaningful with STC_BACKEND != off.
Result<std::uint32_t> rob_depth();

// STC_TENANTS: multi-tenant composer client-stream count; integer in
// [1, 64]. Default 4. See src/workload/composer.h.
Result<std::uint32_t> tenants();

// STC_QUANTUM: composer scheduler quantum in block events per slice;
// integer in [0, 1000000000] where 0 means an unbounded quantum (each
// tenant runs to completion — plain concatenation). Default 1000.
Result<std::uint64_t> quantum();

// STC_ARRIVAL: composer arrival model; one of rr|poisson|bursty|diurnal.
// Default "poisson".
Result<std::string> arrival();

// STC_TENANT_MIX: comma-separated per-tenant workload mixes, assigned
// round-robin across tenants; each entry one of dss|dss_train|oltp.
// Default "dss,oltp".
Result<std::string> tenant_mix();

// STC_JOB_TIMEOUT: per-job deadline in seconds; finite double >= 0
// (0 disables the watchdog). Default 0.
Result<double> job_timeout();

// STC_JOB_RETRIES: extra attempts per failed job; integer in [0, 16].
// Default 1.
Result<std::uint32_t> job_retries();

// STC_RESUME: 0/1 — replay the BENCH_<name>.journal on startup, skipping
// cells already recorded, so a crashed or killed sweep continues instead of
// restarting. Default 0 (a stale journal is discarded).
Result<bool> resume();

// STC_ZERO_TIMINGS: 0/1 — record all phase timings as 0.0 so reports are
// byte-deterministic (the crash harness compares whole files). Default 0.
Result<bool> zero_timings();

// Parses every knob above plus the STC_FAULT spec syntax; returns the first
// error. Cheap — pure parsing, no filesystem work beyond one stat.
Status validate_all();

// validate_all() that prints the error to stderr and exits 2 on failure —
// the bench-binary entry point behavior.
void validate_all_or_exit();

}  // namespace stc::env
