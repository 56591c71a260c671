#include "support/env.h"

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "support/faultpoint.h"

namespace stc::env {
namespace {

// Strict full-string parse helpers. Every failure names the knob, the
// rejected value and what would have been accepted.

Result<std::uint64_t> parse_uint(const char* knob, const char* value) {
  char* end = nullptr;
  if (value[0] == '\0' || value[0] == '-' || value[0] == '+') {
    return invalid_argument_error(std::string(knob) + "='" + value +
                                  "': expected an unsigned integer");
  }
  const std::uint64_t parsed = std::strtoull(value, &end, 10);
  if (*end != '\0') {
    return invalid_argument_error(std::string(knob) + "='" + value +
                                  "': expected an unsigned integer");
  }
  return parsed;
}

Result<double> parse_double(const char* knob, const char* value) {
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  if (value[0] == '\0' || *end != '\0' || !std::isfinite(parsed)) {
    return invalid_argument_error(std::string(knob) + "='" + value +
                                  "': expected a finite number");
  }
  return parsed;
}

}  // namespace

Result<std::size_t> threads() {
  const char* value = std::getenv("STC_THREADS");
  if (value == nullptr) return std::size_t{0};
  Result<std::uint64_t> parsed = parse_uint("STC_THREADS", value);
  if (!parsed.is_ok()) return parsed.status();
  if (parsed.value() == 0 || parsed.value() > 4096) {
    return invalid_argument_error(std::string("STC_THREADS='") + value +
                                  "': expected a worker count in [1, 4096]");
  }
  return static_cast<std::size_t>(parsed.value());
}

Result<double> scale_factor() {
  const char* value = std::getenv("STC_SF");
  if (value == nullptr) return 0.002;
  Result<double> parsed = parse_double("STC_SF", value);
  if (!parsed.is_ok()) return parsed.status();
  if (parsed.value() <= 0.0) {
    return invalid_argument_error(std::string("STC_SF='") + value +
                                  "': expected a scale factor > 0");
  }
  return parsed.value();
}

Result<std::uint64_t> seed() {
  const char* value = std::getenv("STC_SEED");
  if (value == nullptr) return std::uint64_t{19990401};
  return parse_uint("STC_SEED", value);
}

Result<std::uint32_t> line_bytes() {
  const char* value = std::getenv("STC_LINE");
  if (value == nullptr) return std::uint32_t{32};
  Result<std::uint64_t> parsed = parse_uint("STC_LINE", value);
  if (!parsed.is_ok()) return parsed.status();
  const std::uint64_t bytes = parsed.value();
  if (bytes < 8 || bytes > 1024 || (bytes & (bytes - 1)) != 0) {
    return invalid_argument_error(
        std::string("STC_LINE='") + value +
        "': expected a power-of-two line size in [8, 1024]");
  }
  return static_cast<std::uint32_t>(bytes);
}

Result<std::string> bench_dir() {
  const char* value = std::getenv("STC_BENCH_DIR");
  if (value == nullptr) return std::string(".");
  struct stat st{};
  if (::stat(value, &st) != 0 || !S_ISDIR(st.st_mode)) {
    return invalid_argument_error(std::string("STC_BENCH_DIR='") + value +
                                  "': expected an existing directory");
  }
  return std::string(value);
}

Result<bool> verify() {
  const char* value = std::getenv("STC_VERIFY");
  if (value == nullptr) return false;
  const std::string v(value);
  if (v == "0" || v == "") return false;
  if (v == "1") return true;
  return invalid_argument_error("STC_VERIFY='" + v + "': expected 0 or 1");
}

Result<std::string> bpred() {
  const char* value = std::getenv("STC_BPRED");
  if (value == nullptr) return std::string("perfect");
  const std::string v(value);
  for (const char* name : {"perfect", "always", "bimodal", "gshare", "local"}) {
    if (v == name) return v;
  }
  return invalid_argument_error(
      "STC_BPRED='" + v +
      "': expected one of perfect|always|bimodal|gshare|local");
}

Result<std::uint32_t> ftq_depth() {
  const char* value = std::getenv("STC_FTQ_DEPTH");
  if (value == nullptr) return std::uint32_t{8};
  Result<std::uint64_t> parsed = parse_uint("STC_FTQ_DEPTH", value);
  if (!parsed.is_ok()) return parsed.status();
  if (parsed.value() > 1024) {
    return invalid_argument_error(std::string("STC_FTQ_DEPTH='") + value +
                                  "': expected a depth in [0, 1024] "
                                  "(0 disables prefetching)");
  }
  return static_cast<std::uint32_t>(parsed.value());
}

Result<std::string> backend() {
  const char* value = std::getenv("STC_BACKEND");
  if (value == nullptr) return std::string("off");
  const std::string v(value);
  for (const char* name : {"off", "inorder", "ooo"}) {
    if (v == name) return v;
  }
  return invalid_argument_error("STC_BACKEND='" + v +
                                "': expected one of off|inorder|ooo");
}

Result<std::uint32_t> iq_depth() {
  const char* value = std::getenv("STC_IQ_DEPTH");
  if (value == nullptr) return std::uint32_t{16};
  Result<std::uint64_t> parsed = parse_uint("STC_IQ_DEPTH", value);
  if (!parsed.is_ok()) return parsed.status();
  if (parsed.value() == 0 || parsed.value() > 1024) {
    return invalid_argument_error(std::string("STC_IQ_DEPTH='") + value +
                                  "': expected a depth in [1, 1024]");
  }
  return static_cast<std::uint32_t>(parsed.value());
}

Result<std::uint32_t> rob_depth() {
  const char* value = std::getenv("STC_ROB_DEPTH");
  if (value == nullptr) return std::uint32_t{64};
  Result<std::uint64_t> parsed = parse_uint("STC_ROB_DEPTH", value);
  if (!parsed.is_ok()) return parsed.status();
  if (parsed.value() == 0 || parsed.value() > 4096) {
    return invalid_argument_error(std::string("STC_ROB_DEPTH='") + value +
                                  "': expected a depth in [1, 4096]");
  }
  return static_cast<std::uint32_t>(parsed.value());
}

Result<std::uint32_t> tenants() {
  const char* value = std::getenv("STC_TENANTS");
  if (value == nullptr) return std::uint32_t{4};
  Result<std::uint64_t> parsed = parse_uint("STC_TENANTS", value);
  if (!parsed.is_ok()) return parsed.status();
  if (parsed.value() == 0 || parsed.value() > 64) {
    return invalid_argument_error(std::string("STC_TENANTS='") + value +
                                  "': expected a tenant count in [1, 64]");
  }
  return static_cast<std::uint32_t>(parsed.value());
}

Result<std::uint64_t> quantum() {
  const char* value = std::getenv("STC_QUANTUM");
  if (value == nullptr) return std::uint64_t{1000};
  Result<std::uint64_t> parsed = parse_uint("STC_QUANTUM", value);
  if (!parsed.is_ok()) return parsed.status();
  if (parsed.value() > 1000000000) {
    return invalid_argument_error(
        std::string("STC_QUANTUM='") + value +
        "': expected a quantum in [0, 1000000000] events (0 = unbounded)");
  }
  return parsed.value();
}

Result<std::string> arrival() {
  const char* value = std::getenv("STC_ARRIVAL");
  if (value == nullptr) return std::string("poisson");
  const std::string v(value);
  for (const char* name : {"rr", "poisson", "bursty", "diurnal"}) {
    if (v == name) return v;
  }
  return invalid_argument_error(
      "STC_ARRIVAL='" + v + "': expected one of rr|poisson|bursty|diurnal");
}

Result<std::string> tenant_mix() {
  const char* value = std::getenv("STC_TENANT_MIX");
  if (value == nullptr) return std::string("dss,oltp");
  const std::string v(value);
  std::size_t begin = 0;
  bool any = false;
  while (begin <= v.size()) {
    const std::size_t comma = v.find(',', begin);
    const std::size_t end = comma == std::string::npos ? v.size() : comma;
    const std::string entry = v.substr(begin, end - begin);
    bool known = false;
    for (const char* name : {"dss", "dss_train", "oltp"}) {
      if (entry == name) known = true;
    }
    if (!known) {
      return invalid_argument_error(
          "STC_TENANT_MIX='" + v + "': entry '" + entry +
          "' not one of dss|dss_train|oltp (comma-separated)");
    }
    any = true;
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  if (!any) {
    return invalid_argument_error("STC_TENANT_MIX='" + v +
                                  "': expected at least one mix entry");
  }
  return v;
}

Result<double> job_timeout() {
  const char* value = std::getenv("STC_JOB_TIMEOUT");
  if (value == nullptr) return 0.0;
  Result<double> parsed = parse_double("STC_JOB_TIMEOUT", value);
  if (!parsed.is_ok()) return parsed.status();
  if (parsed.value() < 0.0) {
    return invalid_argument_error(std::string("STC_JOB_TIMEOUT='") + value +
                                  "': expected seconds >= 0 (0 disables)");
  }
  return parsed.value();
}

Result<std::uint32_t> job_retries() {
  const char* value = std::getenv("STC_JOB_RETRIES");
  if (value == nullptr) return std::uint32_t{1};
  Result<std::uint64_t> parsed = parse_uint("STC_JOB_RETRIES", value);
  if (!parsed.is_ok()) return parsed.status();
  if (parsed.value() > 16) {
    return invalid_argument_error(std::string("STC_JOB_RETRIES='") + value +
                                  "': expected a retry count in [0, 16]");
  }
  return static_cast<std::uint32_t>(parsed.value());
}

Result<bool> resume() {
  const char* value = std::getenv("STC_RESUME");
  if (value == nullptr) return false;
  const std::string v(value);
  if (v == "0" || v == "") return false;
  if (v == "1") return true;
  return invalid_argument_error("STC_RESUME='" + v + "': expected 0 or 1");
}

Result<bool> zero_timings() {
  const char* value = std::getenv("STC_ZERO_TIMINGS");
  if (value == nullptr) return false;
  const std::string v(value);
  if (v == "0" || v == "") return false;
  if (v == "1") return true;
  return invalid_argument_error("STC_ZERO_TIMINGS='" + v +
                                "': expected 0 or 1");
}

Status validate_all() {
  if (Status s = threads().status(); !s.is_ok()) return s;
  if (Status s = scale_factor().status(); !s.is_ok()) return s;
  if (Status s = seed().status(); !s.is_ok()) return s;
  if (Status s = line_bytes().status(); !s.is_ok()) return s;
  if (Status s = bench_dir().status(); !s.is_ok()) return s;
  if (Status s = verify().status(); !s.is_ok()) return s;
  if (Status s = bpred().status(); !s.is_ok()) return s;
  if (Status s = ftq_depth().status(); !s.is_ok()) return s;
  if (Status s = backend().status(); !s.is_ok()) return s;
  if (Status s = iq_depth().status(); !s.is_ok()) return s;
  if (Status s = rob_depth().status(); !s.is_ok()) return s;
  if (Status s = tenants().status(); !s.is_ok()) return s;
  if (Status s = quantum().status(); !s.is_ok()) return s;
  if (Status s = arrival().status(); !s.is_ok()) return s;
  if (Status s = tenant_mix().status(); !s.is_ok()) return s;
  if (Status s = job_timeout().status(); !s.is_ok()) return s;
  if (Status s = job_retries().status(); !s.is_ok()) return s;
  if (Status s = resume().status(); !s.is_ok()) return s;
  if (Status s = zero_timings().status(); !s.is_ok()) return s;
  if (const char* spec = std::getenv("STC_FAULT")) {
    if (Status s = fault::validate_spec(spec); !s.is_ok()) {
      return s.with_context("STC_FAULT");
    }
  }
  if (const char* spec = std::getenv("STC_CRASH")) {
    if (Status s = fault::validate_spec(spec); !s.is_ok()) {
      return s.with_context("STC_CRASH");
    }
  }
  return Status::ok();
}

void validate_all_or_exit() {
  const Status s = validate_all();
  if (s.is_ok()) return;
  std::fprintf(stderr, "environment: %s\n", s.to_string().c_str());
  std::exit(2);
}

}  // namespace stc::env
