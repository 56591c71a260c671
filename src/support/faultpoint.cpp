#include "support/faultpoint.h"

#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

namespace stc::fault {
namespace {

struct Registry {
  std::mutex mu;
  bool env_loaded = false;
  std::map<std::string, std::uint64_t, std::less<>> hit_counts;
  // point -> absolute hit number that fires (0 = disarmed after firing).
  std::map<std::string, std::uint64_t, std::less<>> armed;
  // point -> absolute hit number that SIGKILLs the process (STC_CRASH).
  std::map<std::string, std::uint64_t, std::less<>> crash_armed;
  std::string dump_path;  // STC_FAULT_DUMP target, empty = no dump
  double rate = 0.0;      // probabilistic mode when > 0
  std::uint64_t seed = 0;
};

Registry& registry() {
  static Registry r;
  return r;
}

// SplitMix64-style avalanche over (seed, point, hit) — deterministic and
// well-distributed, so rate r fires ~r of hits regardless of point naming.
std::uint64_t mix(std::uint64_t seed, std::string_view point,
                  std::uint64_t hit) {
  std::uint64_t h = seed ^ 0x9e3779b97f4a7c15ull;
  for (const char c : point) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 0xbf58476d1ce4e5b9ull;
  }
  h ^= hit + 0x94d049bb133111ebull;
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

// Parses "a.b:2,c.d" into (point, nth) pairs; first error wins.
Status parse_spec(std::string_view spec,
                  std::vector<std::pair<std::string, std::uint64_t>>* out) {
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    std::size_t end = spec.find(',', begin);
    if (end == std::string_view::npos) end = spec.size();
    const std::string_view entry = spec.substr(begin, end - begin);
    begin = end + 1;
    if (entry.empty()) {
      if (end == spec.size()) break;
      return invalid_argument_error("empty entry in fault spec '" +
                                    std::string(spec) + "'");
    }
    std::string_view point = entry;
    std::uint64_t nth = 1;
    if (const std::size_t colon = entry.rfind(':');
        colon != std::string_view::npos) {
      point = entry.substr(0, colon);
      const std::string count(entry.substr(colon + 1));
      char* parse_end = nullptr;
      errno = 0;
      nth = std::strtoull(count.c_str(), &parse_end, 10);
      if (count.empty() || *parse_end != '\0' || nth == 0 ||
          errno == ERANGE) {
        return invalid_argument_error("fault spec '" + std::string(entry) +
                                      "': count after ':' must be a positive "
                                      "integer");
      }
    }
    if (point.empty()) {
      return invalid_argument_error("fault spec '" + std::string(entry) +
                                    "' has an empty point name");
    }
    out->emplace_back(std::string(point), nth);
    if (end == spec.size()) break;
  }
  return Status::ok();
}

// Must hold r.mu. Parses and applies the spec; returns the first error.
Status arm_spec_locked(Registry& r, std::string_view spec) {
  std::vector<std::pair<std::string, std::uint64_t>> entries;
  if (Status s = parse_spec(spec, &entries); !s.is_ok()) return s;
  for (const auto& [point, nth] : entries) {
    r.armed[point] = r.hit_counts[point] + nth;
  }
  return Status::ok();
}

// Appends one "point hit-count" line per seen point to STC_FAULT_DUMP.
// Append mode: every process that shares the dump path adds its own lines;
// readers take the max count per point, which is exactly the per-process hit
// number STC_CRASH arming needs.
void dump_hits_at_exit() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  if (r.dump_path.empty()) return;
  std::FILE* f = std::fopen(r.dump_path.c_str(), "ab");
  if (f == nullptr) return;
  std::string out;
  for (const auto& [point, count] : r.hit_counts) {
    out += point;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  // One fwrite per process keeps concurrent dumps line-intact in practice.
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
}

// Must hold r.mu. Parses a crash spec and arms SIGKILL hits.
Status arm_crash_spec_locked(Registry& r, std::string_view spec) {
  std::vector<std::pair<std::string, std::uint64_t>> entries;
  if (Status s = parse_spec(spec, &entries); !s.is_ok()) return s;
  for (const auto& [point, nth] : entries) {
    r.crash_armed[point] = r.hit_counts[point] + nth;
  }
  return Status::ok();
}

// Must hold r.mu. One-time arming from the environment.
void load_env_locked(Registry& r) {
  if (r.env_loaded) return;
  r.env_loaded = true;
  if (const char* spec = std::getenv("STC_FAULT")) {
    const Status s = arm_spec_locked(r, spec);
    if (!s.is_ok()) {
      // Misconfigured injection must not silently run a clean experiment.
      std::fprintf(stderr, "STC_FAULT: %s\n", s.to_string().c_str());
      std::exit(2);
    }
  }
  if (const char* spec = std::getenv("STC_CRASH")) {
    const Status s = arm_crash_spec_locked(r, spec);
    if (!s.is_ok()) {
      std::fprintf(stderr, "STC_CRASH: %s\n", s.to_string().c_str());
      std::exit(2);
    }
  }
  if (const char* dump = std::getenv("STC_FAULT_DUMP")) {
    if (*dump != '\0') {
      r.dump_path = dump;
      std::atexit(dump_hits_at_exit);
    }
  }
  if (const char* rate = std::getenv("STC_FAULT_RATE")) {
    char* end = nullptr;
    const double parsed = std::strtod(rate, &end);
    if (end == rate || *end != '\0' || parsed < 0.0 || parsed > 1.0) {
      std::fprintf(stderr,
                   "STC_FAULT_RATE=%s: expected a probability in [0,1]\n",
                   rate);
      std::exit(2);
    }
    r.rate = parsed;
  }
  if (const char* seed = std::getenv("STC_FAULT_SEED")) {
    r.seed = std::strtoull(seed, nullptr, 10);
  }
}

}  // namespace

bool fire(std::string_view point) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  load_env_locked(r);
  const std::uint64_t hit = ++r.hit_counts[std::string(point)];
  if (const auto it = r.crash_armed.find(point);
      it != r.crash_armed.end() && it->second == hit) {
    // Die the way a real crash does: no unwinding, no atexit, no flush.
    // SIGKILL cannot be caught, so anything not already durable is lost —
    // which is the property the resume path is tested against.
    ::kill(::getpid(), SIGKILL);
  }
  if (const auto it = r.armed.find(point); it != r.armed.end()) {
    if (it->second == hit) {
      r.armed.erase(it);  // one-shot: retries of the same site succeed
      return true;
    }
  }
  if (r.rate > 0.0) {
    const double u =
        static_cast<double>(mix(r.seed, point, hit) >> 11) * 0x1p-53;
    if (u < r.rate) return true;
  }
  return false;
}

Status fail_if(std::string_view point, std::string_view what) {
  if (!fire(point)) return Status::ok();
  return fault_injected_error(std::string(what) + " (fault point '" +
                              std::string(point) + "')");
}

void arm(std::string_view point, std::uint64_t nth) {
  STC_REQUIRE(nth > 0);
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  load_env_locked(r);
  r.armed[std::string(point)] = r.hit_counts[std::string(point)] + nth;
}

void arm_probabilistic(double rate, std::uint64_t seed) {
  STC_REQUIRE(rate >= 0.0 && rate <= 1.0);
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  load_env_locked(r);
  r.rate = rate;
  r.seed = seed;
}

void arm_crash(std::string_view point, std::uint64_t nth) {
  STC_REQUIRE(nth > 0);
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  load_env_locked(r);
  r.crash_armed[std::string(point)] = r.hit_counts[std::string(point)] + nth;
}

Status arm_from_spec(std::string_view spec) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  load_env_locked(r);
  return arm_spec_locked(r, spec);
}

Status validate_spec(std::string_view spec) {
  std::vector<std::pair<std::string, std::uint64_t>> entries;
  return parse_spec(spec, &entries);
}

void reset() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.env_loaded = true;  // tests own the state from here on
  r.hit_counts.clear();
  r.armed.clear();
  r.crash_armed.clear();
  r.rate = 0.0;
  r.seed = 0;
}

std::uint64_t hits(std::string_view point) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  const auto it = r.hit_counts.find(point);
  return it == r.hit_counts.end() ? 0 : it->second;
}

}  // namespace stc::fault
