// Golden-file JSON comparison shared by the report schema-lock tests.
//
// Structure (key set, key ORDER, value kinds, array lengths) must match the
// golden exactly; numbers must match within tolerance; paths the caller
// declares volatile (wall-clock-derived fields) need only be present,
// numeric and sane. Key order is part of the schema: the writer guarantees
// insertion order, and consumers (CI validators, plotting scripts) rely on
// it. Regenerate any golden with STC_UPDATE_GOLDEN=1 and review the diff —
// a change here is a report-consumer-visible change.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "support/json_read.h"

namespace stc::testing {

using VolatilePredicate = bool (*)(const std::string& path);

inline void compare_json(const JsonValue& golden, const JsonValue& actual,
                         const std::string& path,
                         VolatilePredicate is_volatile) {
  ASSERT_EQ(static_cast<int>(golden.kind), static_cast<int>(actual.kind))
      << "value kind changed at " << path;
  switch (golden.kind) {
    case JsonValue::Kind::kObject: {
      ASSERT_EQ(golden.members.size(), actual.members.size())
          << "key set changed at " << path;
      for (std::size_t i = 0; i < golden.members.size(); ++i) {
        ASSERT_EQ(golden.members[i].first, actual.members[i].first)
            << "key #" << i << " changed at " << path;
        compare_json(golden.members[i].second, actual.members[i].second,
                     path.empty() ? golden.members[i].first
                                  : path + "." + golden.members[i].first,
                     is_volatile);
      }
      break;
    }
    case JsonValue::Kind::kArray: {
      ASSERT_EQ(golden.items.size(), actual.items.size())
          << "array length changed at " << path;
      for (std::size_t i = 0; i < golden.items.size(); ++i) {
        compare_json(golden.items[i], actual.items[i],
                     path + "[" + std::to_string(i) + "]", is_volatile);
      }
      break;
    }
    case JsonValue::Kind::kNumber: {
      if (is_volatile != nullptr && is_volatile(path)) {
        EXPECT_TRUE(std::isfinite(actual.number)) << path;
        EXPECT_GE(actual.number, 0.0) << path;
        break;
      }
      const double tol = 1e-9 * std::max(1.0, std::fabs(golden.number));
      EXPECT_NEAR(actual.number, golden.number, tol) << path;
      break;
    }
    case JsonValue::Kind::kString:
      EXPECT_EQ(golden.text, actual.text) << path;
      break;
    case JsonValue::Kind::kBool:
      EXPECT_EQ(golden.boolean, actual.boolean) << path;
      break;
    case JsonValue::Kind::kNull:
      break;
  }
}

// Compares `report` against the golden file at `golden_path`. With
// STC_UPDATE_GOLDEN set, rewrites the golden and skips the test instead.
inline void check_against_golden(const std::string& report,
                                 const std::string& golden_path,
                                 VolatilePredicate is_volatile) {
  if (std::getenv("STC_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << report << "\n";
    GTEST_SKIP() << "golden regenerated at " << golden_path;
  }
  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path;
  std::stringstream buf;
  buf << in.rdbuf();

  std::string golden_err;
  std::string actual_err;
  const JsonValue golden = parse_json(buf.str(), &golden_err);
  const JsonValue actual = parse_json(report, &actual_err);
  ASSERT_EQ(golden_err, "") << "golden file does not parse";
  ASSERT_EQ(actual_err, "") << "report does not parse";
  compare_json(golden, actual, "", is_volatile);
}

}  // namespace stc::testing
