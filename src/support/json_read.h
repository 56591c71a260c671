// Minimal recursive-descent JSON reader.
//
// Just enough to read back the documents support/json.h writes (BENCH_*.json
// reports and experiment journal records): objects keep key insertion order
// so structural comparisons — and byte-deterministic re-serialization via
// json_number()'s round-trip guarantee — work against the exact order the
// writer emits. Not a general validator: numbers parse via strtod, strings
// handle the writer's escape set, and parse errors surface as a null value
// plus an error string.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace stc {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;  // string value, or the raw token for numbers
  std::vector<JsonValue> items;                            // arrays
  std::vector<std::pair<std::string, JsonValue>> members;  // objects

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }

  // Object member lookup; nullptr when absent (or not an object).
  const JsonValue* find(const std::string& key) const;
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view doc) : doc_(doc) {}

  // Parses the whole document; on failure returns null and sets error().
  JsonValue parse();

  const std::string& error() const { return error_; }

 private:
  void set_error(const std::string& what);
  void skip_ws();
  bool consume(char c);
  bool literal(std::string_view word);
  JsonValue value();
  JsonValue number();
  std::string string();
  JsonValue array();
  JsonValue object();

  std::string_view doc_;
  std::size_t pos_ = 0;
  std::string error_;
};

// One-shot convenience wrapper around JsonParser.
JsonValue parse_json(std::string_view doc, std::string* error = nullptr);

}  // namespace stc
