// Torn-input coverage for the JSON reader. The resume path hands this
// parser whatever half-written bytes a crash left behind — every truncated,
// split, or corrupted document must come back as a clean parse error ("stop
// here"), never UB, never a partially-populated value mistaken for data.
#include "support/json_read.h"

#include <gtest/gtest.h>

#include <string>

namespace stc {
namespace {

// Parses and returns whether the parser reported an error; the call itself
// must be safe for any byte content.
bool parse_fails(const std::string& doc) {
  std::string error;
  const JsonValue value = parse_json(doc, &error);
  (void)value;
  return !error.empty();
}

TEST(JsonReadTornTest, MidTokenEofIsAnErrorNotUb) {
  // Every class of token cut off mid-way.
  for (const char* doc : {
           "",            // nothing at all
           "{",           // open object
           "{\"a\"",      // key without colon
           "{\"a\":",     // colon without value
           "{\"a\": 1,",  // trailing comma, no pair
           "[",           // open array
           "[1, 2",       // unterminated array
           "\"abc",       // unterminated string
           "\"abc\\",     // string ending in a bare escape
           "\"abc\\u00",  // truncated \u escape
           "tru",         // truncated literal
           "fals",        //
           "nul",         //
           "{\"a\": 123.45e+",
       }) {
    EXPECT_TRUE(parse_fails(doc)) << "doc: " << doc;
  }
}

TEST(JsonReadTornTest, TruncatedBareNumbersAreLenientButNeverUb) {
  // The number scanner takes strtod semantics: a bare "-" or "1e" consumes
  // as a (zero-or-partial) number token rather than erroring. That leniency
  // is fine — journal/report payloads are objects, where the truncation
  // surfaces as a structural error (previous test) — but it must stay a
  // defined, non-UB parse.
  for (const char* doc : {"-", "1e", "1.", "+"}) {
    std::string error;
    const JsonValue value = parse_json(doc, &error);
    EXPECT_TRUE(error.empty()) << "doc: " << doc;
    EXPECT_TRUE(value.is_number()) << "doc: " << doc;
  }
}

TEST(JsonReadTornTest, SplitUtf8SequencesStopCleanly) {
  // Multi-byte UTF-8 cut mid-sequence before the closing quote — the string
  // never terminates, so the parse must fail without reading past the end.
  const std::string euro = "\xE2\x82\xAC";  // €
  EXPECT_TRUE(parse_fails(std::string("\"").append(euro.substr(0, 1))));
  EXPECT_TRUE(parse_fails(std::string("\"").append(euro.substr(0, 2))));
  EXPECT_TRUE(parse_fails("{\"k" + euro.substr(0, 2)));
  // The same bytes with their quote intact parse fine: the reader passes
  // unrecognized high bytes through rather than validating encodings.
  EXPECT_FALSE(parse_fails("\"" + euro + "\""));
}

TEST(JsonReadTornTest, EveryPrefixOfARealRecordFailsOrParses) {
  // The exact shape the journal and report writers emit, prefix by prefix —
  // the property a crashed writer actually exercises. Each prefix must
  // either parse (a lucky cut on a complete value) or error; with the
  // sanitizer jobs in CI this doubles as a memory-safety sweep.
  const std::string record =
      "{\n"
      "  \"index\": 3,\n"
      "  \"name\": \"cell \\\"3\\\" \\u0041\",\n"
      "  \"status\": \"ok\",\n"
      "  \"attempts\": 1,\n"
      "  \"metrics\": {\n"
      "    \"value\": 3.75,\n"
      "    \"third\": 0.6666666666666666,\n"
      "    \"negative\": -1.5e-3\n"
      "  },\n"
      "  \"counters\": {\n"
      "    \"instructions\": 18446744073709551615\n"
      "  },\n"
      "  \"flags\": [true, false, null]\n"
      "}";
  std::string full_error;
  parse_json(record, &full_error);
  ASSERT_TRUE(full_error.empty()) << full_error;

  std::size_t failed = 0;
  for (std::size_t cut = 0; cut < record.size(); ++cut) {
    std::string error;
    const JsonValue value = parse_json(record.substr(0, cut), &error);
    (void)value;
    if (!error.empty()) ++failed;
  }
  // Nearly every prefix is torn; a handful (e.g. whitespace-trimmed ends)
  // could parse if the document were a bare scalar, but an object cut short
  // never parses — all prefixes of this record must fail.
  EXPECT_EQ(failed, record.size());
}

TEST(JsonReadTornTest, HalfWrittenJournalPayloadIsARejectedRecord) {
  // What absorb sees when a CRC collision or manual edit lets a torn
  // payload through the framing: truncated JSON → parse error → the record
  // is dropped, not absorbed.
  const std::string payload =
      "{\"index\": 2, \"name\": \"cell 2\", \"status\": \"ok\", "
      "\"metrics\": {\"value\": 2.5}, \"counters\": {\"instructions\": 201}}";
  for (const std::size_t cut : {payload.size() - 1, payload.size() / 2,
                                std::size_t{1}}) {
    EXPECT_TRUE(parse_fails(payload.substr(0, cut))) << "cut " << cut;
  }
}

TEST(JsonReadTornTest, GarbageAfterACompleteValueIsAnError) {
  EXPECT_TRUE(parse_fails("{} trailing"));
  EXPECT_TRUE(parse_fails("1 2"));
  EXPECT_FALSE(parse_fails("{} \n\t "));  // trailing whitespace is fine
}

}  // namespace
}  // namespace stc
