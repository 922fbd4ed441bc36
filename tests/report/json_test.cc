#include "src/report/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>

namespace heterollm::report {
namespace {

TEST(FormatJsonNumber, IntegralValuesPrintWithoutFraction) {
  EXPECT_EQ(FormatJsonNumber(0), "0");
  EXPECT_EQ(FormatJsonNumber(-0.0), "0");
  EXPECT_EQ(FormatJsonNumber(1), "1");
  EXPECT_EQ(FormatJsonNumber(-42), "-42");
  EXPECT_EQ(FormatJsonNumber(1e6), "1000000");
  EXPECT_EQ(FormatJsonNumber(9007199254740992.0), "9007199254740992");
}

TEST(FormatJsonNumber, ShortestRoundTrip) {
  // The shortest form that strtod parses back to the same bits.
  EXPECT_EQ(FormatJsonNumber(0.1), "0.1");
  EXPECT_EQ(FormatJsonNumber(0.3), "0.3");
  EXPECT_EQ(FormatJsonNumber(1.0 / 3.0), "0.3333333333333333");
  for (double v : {3.14159, 2.5e-8, 1.7976931348623157e308, 6.626e-34,
                   123.456789, 0.1 + 0.2}) {
    const std::string s = FormatJsonNumber(v);
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
  }
}

TEST(FormatJsonNumber, NonFiniteSerializesAsNull) {
  EXPECT_EQ(FormatJsonNumber(std::numeric_limits<double>::quiet_NaN()),
            "null");
  EXPECT_EQ(FormatJsonNumber(std::numeric_limits<double>::infinity()),
            "null");
  EXPECT_EQ(FormatJsonNumber(-std::numeric_limits<double>::infinity()),
            "null");
}

TEST(EscapeJsonString, EscapesControlAndSpecialCharacters) {
  EXPECT_EQ(EscapeJsonString("plain"), "plain");
  EXPECT_EQ(EscapeJsonString("a\"b"), "a\\\"b");
  EXPECT_EQ(EscapeJsonString("a\\b"), "a\\\\b");
  EXPECT_EQ(EscapeJsonString("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(EscapeJsonString("\r\b\f"), "\\r\\b\\f");
  EXPECT_EQ(EscapeJsonString(std::string(1, '\x01')), "\\u0001");
  // Non-ASCII bytes pass through untouched (UTF-8 stays UTF-8).
  EXPECT_EQ(EscapeJsonString("µs"), "µs");
}

TEST(JsonValue, ObjectMembersKeepInsertionOrder) {
  JsonValue obj = JsonValue::Object();
  obj.Set("zeta", 1);
  obj.Set("alpha", 2);
  obj.Set("mid", 3);
  EXPECT_EQ(obj.Dump(), "{\"zeta\":1,\"alpha\":2,\"mid\":3}");
  obj.Set("alpha", 9);  // overwrite keeps the slot
  EXPECT_EQ(obj.Dump(), "{\"zeta\":1,\"alpha\":9,\"mid\":3}");
}

TEST(JsonValue, GetOnAbsentKeyIsNull) {
  JsonValue obj = JsonValue::Object();
  obj.Set("present", 1.5);
  EXPECT_TRUE(obj.Has("present"));
  EXPECT_FALSE(obj.Has("absent"));
  EXPECT_TRUE(obj.Get("absent").is_null());
  EXPECT_EQ(obj.GetNumber("present"), 1.5);
  EXPECT_EQ(obj.GetNumber("absent", -7), -7);
  EXPECT_EQ(obj.GetString("present", "fallback"), "fallback");
}

TEST(JsonValue, DumpPrettyPrintsNestedStructure) {
  JsonValue doc = JsonValue::Object();
  doc.Set("name", "bench");
  JsonValue arr = JsonValue::Array();
  arr.Append(1);
  arr.Append(2);
  doc.Set("values", std::move(arr));
  EXPECT_EQ(doc.Dump(2),
            "{\n  \"name\": \"bench\",\n  \"values\": [1, 2]\n}\n");
}

TEST(ParseJson, RoundTripsDocuments) {
  const std::string text =
      "{\"s\": \"a\\n\\\"b\\\"\", \"n\": -1.25e2, \"b\": true, "
      "\"nul\": null, \"arr\": [1, [2, {\"k\": 3}]]}";
  StatusOr<JsonValue> doc = ParseJson(text);
  ASSERT_TRUE(doc.ok()) << doc.status().message();
  EXPECT_EQ(doc->GetString("s"), "a\n\"b\"");
  EXPECT_EQ(doc->GetNumber("n"), -125.0);
  EXPECT_TRUE(doc->GetBool("b"));
  EXPECT_TRUE(doc->Get("nul").is_null());
  ASSERT_TRUE(doc->Get("arr").is_array());

  // Serialize -> parse -> compare: structural round trip.
  StatusOr<JsonValue> again = ParseJson(doc->Dump(2));
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(*doc == *again);
}

TEST(ParseJson, DecodesUnicodeEscapes) {
  StatusOr<JsonValue> doc = ParseJson("{\"u\": \"\\u00b5s \\u0041\"}");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->GetString("u"), "µs A");
}

TEST(ParseJson, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\": }", "{\"a\": 1} extra", "nul",
        "\"unterminated", "{\"a\" 1}", "01", "[1 2]"}) {
    EXPECT_FALSE(ParseJson(bad).ok()) << bad;
  }
}

TEST(ParseJson, RejectsUnescapedControlCharacters) {
  EXPECT_FALSE(ParseJson("\"tab\there\"").ok());
  EXPECT_FALSE(ParseJson("[\"\x01\"]").ok());
  StatusOr<JsonValue> escaped = ParseJson("\"tab\\there\\u0001\"");
  ASSERT_TRUE(escaped.ok());
  EXPECT_EQ(escaped->string_value(), "tab\there\x01");
}

TEST(ParseJson, RejectsOverDeepNesting) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  deep += "1";
  for (int i = 0; i < 100; ++i) deep += "]";
  EXPECT_FALSE(ParseJson(deep).ok());
}

TEST(ParseJson, DuplicateKeysKeepLastValue) {
  StatusOr<JsonValue> doc = ParseJson("{\"k\": 1, \"k\": 2}");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->GetNumber("k"), 2);
  EXPECT_EQ(doc->members().size(), 1u);
}

TEST(ParseJson, NumberFormatsReparseExactly) {
  // The serializer's shortest-form output must be valid parser input.
  for (double v : {0.1, 1e-300, 1e300, 1234567890.123, -0.25}) {
    StatusOr<JsonValue> parsed = ParseJson(FormatJsonNumber(v));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->number_value(), v);
  }
}

}  // namespace
}  // namespace heterollm::report
