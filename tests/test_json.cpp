// Coverage for the minimal JSON reader behind suite files and the JSONL
// sink: happy-path structure, number spelling preservation, and the
// line:column error positions suite-file diagnostics rely on.
#include "src/common/json.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace colscore {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(json_parse("null").is_null());
  EXPECT_TRUE(json_parse("true").boolean);
  EXPECT_FALSE(json_parse("false").boolean);
  EXPECT_DOUBLE_EQ(json_parse("-2.5e2").number, -250.0);
  EXPECT_EQ(json_parse("\"hi\\n\\\"there\\\"\"").text, "hi\n\"there\"");
}

TEST(Json, NumbersKeepTheirSourceSpelling) {
  // Integer-valued config fields must round-trip into override strings
  // without a float detour.
  EXPECT_EQ(json_parse("64").text, "64");
  EXPECT_EQ(json_parse("18446744073709551615").text, "18446744073709551615");
  EXPECT_EQ(json_parse("0.25").text, "0.25");
}

TEST(Json, ParsesNestedStructure) {
  const JsonValue v = json_parse(
      R"({"name": "smoke", "grids": ["n=1,2", "n=3"], "reps": 2,
          "nested": {"deep": [true, null]}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("name")->text, "smoke");
  ASSERT_TRUE(v.find("grids")->is_array());
  EXPECT_EQ(v.find("grids")->items.size(), 2u);
  EXPECT_EQ(v.find("grids")->items[1].text, "n=3");
  EXPECT_EQ(v.find("reps")->number, 2.0);
  EXPECT_TRUE(v.find("nested")->find("deep")->items[0].boolean);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, ObjectMembersPreserveOrderAndRejectDuplicates) {
  const JsonValue v = json_parse(R"({"z": 1, "a": 2})");
  ASSERT_EQ(v.members.size(), 2u);
  EXPECT_EQ(v.members[0].first, "z");
  EXPECT_EQ(v.members[1].first, "a");
  EXPECT_THROW(json_parse(R"({"k": 1, "k": 2})"), JsonError);
}

TEST(Json, UnicodeEscapesDecodeToUtf8) {
  EXPECT_EQ(json_parse(R"("\b\f\r\t\/\n\"\\")").text, "\b\f\r\t/\n\"\\");
  EXPECT_EQ(json_parse("\"\\u0041\"").text, "A");
  EXPECT_EQ(json_parse("\"\\u00e9\"").text, "\xc3\xa9");    // é
  EXPECT_EQ(json_parse("\"\\u20ac\"").text, "\xe2\x82\xac");  // €
}

TEST(Json, ErrorsCarryLineAndColumn) {
  try {
    json_parse("{\n  \"a\": 1,\n  \"b\": }\n");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  }
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_THROW(json_parse(""), JsonError);
  EXPECT_THROW(json_parse("{"), JsonError);
  EXPECT_THROW(json_parse("[1, 2,]"), JsonError);  // no trailing commas
  EXPECT_THROW(json_parse("\"unterminated"), JsonError);
  EXPECT_THROW(json_parse("{\"a\" 1}"), JsonError);
  EXPECT_THROW(json_parse("12 34"), JsonError);  // trailing content
  EXPECT_THROW(json_parse("nope"), JsonError);
  // Each string and number error names its cause.
  for (const auto& [doc, message] : std::vector<std::pair<std::string, std::string>>{
           {"\"ab\\", "unterminated escape"},
           {"\"\\u12", "truncated \\u escape"},
           {"\"\\u12g4\"", "non-hex digit in \\u escape"},
           {"\"\\q\"", "unknown escape '\\q'"},
           {"\"a\nb\"", "raw newline inside a string"},
           {"-", "malformed number '-'"},
           {"[1e]", "malformed number '1e'"}}) {
    try {
      (void)json_parse(doc);
      ADD_FAILURE() << "expected JsonError for: " << doc;
    } catch (const JsonError& e) {
      EXPECT_NE(std::string(e.what()).find("json: " + message + " at line"),
                std::string::npos)
          << doc << ": " << e.what();
    }
  }
}

TEST(Json, NestingDeeperThanTheCapFails) {
  // The parser recurses once per level: without the cap, 200,000 nested
  // brackets in a suite file overflowed the stack.
  for (const auto& [open, close] : {std::pair{"[", "]"}, std::pair{"{\"k\": ", "}"}}) {
    std::string doc = "0";
    for (std::size_t depth = 0; depth < kMaxJsonDepth; ++depth) doc = open + doc + close;
    EXPECT_NO_THROW(json_parse(doc)) << open;
    EXPECT_THROW(json_parse(open + doc + close), JsonError) << open;
  }
}

TEST(Json, QuoteEscapesControlCharacters) {
  EXPECT_EQ(json_quote("plain"), "\"plain\"");
  EXPECT_EQ(json_quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(json_quote("tab\there"), "\"tab\\there\"");
  EXPECT_EQ(json_quote(std::string(1, '\x01')), "\"\\u0001\"");
  // Round trip through the parser.
  EXPECT_EQ(json_parse(json_quote("n\newline \"x\"")).text, "n\newline \"x\"");
}

}  // namespace
}  // namespace colscore
