// Minimal JSON reader/writer for checked-in configuration artifacts (suite
// files) and line-oriented result output (JsonlSink).
//
// Scope is deliberately small: full parse of one document into a JsonValue
// tree, with errors that carry line:column positions. Numbers keep their
// source spelling (`raw`) so integer-valued config fields round-trip into
// scenario override strings without a float detour ("64" never becomes
// "64.000000"). Objects preserve insertion order and reject duplicate keys —
// a duplicated key in a config file is always a mistake worth naming.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace colscore {

/// Thrown on malformed documents. The message includes line:column and the
/// offending token or construct.
class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  /// Source spelling for numbers ("64", "0.25", "1e6"); value text for
  /// strings (unescaped).
  std::string text;
  std::vector<JsonValue> items;                              // arrays
  std::vector<std::pair<std::string, JsonValue>> members;    // objects

  bool is_null() const { return kind == Kind::kNull; }
  bool is_bool() const { return kind == Kind::kBool; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_object() const { return kind == Kind::kObject; }

  /// Object member lookup; nullptr when absent (or not an object).
  const JsonValue* find(std::string_view key) const;

  /// "null", "boolean", "number", "string", "array", "object" — for errors.
  const char* kind_name() const;
};

/// The deepest nesting of arrays and objects json_parse accepts. The parser
/// recurses once per level, so an unbounded depth lets a hostile file
/// overflow the stack; no suite file or result row nests deeper than 3.
inline constexpr std::size_t kMaxJsonDepth = 64;

/// Parses exactly one JSON document (trailing non-whitespace is an error;
/// so is nesting deeper than kMaxJsonDepth).
JsonValue json_parse(std::string_view text);

/// Escapes `s` as a JSON string literal, including the surrounding quotes.
std::string json_quote(std::string_view s);

}  // namespace colscore
