#include "src/common/json.hpp"

#include <cctype>
#include <charconv>

namespace colscore {

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members)
    if (name == key) return &value;
  return nullptr;
}

const char* JsonValue::kind_name() const {
  switch (kind) {
    case Kind::kNull: return "null";
    case Kind::kBool: return "boolean";
    case Kind::kNumber: return "number";
    case Kind::kString: return "string";
    case Kind::kArray: return "array";
    case Kind::kObject: return "object";
  }
  return "?";
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after the document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') { ++line; col = 1; }
      else ++col;
    }
    throw JsonError("json: " + what + " at line " + std::to_string(line) +
                    ":" + std::to_string(col));
  }

  bool done() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  void skip_ws() {
    while (!done()) {
      const char c = peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') ++pos_;
      else break;
    }
  }

  void expect(char c, const char* where) {
    if (done() || peek() != c)
      fail(std::string("expected '") + c + "' " + where);
    ++pos_;
  }

  bool consume_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    if (done()) fail("unexpected end of document");
    const char c = peek();
    if (c == '{' || c == '[') {
      if (depth_ == kMaxJsonDepth)
        fail("nesting deeper than " + std::to_string(kMaxJsonDepth));
      ++depth_;
      JsonValue v = c == '{' ? parse_object() : parse_array();
      --depth_;
      return v;
    }
    if (c == '"') {
      JsonValue v;
      v.kind = JsonValue::Kind::kString;
      v.text = parse_string();
      return v;
    }
    if (consume_literal("true")) {
      JsonValue v; v.kind = JsonValue::Kind::kBool; v.boolean = true; return v;
    }
    if (consume_literal("false")) {
      JsonValue v; v.kind = JsonValue::Kind::kBool; v.boolean = false; return v;
    }
    if (consume_literal("null")) return JsonValue{};
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
    fail(std::string("unexpected character '") + c + "'");
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (!done() && peek() == '-') ++pos_;
    while (!done() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (!done() && peek() == '.') {
      ++pos_;
      while (!done() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (!done() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!done() && (peek() == '+' || peek() == '-')) ++pos_;
      while (!done() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.text = std::string(text_.substr(start, pos_ - start));
    const char* first = v.text.data();
    const char* last = first + v.text.size();
    const auto [end, ec] = std::from_chars(first, last, v.number);
    if (ec != std::errc{} || end != last) {
      pos_ = start;
      fail("malformed number '" + v.text + "'");
    }
    return v;
  }

  std::string parse_string() {
    expect('"', "to open a string");
    std::string out;
    while (true) {
      if (done()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\n') { --pos_; fail("raw newline inside a string"); }
      if (c != '\\') { out += c; continue; }
      if (done()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else { pos_ -= 1; fail("non-hex digit in \\u escape"); }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are out of
          // scope for config files; a lone surrogate encodes as-is).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          pos_ -= 1;
          fail(std::string("unknown escape '\\") + esc + "'");
      }
    }
  }

  JsonValue parse_array() {
    expect('[', "to open an array");
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (!done() && peek() == ']') { ++pos_; return v; }
    while (true) {
      v.items.push_back(parse_value());
      skip_ws();
      if (done()) fail("unterminated array");
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return v; }
      fail("expected ',' or ']' in array");
    }
  }

  JsonValue parse_object() {
    expect('{', "to open an object");
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (!done() && peek() == '}') { ++pos_; return v; }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      if (v.find(key) != nullptr) fail("duplicate object key \"" + key + "\"");
      skip_ws();
      expect(':', "after an object key");
      v.members.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (done()) fail("unterminated object");
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return v; }
      fail("expected ',' or '}' in object");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // arrays and objects open around pos_
};

}  // namespace

JsonValue json_parse(std::string_view text) {
  return Parser(text).parse_document();
}

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char hex[] = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xF];
          out += hex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

}  // namespace colscore
