// Strict number parsing for user-facing text: CLI flags, suite-file keys,
// scenario overrides, fault specs, and resume artifacts. The whole string
// must spell one number; otherwise the parse fails and the caller reports
// the failure in its own words.
#pragma once

#include <cctype>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

namespace colscore {

/// An unsigned integer spelled by all of `text` ("152489"). Rejects "",
/// anything before the first digit (std::stoull would skip whitespace, take
/// a '+' and wrap "-1" to 2^64-1), trailing text ("3.5", "1e3"), and values
/// above 2^64-1.
inline std::optional<std::uint64_t> parse_strict_u64(const std::string& text) {
  if (text.empty() || text[0] < '0' || text[0] > '9') return std::nullopt;
  try {
    std::size_t used = 0;
    const std::uint64_t value = std::stoull(text, &used);
    if (used == text.size()) return value;
  } catch (const std::logic_error&) {  // invalid_argument, out_of_range
  }
  return std::nullopt;
}

/// A double spelled by all of `text` ("0.25", "-3", "1e3", and the
/// non-finite spellings "nan", "inf", "-inf"). Rejects "", leading
/// whitespace (std::stod would skip it), trailing text, and values outside
/// the double range.
inline std::optional<double> parse_strict_f64(const std::string& text) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) return std::nullopt;
  try {
    std::size_t used = 0;
    const double value = std::stod(text, &used);
    if (used == text.size()) return value;
  } catch (const std::logic_error&) {
  }
  return std::nullopt;
}

}  // namespace colscore
