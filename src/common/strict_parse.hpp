// Strict number parsing for user-facing text: CLI flags, suite-file keys,
// scenario overrides, fault specs, and resume artifacts. The whole string
// must spell one number, and a duration must lie in its range; otherwise
// the parse fails and the caller reports the failure in its own words.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

namespace colscore {

/// An unsigned integer spelled by all of `text` ("152489"). Rejects "", a
/// leading '-' (std::stoull would wrap "-1" to 2^64-1), trailing text
/// ("3.5", "1e3"), and values above 2^64-1.
inline std::optional<std::uint64_t> parse_strict_u64(const std::string& text) {
  if (text.empty() || text[0] == '-') return std::nullopt;
  try {
    std::size_t used = 0;
    const std::uint64_t value = std::stoull(text, &used);
    if (used == text.size()) return value;
  } catch (const std::logic_error&) {  // invalid_argument, out_of_range
  }
  return std::nullopt;
}

/// A double spelled by all of `text` ("0.25", "-3", "1e3", and the
/// non-finite spellings "nan", "inf", "-inf"). Rejects "", trailing text,
/// and values outside the double range.
inline std::optional<double> parse_strict_f64(const std::string& text) {
  try {
    std::size_t used = 0;
    const double value = std::stod(text, &used);
    if (used == text.size()) return value;
  } catch (const std::logic_error&) {
  }
  return std::nullopt;
}

/// The longest duration a flag, a suite-file key or a fault spec may name:
/// one day. A retry waits at most 2^20 times the backoff, which keeps every
/// wait far inside the integer tick count std::this_thread::sleep_for
/// converts it to; a larger double makes that conversion undefined.
inline constexpr std::size_t kMaxDurationSeconds = 24 * 60 * 60;

/// True for seconds in [0, kMaxDurationSeconds]; false for NaN and
/// infinities.
inline bool in_duration_range(double seconds) {
  return seconds >= 0 && seconds <= static_cast<double>(kMaxDurationSeconds);
}

/// The one wording for a rejected duration: `name` (a flag, a quoted key or
/// a fault value) and the text it was given.
inline std::string duration_error(const std::string& name, const std::string& got) {
  return name + " must be a number of seconds in [0, " +
         std::to_string(kMaxDurationSeconds) + "] (got " + got + ")";
}

/// Seconds spelled by all of `text` ("0.5", "2") that lie in the duration
/// range; nullopt for anything else.
inline std::optional<double> parse_duration_seconds(const std::string& text) {
  const std::optional<double> seconds = parse_strict_f64(text);
  if (!seconds || !in_duration_range(*seconds)) return std::nullopt;
  return seconds;
}

}  // namespace colscore
