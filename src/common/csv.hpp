// Minimal CSV emitter for experiment outputs (stdout or file), and the
// splitter that reads its rows back.
#pragma once

#include <initializer_list>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace colscore {

class CsvWriter {
 public:
  /// Writes rows to `out`; the header row is emitted on construction.
  CsvWriter(std::ostream& out, std::vector<std::string> columns);

  /// Number of values must match the header width.
  void row(std::initializer_list<std::string> values);
  void row(const std::vector<std::string>& values);

  std::size_t rows_written() const noexcept { return rows_; }

 private:
  void write_row(const std::vector<std::string>& cells);

  std::ostream& out_;
  std::size_t width_;
  std::size_t rows_ = 0;
};

/// Splits one line CsvWriter wrote back into cells, undoing its quoting
/// ('"'-wrapped cells, '""' escapes). Embedded newlines are not supported —
/// nothing in the pipeline emits them. Returns false on a malformed line
/// (unterminated quote, text after a closing quote).
bool split_csv_row(std::string_view line, std::vector<std::string>& cells);

}  // namespace colscore
