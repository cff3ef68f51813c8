#include "src/common/csv.hpp"

#include "src/common/assert.hpp"

namespace colscore {

CsvWriter::CsvWriter(std::ostream& out, std::vector<std::string> columns)
    : out_(out), width_(columns.size()) {
  CS_ASSERT(width_ > 0, "csv: empty header");
  write_row(columns);
  rows_ = 0;  // header does not count
}

void CsvWriter::row(std::initializer_list<std::string> values) {
  write_row(std::vector<std::string>(values));
}

void CsvWriter::row(const std::vector<std::string>& values) { write_row(values); }

void CsvWriter::write_row(const std::vector<std::string>& cells) {
  CS_ASSERT(cells.size() == width_, "csv: row width mismatch");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i != 0) out_ << ',';
    // Quote cells containing separators.
    if (cells[i].find_first_of(",\"\n") != std::string::npos) {
      out_ << '"';
      for (char c : cells[i]) {
        if (c == '"') out_ << '"';
        out_ << c;
      }
      out_ << '"';
    } else {
      out_ << cells[i];
    }
  }
  out_ << '\n';
  ++rows_;
}

bool split_csv_row(std::string_view line, std::vector<std::string>& cells) {
  cells.clear();
  std::size_t pos = 0;
  for (;;) {
    std::string cell;
    if (pos < line.size() && line[pos] == '"') {
      ++pos;
      for (;;) {
        if (pos >= line.size()) return false;  // unterminated quote
        if (line[pos] == '"') {
          if (pos + 1 < line.size() && line[pos + 1] == '"') {
            cell += '"';
            pos += 2;
            continue;
          }
          ++pos;
          break;
        }
        cell += line[pos++];
      }
      if (pos < line.size() && line[pos] != ',') return false;
    } else {
      const std::size_t comma = line.find(',', pos);
      cell = line.substr(pos, comma - pos);
      pos = comma == std::string_view::npos ? line.size() : comma;
    }
    cells.push_back(std::move(cell));
    if (pos >= line.size()) return true;
    ++pos;  // the comma
  }
}

}  // namespace colscore
