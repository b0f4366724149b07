#include "common/table.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "common/error.hpp"

namespace rrf {

TextTable& TextTable::header(std::vector<std::string> cells) {
  header_ = std::move(cells);
  return *this;
}

TextTable& TextTable::row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
  return *this;
}

std::string TextTable::num(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string TextTable::pct(double fraction, int precision) {
  return num(fraction * 100.0, precision) + "%";
}

void TextTable::print(std::ostream& os) const {
  std::vector<std::size_t> widths;
  auto widen = [&widths](const std::vector<std::string>& cells) {
    if (widths.size() < cells.size()) widths.resize(cells.size(), 0);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      widths[i] = std::max(widths[i], cells[i].size());
    }
  };
  widen(header_);
  for (const auto& r : rows_) widen(r);

  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      os << "| " << std::left << std::setw(static_cast<int>(widths[i]))
         << cells[i] << " ";
    }
    os << "|\n";
  };

  if (!title_.empty()) os << "== " << title_ << " ==\n";
  if (!header_.empty()) {
    emit(header_);
    std::size_t total = 1;
    for (std::size_t w : widths) total += w + 3;
    os << std::string(total, '-') << "\n";
  }
  for (const auto& r : rows_) emit(r);
}

std::string TextTable::to_string() const {
  std::ostringstream os;
  print(os);
  return os.str();
}

namespace {
std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}
}  // namespace

void write_csv(const std::string& path,
               const std::vector<std::vector<std::string>>& rows) {
  std::ofstream f(path);
  if (!f) throw DomainError("cannot open CSV file for writing: " + path);
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i != 0) f << ',';
      f << csv_escape(row[i]);
    }
    f << '\n';
  }
  if (!f) throw DomainError("write failure on CSV file: " + path);
}

double parse_csv_number(const std::string& cell, const std::string& where) {
  double value = 0.0;
  std::size_t used = 0;
  try {
    value = std::stod(cell, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  // stod skips leading whitespace; allow trailing whitespace (a CRLF
  // file's '\r') but nothing else after the number.
  if (used == 0 ||
      cell.find_first_not_of(" \t\r", used) != std::string::npos) {
    throw DomainError(where + ": not a number: " + cell);
  }
  if (!std::isfinite(value)) {
    throw DomainError(where + ": not a finite number: " + cell);
  }
  return value;
}

}  // namespace rrf
