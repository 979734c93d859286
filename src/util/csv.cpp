#include "util/csv.hpp"

#include <charconv>
#include <stdexcept>

namespace drapid {

CsvRow parse_csv_line(std::string_view line, char delim) {
  CsvRow row;
  std::string field;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          field.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field.push_back(c);
      }
    } else if (c == '"' && field.empty()) {
      in_quotes = true;
    } else if (c == delim) {
      row.push_back(std::move(field));
      field.clear();
    } else if (c == '\r') {
      // tolerate CRLF
    } else {
      field.push_back(c);
    }
  }
  row.push_back(std::move(field));
  return row;
}

void append_double(std::string& out, double v, int precision) {
  if (precision > 17) {
    throw std::invalid_argument("append_double: precision above 17");
  }
  // Longest %.17g spelling: sign, 17 digits, point, "e-308" — or, in the
  // fixed branch, sign, "0.000" and 17 digits.
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::general, precision);
  out.append(buf, res.ptr);
}

std::string format_double(double v, int precision) {
  std::string out;
  append_double(out, v, precision);
  return out;
}

std::string format_csv_row(const CsvRow& row, char delim) {
  std::size_t length = row.empty() ? 0 : row.size() - 1;
  for (const auto& f : row) length += f.size();
  std::string out;
  out.reserve(length);
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i) out.push_back(delim);
    const std::string& f = row[i];
    bool needs_quote = false;
    for (const char c : f) {
      if (c == delim || c == '"') {
        needs_quote = true;
        break;
      }
    }
    if (!needs_quote) {
      out += f;
      continue;
    }
    out.push_back('"');
    for (char c : f) {
      if (c == '"') out += "\"\"";
      else out.push_back(c);
    }
    out.push_back('"');
  }
  return out;
}

double parse_double(std::string_view text) {
  // Trim surrounding whitespace; survey files are space-padded.
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t'))
    text.remove_prefix(1);
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t' ||
                           text.back() == '\r'))
    text.remove_suffix(1);
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    throw std::runtime_error("not a number: '" + std::string(text) + "'");
  }
  return value;
}

long long parse_int(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t'))
    text.remove_prefix(1);
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t' ||
                           text.back() == '\r'))
    text.remove_suffix(1);
  long long value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    throw std::runtime_error("not an integer: '" + std::string(text) + "'");
  }
  return value;
}

}  // namespace drapid
