// Minimal CSV line parsing and formatting.
//
// The paper's pipeline exchanges every artifact as CSV-ish text files: SPE
// files emitted by the single-pulse search, cluster files from DBSCAN, and the
// ML feature files D-RAPID writes back to the distributed store. This module
// gives those formats one tested implementation.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace drapid {

/// One parsed CSV row.
using CsvRow = std::vector<std::string>;

/// Splits a single CSV line on `delim`. Supports double-quoted fields with
/// "" escapes; does not support embedded newlines (none of our formats use
/// them).
CsvRow parse_csv_line(std::string_view line, char delim = ',');

/// Appends `v` spelled exactly as printf("%.*g", precision, v) spells it in
/// the "C" locale — which is also what a classic-locale ostream with
/// precision(`precision`) writes — whatever the global locale is. Every
/// survey file writes its numbers through this one formatter, so a
/// decimal-comma locale cannot leak a ',' into a CSV field. Precision 17
/// round-trips any double; precisions above 17 throw std::invalid_argument.
void append_double(std::string& out, double v, int precision = 6);

/// format_double(v, p) == the string append_double(out, v, p) appends.
std::string format_double(double v, int precision = 6);

/// Serializes a row, quoting fields that contain the delimiter or quotes.
std::string format_csv_row(const CsvRow& row, char delim = ',');

/// Parses a double, throwing std::runtime_error with the offending text on
/// failure — used so malformed survey files fail loudly with context.
double parse_double(std::string_view text);
long long parse_int(std::string_view text);

}  // namespace drapid
