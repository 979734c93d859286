#include "spe/spe.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <stdexcept>
#include <string_view>

#include "util/csv.hpp"

namespace drapid {

namespace {

[[noreturn]] void malformed(const std::string& key) {
  throw std::runtime_error("malformed observation key: " + key);
}

double field_to_double(std::string_view field, const std::string& key) {
  double v = 0.0;
  const auto res = std::from_chars(field.data(), field.data() + field.size(),
                                   v, std::chars_format::general);
  if (res.ec != std::errc{} || res.ptr != field.data() + field.size()) {
    malformed(key);
  }
  // from_chars accepts "inf"/"nan" spellings and we never emit them: a
  // non-finite MJD or sky position is not a real observation, and NaN keys
  // would not even compare equal to themselves in the archive index.
  if (!std::isfinite(v)) malformed(key);
  return v;
}

}  // namespace

std::string ObservationId::key() const {
  // The key is '|'-delimited and used verbatim as an archive/RDD primary
  // key, so the dataset name must not smuggle in a delimiter or a NUL, and
  // the numeric fields must have a finite spelling that round-trips. Throws
  // std::runtime_error: bad ids usually arrive from parsed survey files, and
  // every parse-path failure in this codebase is a runtime_error (the format
  // fuzzers rely on it).
  if (dataset.find('|') != std::string::npos ||
      dataset.find('\0') != std::string::npos) {
    throw std::runtime_error(
        "observation dataset name contains '|' or NUL: " + dataset);
  }
  if (!std::isfinite(mjd) || !std::isfinite(ra_deg) || !std::isfinite(dec_deg)) {
    throw std::runtime_error(
        "observation id has a non-finite mjd/ra/dec field");
  }
  std::string out = dataset;
  out.reserve(out.size() + 80);
  out.push_back('|');
  // %.17g, as the survey files spell these fields: existing persisted keys
  // keep their exact spelling, and 17 digits round-trips any double.
  append_double(out, mjd, 17);
  out.push_back('|');
  append_double(out, ra_deg, 17);
  out.push_back('|');
  append_double(out, dec_deg, 17);
  out.push_back('|');
  char buf[16];
  const auto res = std::to_chars(buf, buf + sizeof(buf), beam);
  out.append(buf, res.ptr);
  return out;
}

ObservationId ObservationId::from_key(const std::string& key) {
  // Embedded NULs can never come from key() and would silently truncate the
  // key under any C-string handling downstream — reject outright.
  if (key.find('\0') != std::string::npos) malformed(key);
  std::array<std::string_view, 5> parts;
  const std::string_view view(key);
  std::size_t count = 0;
  std::size_t begin = 0;
  while (true) {
    const std::size_t bar = view.find('|', begin);
    const std::string_view part = view.substr(
        begin, bar == std::string_view::npos ? std::string_view::npos
                                             : bar - begin);
    if (count < parts.size()) parts[count] = part;
    ++count;
    if (bar == std::string_view::npos) break;
    begin = bar + 1;
  }
  if (count != parts.size()) malformed(key);
  ObservationId id;
  id.dataset = std::string(parts[0]);
  id.mjd = field_to_double(parts[1], key);
  id.ra_deg = field_to_double(parts[2], key);
  id.dec_deg = field_to_double(parts[3], key);
  const std::string_view beam = parts[4];
  const auto res = std::from_chars(beam.data(), beam.data() + beam.size(),
                                   id.beam);
  if (res.ec != std::errc{} || res.ptr != beam.data() + beam.size()) {
    malformed(key);
  }
  return id;
}

}  // namespace drapid
