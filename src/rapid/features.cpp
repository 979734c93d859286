#include "rapid/features.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "util/stats.hpp"

namespace drapid {

const std::array<std::string, PulseFeatures::kCount>& PulseFeatures::names() {
  static const std::array<std::string, kCount> kNames = {
      "NumSpes",     "DmRange",    "SNRMax",      "SNRMin",
      "AvgSNR",      "SNRStdDev",  "SNRPeakDM",   "DMCentroid",
      "Duration",    "TimeStdDev", "SlopeLeft",   "SlopeRight",
      "FitR2Left",   "FitR2Right", "SNRSkewness", "SNRKurtosis",
      "StartTime",   "StopTime",   "ClusterRank", "PulseRank",
      "DMSpacing",   "SNRRatio"};
  return kNames;
}

PulseFeatures extract_features(std::span<const SinglePulseEvent> events,
                               const SinglePulse& pulse,
                               const ClusterRecord& cluster, const DmGrid& grid,
                               int pulse_rank) {
  if (pulse.end > events.size() || pulse.begin >= pulse.end) {
    throw std::invalid_argument("pulse range out of bounds");
  }
  const auto span = events.subspan(pulse.begin, pulse.size());
  std::vector<double> dms, snrs, times;
  dms.reserve(span.size());
  snrs.reserve(span.size());
  times.reserve(span.size());
  for (const auto& e : span) {
    dms.push_back(e.dm);
    snrs.push_back(e.snr);
    times.push_back(e.time_s);
  }

  PulseFeatures f;
  auto& v = f.values;
  v[kNumSpes] = static_cast<double>(span.size());
  const auto [dm_lo, dm_hi] = std::minmax_element(dms.begin(), dms.end());
  v[kDmRange] = *dm_hi - *dm_lo;
  const auto [snr_lo, snr_hi] = std::minmax_element(snrs.begin(), snrs.end());
  v[kSnrMax] = *snr_hi;
  v[kSnrMin] = *snr_lo;
  v[kAvgSnr] = mean(snrs);
  v[kSnrStdDev] = stddev(snrs);
  v[kSnrPeakDm] = events[pulse.peak].dm;

  double weighted = 0.0, weight_sum = 0.0;
  for (const auto& e : span) {
    weighted += e.dm * e.snr;
    weight_sum += e.snr;
  }
  v[kDmCentroid] = weight_sum > 0.0 ? weighted / weight_sum : 0.0;

  const auto [t_lo, t_hi] = std::minmax_element(times.begin(), times.end());
  v[kDuration] = *t_hi - *t_lo;
  v[kTimeStdDev] = stddev(times);

  // Rising/falling side fits around the peak (peak index is absolute; make
  // it relative to the pulse span).
  const std::size_t peak_rel = pulse.peak - pulse.begin;
  const auto left_n = peak_rel + 1;
  const auto right_n = span.size() - peak_rel;
  const LinearFit left = linear_regression(
      std::span(dms).subspan(0, left_n), std::span(snrs).subspan(0, left_n));
  const LinearFit right =
      linear_regression(std::span(dms).subspan(peak_rel, right_n),
                        std::span(snrs).subspan(peak_rel, right_n));
  v[kSlopeLeft] = left.slope;
  v[kSlopeRight] = right.slope;
  v[kFitR2Left] = left.r_squared;
  v[kFitR2Right] = right.r_squared;

  v[kSnrSkewness] = skewness(snrs);
  v[kSnrKurtosis] = excess_kurtosis(snrs);

  v[kStartTime] = cluster.time_min;
  v[kStopTime] = cluster.time_max;
  v[kClusterRank] = static_cast<double>(cluster.rank);
  v[kPulseRank] = static_cast<double>(pulse_rank);
  v[kDmSpacing] = grid.spacing_at(events[pulse.peak].dm);
  v[kSnrRatio] = *snr_hi > 0.0 ? span.front().snr / *snr_hi : 0.0;
  return f;
}

const char kMlFileHeaderPrefix[] =
    "dataset,mjd,ra_deg,dec_deg,beam,cluster_id,pulse_index";

std::string ml_file_header() {
  std::string header = kMlFileHeaderPrefix;
  for (const auto& name : PulseFeatures::names()) {
    header += ',';
    header += name;
  }
  header += ",label";
  return header;
}

CsvRow format_ml_row(const MlRecord& rec) {
  CsvRow row{rec.obs.dataset,
             format_double(rec.obs.mjd, 17),
             format_double(rec.obs.ra_deg, 17),
             format_double(rec.obs.dec_deg, 17),
             std::to_string(rec.obs.beam),
             std::to_string(rec.cluster_id),
             std::to_string(rec.pulse_index)};
  for (double v : rec.features.values) row.push_back(format_double(v, 17));
  row.push_back(rec.truth_label);
  return row;
}

MlRecord parse_ml_row(const CsvRow& row) {
  constexpr std::size_t kExpected = 7 + PulseFeatures::kCount + 1;
  if (row.size() != kExpected) {
    throw std::runtime_error("ML row must have " + std::to_string(kExpected) +
                             " fields, got " + std::to_string(row.size()));
  }
  MlRecord rec;
  rec.obs.dataset = row[0];
  rec.obs.mjd = parse_double(row[1]);
  rec.obs.ra_deg = parse_double(row[2]);
  rec.obs.dec_deg = parse_double(row[3]);
  rec.obs.beam = static_cast<int>(parse_int(row[4]));
  rec.cluster_id = static_cast<int>(parse_int(row[5]));
  rec.pulse_index = static_cast<int>(parse_int(row[6]));
  for (std::size_t i = 0; i < PulseFeatures::kCount; ++i) {
    rec.features.values[i] = parse_double(row[7 + i]);
  }
  rec.truth_label = row.back();
  return rec;
}

void write_ml_file(std::ostream& out, const std::vector<MlRecord>& records) {
  out << ml_file_header() << '\n';
  for (const auto& rec : records) {
    out << format_csv_row(format_ml_row(rec)) << '\n';
  }
}

std::vector<MlRecord> read_ml_file(std::istream& in) {
  std::vector<MlRecord> records;
  std::string line;
  bool saw_header = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (!saw_header) {
      saw_header = true;
      continue;
    }
    records.push_back(parse_ml_row(parse_csv_line(line)));
  }
  return records;
}

}  // namespace drapid
