// Test-only reference detector: the matched-filter composition that
// detect_events_into's bracketed selections and one-pass certificate must
// reproduce event for event. The robust statistics copy the series and run
// std::nth_element twice (median, then the median of |x - median|); the
// threshold certificate is one byte per center, ANDed boxcar by boxcar; and
// the island scan walks those bytes one sample at a time. Nothing here
// calls a dedisp kernel, so the oracle cannot move with the code it checks.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "dedisp/single_pulse_search.hpp"

namespace drapid {

/// {median, 1.4826 * MAD}, or scale 0 for a series without a noise level.
inline std::pair<double, double> reference_robust_stats(
    const std::vector<double>& values) {
  if (values.empty()) return {0.0, 0.0};
  std::vector<double> work = values;
  const auto mid = static_cast<std::ptrdiff_t>(work.size() / 2);
  std::nth_element(work.begin(), work.begin() + mid, work.end());
  const double median = work[static_cast<std::size_t>(mid)];
  for (std::size_t i = 0; i < values.size(); ++i) {
    work[i] = std::abs(values[i] - median);
  }
  std::nth_element(work.begin(), work.begin() + mid, work.end());
  const double mad = work[static_cast<std::size_t>(mid)];
  return {median, mad > 1e-12 ? mad * 1.4826 : 0.0};
}

inline std::vector<SinglePulseEvent> reference_detect_events(
    const std::vector<double>& series, double dm, double sample_time_ms,
    const SinglePulseSearchParams& params) {
  std::vector<SinglePulseEvent> out;
  const std::size_t n = series.size();
  if (n == 0) return out;
  const auto [median, sigma] = reference_robust_stats(series);
  if (!(sigma > 0.0)) return out;

  std::vector<double> prefix(n + 1, 0.0);
  for (std::size_t s = 0; s < n; ++s) {
    prefix[s + 1] = prefix[s] + (series[s] - median);
  }
  struct Boxcar {
    std::size_t back;
    std::size_t ahead;
    double norm;
    double below_bound;
    int width;
  };
  std::vector<Boxcar> boxcars;
  for (const int w : params.boxcar_widths) {
    if (w <= 0 || static_cast<std::size_t>(w) > n) continue;
    const auto uw = static_cast<std::size_t>(w);
    const double norm = sigma * std::sqrt(static_cast<double>(w));
    boxcars.push_back({uw / 2, uw - uw / 2, norm,
                       params.snr_threshold * norm * (1.0 - 1e-12), w});
  }
  // below[c] = 1 certifies that no boxcar reaches threshold at center c.
  const bool can_certify = params.snr_threshold > 0.0;
  std::vector<unsigned char> below(n, can_certify ? 1 : 0);
  if (can_certify) {
    for (const Boxcar& box : boxcars) {
      for (std::size_t c = box.back; c + box.ahead <= n; ++c) {
        below[c] &= static_cast<unsigned char>(
            prefix[c + box.ahead] - prefix[c - box.back] < box.below_bound);
      }
    }
  }
  const auto exact_best = [&](std::size_t c, double& best, int& width) {
    best = 0.0;
    width = 1;
    for (const Boxcar& box : boxcars) {
      if (c < box.back || n - c < box.ahead) continue;
      const double snr =
          (prefix[c + box.ahead] - prefix[c - box.back]) / box.norm;
      if (snr > best) {
        best = snr;
        width = box.width;
      }
    }
  };
  std::size_t s = 0;
  while (s < n) {
    double best;
    int width;
    if (below[s]) {
      ++s;
      continue;
    }
    exact_best(s, best, width);
    if (best < params.snr_threshold) {
      ++s;
      continue;
    }
    double peak_snr = best;
    int peak_width = width;
    std::size_t peak = s;
    std::size_t end = s + 1;
    while (end < n && !below[end]) {
      exact_best(end, best, width);
      if (best < params.snr_threshold) break;
      if (best > peak_snr) {
        peak_snr = best;
        peak_width = width;
        peak = end;
      }
      ++end;
    }
    SinglePulseEvent e;
    e.dm = dm;
    e.snr = peak_snr;
    e.sample = static_cast<std::int64_t>(peak);
    e.time_s = static_cast<double>(peak) * sample_time_ms * 1e-3;
    e.downfact = peak_width;
    out.push_back(e);
    s = end;
  }
  return out;
}

}  // namespace drapid
