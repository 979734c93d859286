// Property tests for the matched-filter detector's two exact shortcuts,
// against test-side oracles (detect_reference.hpp):
//  - the bracketed selection behind robust_stats returns the value
//    std::nth_element finds, including when adversarial inputs make the
//    sampled bracket miss on either side (the counted fallback);
//  - detect_events_into's one-pass certificate and list-driven island scan
//    emit exactly the events of the byte-mask scan, over random series and
//    awkward parameters.
// Both kernel paths: the dispatcher picks one per process, and CI also runs
// this suite under DRAPID_FORCE_SCALAR=1.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "dedisp/single_pulse_search.hpp"
#include "detect_reference.hpp"
#include "obs/counters.hpp"
#include "util/rng.hpp"

namespace drapid {
namespace {

using detail::kSelectGap;
using detail::kSelectMinSamples;
using detail::kSelectSample;

std::int64_t counter_value(const std::string& name) {
  for (const auto& [key, value] : obs::global_counters().counters_snapshot()) {
    if (key == name) return value;
  }
  return 0;
}

std::vector<double> noise(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.normal();
  return v;
}

/// What select_rank must return: the k-th smallest y by nth_element.
double expected_rank(const std::vector<double>& x, std::size_t k,
                     double center, bool deviation) {
  std::vector<double> y = x;
  if (deviation) {
    for (auto& v : y) v = std::abs(v - center);
  }
  std::nth_element(y.begin(), y.begin() + static_cast<std::ptrdiff_t>(k),
                   y.end());
  return y[k];
}

/// Checks select_rank at several ranks in both modes. Compared by value:
/// `==` holds between +0 and -0, whose order a selection may swap.
void expect_selects_like_nth_element(const std::vector<double>& x,
                                     const std::string& label) {
  const std::size_t n = x.size();
  std::vector<double> workspace, scratch;
  const double center = n > 0 ? x[n / 3] : 0.0;
  for (const std::size_t k : {std::size_t{0}, n / 4, n / 2, n - 1}) {
    for (const bool deviation : {false, true}) {
      const double got = detail::select_rank(x.data(), n, k, center,
                                             deviation, workspace, scratch);
      EXPECT_EQ(got, expected_rank(x, k, center, deviation))
          << label << " n=" << n << " k=" << k << " deviation=" << deviation;
    }
  }
}

TEST(SelectRank, MatchesNthElementOnNoiseAroundTheSamplingThreshold) {
  const std::int64_t before = counter_value("dedisp.select.fallbacks");
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{64},
        kSelectMinSamples - 1, kSelectMinSamples, kSelectMinSamples + 1,
        std::size_t{4999}, std::size_t{5000}, std::size_t{10000},
        std::size_t{10001}}) {
    expect_selects_like_nth_element(noise(n, 100 + n), "noise");
  }
  // On noise the sampled bracket holds: the fast path, not the fallback,
  // answered every one of these selections.
  EXPECT_EQ(counter_value("dedisp.select.fallbacks") - before, 0);
}

TEST(SelectRank, TiesConstantRunsAndSignedZeros) {
  const std::size_t n = 6000;
  std::vector<double> ties(n);
  for (std::size_t i = 0; i < n; ++i) ties[i] = static_cast<double>(i % 3);
  expect_selects_like_nth_element(ties, "three values");

  expect_selects_like_nth_element(std::vector<double>(n, 2.5), "constant");

  auto runs = noise(n, 7);
  std::fill(runs.begin() + 1000, runs.begin() + 4000, 0.125);
  expect_selects_like_nth_element(runs, "constant run over the median");

  std::vector<double> zeros(n);
  for (std::size_t i = 0; i < n; ++i) zeros[i] = i % 2 ? 0.0 : -0.0;
  expect_selects_like_nth_element(zeros, "signed zeros");
}

TEST(SelectRank, SortedAndReversedInputs) {
  auto v = noise(4097, 9);
  std::sort(v.begin(), v.end());
  expect_selects_like_nth_element(v, "sorted");
  std::reverse(v.begin(), v.end());
  expect_selects_like_nth_element(v, "reversed");
}

/// Plants `value` at every position the fixed-stride sample reads, so the
/// bracket is built from values unlike the rest of the series.
std::vector<double> planted(std::size_t n, double value, std::uint64_t seed) {
  auto v = noise(n, seed);
  const std::size_t stride = n / kSelectSample;
  for (std::size_t j = 0; j < kSelectSample; ++j) v[j * stride] = value;
  return v;
}

TEST(SelectRank, BracketMissesOnEitherSideFallBackExactly) {
  // Sampled values far above the rest put the bracket above the median
  // (too many values below it); far below puts it under the median. For
  // the MAD, large sampled deviations put its bracket above the true MAD.
  std::vector<double> workspace, scratch;
  for (const std::size_t n : {std::size_t{10000}, std::size_t{10001}}) {
    const std::size_t k = n / 2;
    for (const double spike : {1e6, -1e6}) {
      const auto x = planted(n, spike, 21 + n);
      for (const bool deviation : {false, true}) {
        const std::int64_t before = counter_value("dedisp.select.fallbacks");
        const double got = detail::select_rank(x.data(), n, k, 0.0,
                                               deviation, workspace, scratch);
        EXPECT_EQ(got, expected_rank(x, k, 0.0, deviation))
            << "n=" << n << " spike=" << spike << " deviation=" << deviation;
        EXPECT_EQ(counter_value("dedisp.select.fallbacks") - before, 1)
            << "the planted sample must make the bracket miss";
      }
    }
  }
}

TEST(SelectRank, RanksNearTheEndsOpenTheBracket) {
  // Within kSelectGap sample ranks of either end the bracket is one-sided;
  // the selection stays exact.
  const auto x = noise(8000, 31);
  std::vector<double> workspace, scratch;
  const std::size_t per_rank = x.size() / kSelectSample;
  for (const std::size_t k :
       {std::size_t{1}, kSelectGap * per_rank - 1, x.size() - 2,
        x.size() - kSelectGap * per_rank}) {
    EXPECT_EQ(detail::select_rank(x.data(), x.size(), k, 0.0, false,
                                  workspace, scratch),
              expected_rank(x, k, 0.0, false))
        << "k=" << k;
  }
}

TEST(SelectRank, RobustStatsMatchesTheReference) {
  std::vector<double> workspace, scratch;
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{64},
                              std::size_t{1025}, std::size_t{10000}}) {
    const auto x = noise(n, 41 + n);
    const auto got = robust_stats(x, workspace, scratch);
    const auto want = reference_robust_stats(x);
    EXPECT_EQ(got.first, want.first) << "n=" << n;
    EXPECT_EQ(got.second, want.second) << "n=" << n;
  }
}

// --- detection against the byte-mask reference ------------------------------

bool events_identical(const std::vector<SinglePulseEvent>& a,
                      const std::vector<SinglePulseEvent>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].dm != b[i].dm || a[i].snr != b[i].snr ||
        a[i].time_s != b[i].time_s || a[i].sample != b[i].sample ||
        a[i].downfact != b[i].downfact) {
      return false;
    }
  }
  return true;
}

/// Noise with a few boxcar pulses of random width and height painted in.
std::vector<double> pulsed_series(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng.normal();
  const std::size_t pulses = 1 + rng.below(6);
  for (std::size_t p = 0; p < pulses && n > 0; ++p) {
    const std::size_t start = rng.below(n);
    const std::size_t width = 1 + rng.below(40);
    const double height = rng.uniform(0.5, 6.0);
    for (std::size_t i = start; i < std::min(n, start + width); ++i) {
      v[i] += height;
    }
  }
  return v;
}

void expect_detects_like_reference(const std::vector<double>& series,
                                   const SinglePulseSearchParams& params,
                                   DetectScratch& scratch,
                                   const std::string& label) {
  const auto want = reference_detect_events(series, 12.5, 1.0, params);
  std::vector<SinglePulseEvent> got;
  detect_events_into(series, 12.5, 1.0, params, scratch, got);
  EXPECT_TRUE(events_identical(got, want))
      << label << ": " << got.size() << " events vs " << want.size()
      << " from the reference (n=" << series.size() << ")";
}

TEST(DetectProperty, RandomSeriesMatchTheReference) {
  Rng rng(2024);
  DetectScratch scratch;  // reused across series, as the sweep does
  const std::size_t sizes[] = {1,    2,    3,    17,   100,  1023,
                               1024, 1025, 4000, 10000, 10003};
  for (const std::size_t n : sizes) {
    for (int rep = 0; rep < 3; ++rep) {
      SinglePulseSearchParams params;
      params.snr_threshold = rng.uniform(2.0, 6.0);
      expect_detects_like_reference(pulsed_series(n, rng), params, scratch,
                                    "default widths");
    }
  }
}

TEST(DetectProperty, NonPositiveThresholdsListEveryCenter) {
  Rng rng(7);
  DetectScratch scratch;
  for (const double threshold : {0.0, -1.0, -50.0}) {
    SinglePulseSearchParams params;
    params.snr_threshold = threshold;
    for (const std::size_t n : {std::size_t{1}, std::size_t{50},
                                std::size_t{2000}}) {
      expect_detects_like_reference(pulsed_series(n, rng), params, scratch,
                                    "threshold " + std::to_string(threshold));
    }
    params.boxcar_widths = {1000000};  // no boxcar applies at all
    expect_detects_like_reference(pulsed_series(300, rng), params, scratch,
                                  "no applicable boxcar");
  }
}

TEST(DetectProperty, AwkwardWidthListsMatchTheReference) {
  Rng rng(99);
  DetectScratch scratch;
  std::vector<int> many;
  for (int w = 1; w <= 24; ++w) many.push_back(w);  // beyond the stack array
  const std::vector<std::vector<int>> width_lists = {
      many,
      {4, 4, 2, 2, 1, 1},              // duplicates
      {64, 8, 1},                      // descending
      {0, -3, 5, 7},                   // invalid widths are skipped
      {1, 2, 4, 8, 16, 32, 64, 5000},  // wider than some series
      {3},
      {}};
  for (const auto& widths : width_lists) {
    for (const std::size_t n : {std::size_t{5}, std::size_t{70},
                                std::size_t{3000}}) {
      SinglePulseSearchParams params;
      params.boxcar_widths = widths;
      params.snr_threshold = 3.0;
      expect_detects_like_reference(pulsed_series(n, rng), params, scratch,
                                    std::to_string(widths.size()) + " widths");
    }
  }
}

TEST(DetectProperty, DegenerateSeriesReportNothing) {
  DetectScratch scratch;
  SinglePulseSearchParams params;
  for (const std::size_t n : {std::size_t{1}, std::size_t{4096}}) {
    const std::vector<double> flat(n, 3.0);
    expect_detects_like_reference(flat, params, scratch, "constant");
    std::vector<SinglePulseEvent> got;
    detect_events_into(flat, 1.0, 1.0, params, scratch, got);
    EXPECT_TRUE(got.empty());
  }
}

}  // namespace
}  // namespace drapid
