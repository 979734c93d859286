// The runtime-dispatched SIMD kernels (dedisp/kernels.hpp): scalar-vs-AVX2
// bit-identity for every kernel, the bracket and certificate kernels against
// their definitions, select_kth exactness against a full sort on
// adversarial shapes, dispatch reporting, and the dispersion_shifts
// overflow/clamp hardening the kernels' callers rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "dedisp/filterbank.hpp"
#include "dedisp/kernels.hpp"
#include "dedisp/single_pulse_search.hpp"
#include "util/rng.hpp"

namespace drapid {
namespace {

std::vector<double> noise(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.normal();
  return v;
}

std::vector<float> noise_f32(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

TEST(KernelDispatch, NameMatchesPath) {
  const std::string name = kernels::dispatch_name();
  EXPECT_TRUE(name == "avx2" || name == "scalar");
  EXPECT_EQ(name == "avx2", kernels::using_avx2());
  if (kernels::using_avx2()) EXPECT_TRUE(kernels::avx2_supported());
}

TEST(KernelDispatch, ForcedScalarEnvRespected) {
  // The cache resolves DRAPID_FORCE_SCALAR at first kernel use; when the CI
  // forced-scalar job sets it, the dispatcher must report the scalar path.
  const char* forced = std::getenv("DRAPID_FORCE_SCALAR");
  if (forced != nullptr && std::string(forced) == "1") {
    EXPECT_FALSE(kernels::using_avx2());
    EXPECT_STREQ(kernels::dispatch_name(), "scalar");
  }
}

// Every vector-width remainder from 0 to a few multiples of the widest lane
// count, so head, body and scalar tail all get hit.
const std::size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17,
                              31, 33, 100, 1000, 1001};

TEST(Kernels, AccumulateF32PathsBitIdentical) {
  if (!kernels::avx2_supported()) GTEST_SKIP() << "no AVX2 on this host";
  for (const std::size_t n : kSizes) {
    const auto in = noise_f32(n, 7 + n);
    auto a = noise(n, 100 + n);
    auto b = a;
    kernels::scalar::accumulate_f32(a.data(), in.data(), n);
    kernels::avx2::accumulate_f32(b.data(), in.data(), n);
    EXPECT_EQ(a, b) << "n=" << n;
  }
}

TEST(Kernels, AccumulateF64PathsBitIdentical) {
  if (!kernels::avx2_supported()) GTEST_SKIP() << "no AVX2 on this host";
  for (const std::size_t n : kSizes) {
    const auto in = noise(n, 9 + n);
    auto a = noise(n, 200 + n);
    auto b = a;
    kernels::scalar::accumulate_f64(a.data(), in.data(), n);
    kernels::avx2::accumulate_f64(b.data(), in.data(), n);
    EXPECT_EQ(a, b) << "n=" << n;
  }
}

TEST(Kernels, CombineF64PathsBitIdentical) {
  if (!kernels::avx2_supported()) GTEST_SKIP() << "no AVX2 on this host";
  for (const std::size_t n : kSizes) {
    for (const std::size_t groups : {std::size_t{1}, std::size_t{3},
                                     std::size_t{8}}) {
      std::vector<std::vector<double>> streams;
      std::vector<const double*> ptrs;
      for (std::size_t g = 0; g < groups; ++g) {
        streams.push_back(noise(n, 300 + 10 * n + g));
        ptrs.push_back(streams.back().data());
      }
      std::vector<double> a(n, -1.0), b(n, -2.0);
      kernels::scalar::combine_f64(a.data(), ptrs.data(), groups, n);
      kernels::avx2::combine_f64(b.data(), ptrs.data(), groups, n);
      EXPECT_EQ(a, b) << "n=" << n << " groups=" << groups;
    }
  }
}

TEST(Kernels, CombineF64ZeroGroupsZeroFills) {
  std::vector<double> out(9, 42.0);
  kernels::combine_f64(out.data(), nullptr, 0, out.size());
  for (const double x : out) EXPECT_EQ(x, 0.0);
}

TEST(Kernels, CombineMatchesSequentialAccumulate) {
  // The fused combine must regroup nothing: summing the streams with
  // repeated accumulate_f64 passes gives bit-identical output.
  const std::size_t n = 257;
  std::vector<std::vector<double>> streams;
  std::vector<const double*> ptrs;
  for (std::size_t g = 0; g < 5; ++g) {
    streams.push_back(noise(n, 400 + g));
    ptrs.push_back(streams.back().data());
  }
  std::vector<double> fused(n);
  kernels::combine_f64(fused.data(), ptrs.data(), ptrs.size(), n);
  std::vector<double> seq(n, 0.0);
  for (const auto* p : ptrs) kernels::accumulate_f64(seq.data(), p, n);
  EXPECT_EQ(fused, seq);
}

TEST(Kernels, BracketCompactPathsBitIdentical) {
  if (!kernels::avx2_supported()) GTEST_SKIP() << "no AVX2 on this host";
  for (const std::size_t n : kSizes) {
    const auto in = noise(n, 11 + n);
    for (const bool deviation : {false, true}) {
      std::vector<double> a(n), b(n);
      std::size_t below_a = 0, below_b = 0;
      const std::size_t na = kernels::scalar::bracket_compact(
          in.data(), n, 0.25, deviation, -0.5, 0.75, a.data(), &below_a);
      const std::size_t nb = kernels::avx2::bracket_compact(
          in.data(), n, 0.25, deviation, -0.5, 0.75, b.data(), &below_b);
      ASSERT_EQ(na, nb) << "n=" << n << " deviation=" << deviation;
      EXPECT_EQ(below_a, below_b) << "n=" << n;
      a.resize(na);
      b.resize(nb);
      EXPECT_EQ(a, b) << "n=" << n << " deviation=" << deviation;
    }
  }
}

TEST(Kernels, BracketCompactMatchesDefinition) {
  // Counts y < lo, keeps lo <= y <= hi in input order — bracket ends
  // included, including ties exactly on them.
  std::vector<double> in = noise(1001, 12);
  in[3] = 1.0;     // |x - 0.25| == 0.75: the upper end
  in[7] = -0.25;   // |x - 0.25| == 0.5: the lower end
  in[9] = 0.5;     // the lower end as a value
  in[500] = 0.75;  // the upper end as a value
  for (const bool deviation : {false, true}) {
    std::vector<double> expect;
    std::size_t expect_below = 0;
    for (const double x : in) {
      const double y = deviation ? std::abs(x - 0.25) : x;
      if (y < 0.5) {
        ++expect_below;
      } else if (y <= 0.75) {
        expect.push_back(y);
      }
    }
    std::vector<double> out(in.size());
    std::size_t below = 0;
    const std::size_t kept = kernels::bracket_compact(
        in.data(), in.size(), 0.25, deviation, 0.5, 0.75, out.data(), &below);
    out.resize(kept);
    EXPECT_EQ(out, expect) << "deviation=" << deviation;
    EXPECT_EQ(below, expect_below) << "deviation=" << deviation;
  }
}

TEST(Kernels, BracketCompactOpenBracketIsTheFullFill) {
  // An infinite bracket keeps everything: the plain copy of x, or the full
  // |x - center| deviation fill the MAD fallback selects over.
  const double inf = std::numeric_limits<double>::infinity();
  const auto in = noise(101, 13);
  for (const bool deviation : {false, true}) {
    std::vector<double> expect = in;
    if (deviation) {
      for (auto& x : expect) x = std::abs(x - 0.5);
    }
    std::vector<double> out(in.size());
    std::size_t below = 7;
    EXPECT_EQ(kernels::bracket_compact(in.data(), in.size(), 0.5, deviation,
                                       -inf, inf, out.data(), &below),
              in.size());
    EXPECT_EQ(below, 0u);
    EXPECT_EQ(out, expect);
  }
}

double sorted_kth(std::vector<double> v, std::size_t k) {
  std::sort(v.begin(), v.end());
  return v[k];
}

TEST(Kernels, SelectKthExactOnAdversarialShapes) {
  std::vector<std::vector<double>> inputs;
  inputs.push_back(noise(5000, 17));          // noise-like (the real workload)
  inputs.push_back(std::vector<double>(777, 3.5));  // all equal
  {
    auto v = noise(1000, 19);
    std::sort(v.begin(), v.end());
    inputs.push_back(v);                      // sorted
    std::reverse(v.begin(), v.end());
    inputs.push_back(v);                      // reverse sorted
  }
  {
    std::vector<double> v;                    // heavy duplicate runs
    for (int i = 0; i < 900; ++i) v.push_back(static_cast<double>(i % 3));
    inputs.push_back(v);
  }
  inputs.push_back({1.0});                    // singleton
  inputs.push_back(noise(31, 23));            // below the small-n cutoff

  for (const auto& input : inputs) {
    const std::size_t n = input.size();
    for (const std::size_t k : {std::size_t{0}, n / 2, n - 1}) {
      const double expect = sorted_kth(input, k);
      std::vector<double> scratch(n);
      auto v = input;
      EXPECT_EQ(kernels::select_kth(v.data(), scratch.data(), n, k), expect)
          << "n=" << n << " k=" << k;
      if (kernels::avx2_supported()) {
        v = input;
        EXPECT_EQ(kernels::avx2::select_kth(v.data(), scratch.data(), n, k),
                  expect)
            << "avx2 n=" << n << " k=" << k;
        v = input;
        EXPECT_EQ(kernels::scalar::select_kth(v.data(), scratch.data(), n, k),
                  expect)
            << "scalar n=" << n << " k=" << k;
      }
    }
  }
}

/// The certificate's definition, center by center: listed when some
/// applicable boxcar's sum is not below its bound.
std::vector<std::uint32_t> uncertified_by_definition(
    const std::vector<double>& prefix,
    const std::vector<kernels::CertBoxcar>& boxes) {
  const std::size_t n = prefix.size() - 1;
  std::vector<std::uint32_t> out;
  for (std::size_t c = 0; c < n; ++c) {
    bool fails = false;
    for (const auto& box : boxes) {
      if (c < box.back || c + box.ahead > n) continue;
      if (!(prefix[c + box.ahead] - prefix[c - box.back] < box.bound)) {
        fails = true;
      }
    }
    if (fails) out.push_back(static_cast<std::uint32_t>(c));
  }
  return out;
}

std::vector<kernels::CertBoxcar> cert_boxes(const std::vector<int>& widths,
                                            double bound) {
  std::vector<kernels::CertBoxcar> boxes;
  for (const int w : widths) {
    const auto uw = static_cast<std::size_t>(w);
    boxes.push_back({uw / 2, uw - uw / 2,
                     bound * std::sqrt(static_cast<double>(w))});
  }
  return boxes;
}

TEST(Kernels, UncertifiedCentersPathsBitIdentical) {
  const std::vector<std::vector<int>> width_sets = {
      {}, {1}, {1, 2, 4, 8, 16, 32}, {3, 5, 7}, {64, 1, 2, 2}, {1000}};
  for (const std::size_t n : kSizes) {
    const auto series = noise(n, 29 + n);
    std::vector<double> prefix(n + 1, 0.0);
    for (std::size_t i = 0; i < n; ++i) prefix[i + 1] = prefix[i] + series[i];
    for (const auto& widths : width_sets) {
      for (const double bound : {-1.0, 0.0, 1.5, 3.0}) {
        const auto boxes = cert_boxes(widths, bound);
        const auto expect = uncertified_by_definition(prefix, boxes);
        std::vector<std::uint32_t> a(n), b(n);
        a.resize(kernels::scalar::uncertified_centers(
            prefix.data(), n, boxes.data(), boxes.size(), a.data()));
        EXPECT_EQ(a, expect) << "n=" << n << " bound=" << bound;
        if (!kernels::avx2_supported()) continue;
        b.resize(kernels::avx2::uncertified_centers(
            prefix.data(), n, boxes.data(), boxes.size(), b.data()));
        EXPECT_EQ(b, expect) << "n=" << n << " bound=" << bound;
      }
    }
  }
}

TEST(Kernels, UncertifiedCentersFailsNaNSums) {
  // !(sum < bound) lists a NaN sum on both paths, as the scalar compare did.
  const std::size_t n = 40;
  std::vector<double> prefix(n + 1, 0.0);
  prefix[20] = std::nan("");
  const auto boxes = cert_boxes({1, 2}, 1.0);
  const auto expect = uncertified_by_definition(prefix, boxes);
  ASSERT_FALSE(expect.empty());
  std::vector<std::uint32_t> out(n);
  out.resize(kernels::uncertified_centers(prefix.data(), n, boxes.data(),
                                          boxes.size(), out.data()));
  EXPECT_EQ(out, expect);
}

// --- dispersion_shifts overflow/clamp hardening -----------------------------

Filterbank tiny_filterbank() {
  FilterbankConfig cfg;
  cfg.center_freq_mhz = 350.0;
  cfg.bandwidth_mhz = 100.0;
  cfg.num_channels = 8;
  cfg.sample_time_ms = 2.0;
  cfg.obs_length_s = 2.0;
  return Filterbank(cfg);
}

TEST(DispersionShifts, NegativeDmThrowsInsteadOfWrapping) {
  // A negative DM makes the rounded shift negative; the unchecked uint32
  // cast used to wrap it to ~4e9 samples silently.
  const Filterbank fb = tiny_filterbank();
  EXPECT_THROW(dispersion_shifts(fb, -40.0), std::domain_error);
}

TEST(DispersionShifts, NonFiniteDmThrows) {
  const Filterbank fb = tiny_filterbank();
  EXPECT_THROW(dispersion_shifts(fb, std::nan("")), std::domain_error);
  EXPECT_THROW(
      dispersion_shifts(fb, std::numeric_limits<double>::infinity()),
      std::domain_error);
}

TEST(DispersionShifts, ExtremeDmSaturatesAtObservationLength) {
  // An absurd DM whose delay dwarfs the observation must clamp every
  // low-frequency channel's shift to num_samples (contributing nothing),
  // never wrap around uint32.
  const Filterbank fb = tiny_filterbank();
  const auto shifts = dispersion_shifts(fb, 1e9);
  ASSERT_EQ(shifts.size(), fb.num_channels());
  EXPECT_EQ(shifts.front(), 0u);  // reference channel
  for (std::size_t c = 1; c < shifts.size(); ++c) {
    EXPECT_EQ(shifts[c], fb.num_samples()) << "channel " << c;
  }
}

TEST(DispersionShifts, ZeroAndPositiveDmStayExact) {
  const Filterbank fb = tiny_filterbank();
  const auto zero = dispersion_shifts(fb, 0.0);
  for (const auto s : zero) EXPECT_EQ(s, 0u);
  const auto some = dispersion_shifts(fb, 40.0);
  for (std::size_t c = 1; c < some.size(); ++c) {
    EXPECT_GE(some[c], some[c - 1]) << "delays grow toward low frequencies";
  }
}

}  // namespace
}  // namespace drapid
