// AVX2 kernel implementations. This translation unit is the only one
// compiled with -mavx2 (see CMakeLists.txt), so AVX2 instructions cannot
// leak into code paths that run on non-AVX2 hosts; the dispatcher in
// kernels.cpp only routes here after a CPUID check.
//
// All kernels are exact (see kernels.hpp): the elementwise ones perform the
// identical per-element operation as the scalar loops, and select_kth is an
// exact selection, so results are bit-identical across paths. No FMA is
// used anywhere — a fused multiply-add would round differently than the
// scalar code.
#include "dedisp/kernels.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace drapid {
namespace kernels {
namespace avx2 {

void accumulate_f32(double* out, const float* in, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 f = _mm256_loadu_ps(in + i);
    const __m256d lo = _mm256_cvtps_pd(_mm256_castps256_ps128(f));
    const __m256d hi = _mm256_cvtps_pd(_mm256_extractf128_ps(f, 1));
    _mm256_storeu_pd(out + i, _mm256_add_pd(_mm256_loadu_pd(out + i), lo));
    _mm256_storeu_pd(out + i + 4,
                     _mm256_add_pd(_mm256_loadu_pd(out + i + 4), hi));
  }
  for (; i < n; ++i) out[i] += in[i];
}

void accumulate_f64(double* out, const double* in, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, _mm256_add_pd(_mm256_loadu_pd(out + i),
                                            _mm256_loadu_pd(in + i)));
  }
  for (; i < n; ++i) out[i] += in[i];
}

void combine_f64(double* out, const double* const* in, std::size_t ngroups,
                 std::size_t n) {
  if (ngroups == 0) {
    std::fill(out, out + n, 0.0);
    return;
  }
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d acc = _mm256_loadu_pd(in[0] + i);
    for (std::size_t g = 1; g < ngroups; ++g) {
      acc = _mm256_add_pd(acc, _mm256_loadu_pd(in[g] + i));
    }
    _mm256_storeu_pd(out + i, acc);
  }
  for (; i < n; ++i) {
    double acc = in[0][i];
    for (std::size_t g = 1; g < ngroups; ++g) acc += in[g][i];
    out[i] = acc;
  }
}

namespace {

/// For each 4-bit lane mask: a permutevar8x32 index vector that packs the
/// set (predicate-true) double lanes to the front in ascending lane order
/// and the clear lanes behind them — one permutation serves both the left
/// (front lanes valid) and right (back lanes valid) stores of a partition.
struct PermTable {
  alignas(32) std::int32_t idx[16][8];
};

constexpr PermTable make_perm_table() {
  PermTable t{};
  for (int m = 0; m < 16; ++m) {
    int pos = 0;
    for (int lane = 0; lane < 4; ++lane) {
      if ((m >> lane) & 1) {
        t.idx[m][2 * pos] = 2 * lane;
        t.idx[m][2 * pos + 1] = 2 * lane + 1;
        ++pos;
      }
    }
    for (int lane = 0; lane < 4; ++lane) {
      if (!((m >> lane) & 1)) {
        t.idx[m][2 * pos] = 2 * lane;
        t.idx[m][2 * pos + 1] = 2 * lane + 1;
        ++pos;
      }
    }
  }
  return t;
}

constexpr PermTable kPerm = make_perm_table();

/// Out-of-place two-way partition of src[0..n) by (x < pivot), or
/// (x <= pivot) when kLe: predicate-true elements land at out[0..lo), the
/// rest at out[lo..n) (order within each side unspecified). Returns lo.
///
/// Each 4-lane block is permuted so true lanes pack to the front and false
/// lanes to the back, then stored twice: once at the right cursor (back
/// lanes valid) and once at the left cursor (front lanes valid), junk lanes
/// falling into the still-unwritten gap between the cursors. The vector
/// loop keeps the gap >= 8 so neither store can clobber valid data; the
/// last < 8 elements partition scalar into the remaining gap.
template <bool kLe>
std::size_t partition4(const double* src, std::size_t n, double pivot,
                       double* out) {
  std::size_t lo = 0;
  std::size_t hi = n;
  std::size_t i = 0;
  const __m256d pv = _mm256_set1_pd(pivot);
  for (; i + 8 <= n; i += 4) {
    const __m256d x = _mm256_loadu_pd(src + i);
    const __m256d cmp = kLe ? _mm256_cmp_pd(x, pv, _CMP_LE_OQ)
                            : _mm256_cmp_pd(x, pv, _CMP_LT_OQ);
    const int mask = _mm256_movemask_pd(cmp);
    const int cnt = __builtin_popcount(static_cast<unsigned>(mask));
    const __m256i perm = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(kPerm.idx[mask]));
    const __m256d packed = _mm256_castsi256_pd(
        _mm256_permutevar8x32_epi32(_mm256_castpd_si256(x), perm));
    _mm256_storeu_pd(out + hi - 4, packed);
    hi -= static_cast<std::size_t>(4 - cnt);
    _mm256_storeu_pd(out + lo, packed);
    lo += static_cast<std::size_t>(cnt);
  }
  for (; i < n; ++i) {
    const double x = src[i];
    const bool left = kLe ? (x <= pivot) : (x < pivot);
    if (left) {
      out[lo++] = x;
    } else {
      out[--hi] = x;
    }
  }
  return lo;
}

inline double median3(double a, double b, double c) {
  return std::max(std::min(a, b), std::min(std::max(a, b), c));
}

}  // namespace

double select_kth(double* v, double* scratch, std::size_t n, std::size_t k) {
  // Branch-free partition quickselect, ping-ponging between the caller's
  // array and the scratch buffer. Noise-like data makes the comparisons in
  // introselect ~50% mispredicted; the vector partition has no data-dependent
  // branches at all. Pivots are median-of-3; a partition budget guards
  // adversarial inputs, falling back to introselect on whatever remains.
  double* bufs[2] = {v, scratch};
  double* src = v;
  int cur = 0;
  constexpr std::size_t kSmall = 32;
  int budget = 64;
  while (n > kSmall && budget-- > 0) {
    double* dst = bufs[1 - cur];
    const double pivot = median3(src[0], src[n / 2], src[n - 1]);
    const std::size_t nl = partition4<false>(src, n, pivot, dst);
    if (k < nl) {
      src = dst;
      n = nl;
      cur = 1 - cur;
      continue;
    }
    if (nl == 0) {
      // Every element >= pivot. Split the pivot-equal run off the front so
      // the recursion always shrinks; the pivot is an actual element, so the
      // run is non-empty.
      const std::size_t ne = partition4<true>(src, n, pivot, dst);
      if (k < ne) return pivot;
      src = dst + ne;
      n -= ne;
      k -= ne;
      cur = 1 - cur;
      continue;
    }
    src = dst + nl;
    n -= nl;
    k -= nl;
    cur = 1 - cur;
  }
  std::nth_element(src, src + static_cast<long>(k), src + n);
  return src[k];
}

namespace {

template <bool kDeviation>
std::size_t bracket_compact_impl(const double* x, std::size_t n,
                                 double center, double lo, double hi,
                                 double* out, std::size_t* below) {
  const __m256d ctr = _mm256_set1_pd(center);
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vhi = _mm256_set1_pd(hi);
  // Per-lane below counts: a true compare lane is all-ones, i.e. -1.
  __m256i nb = _mm256_setzero_si256();
  std::size_t m = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d y = _mm256_loadu_pd(x + i);
    if (kDeviation) y = _mm256_andnot_pd(sign, _mm256_sub_pd(y, ctr));
    nb = _mm256_sub_epi64(
        nb, _mm256_castpd_si256(_mm256_cmp_pd(y, vlo, _CMP_LT_OQ)));
    const int mask = _mm256_movemask_pd(
        _mm256_and_pd(_mm256_cmp_pd(y, vlo, _CMP_GE_OQ),
                      _mm256_cmp_pd(y, vhi, _CMP_LE_OQ)));
    const __m256i perm = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(kPerm.idx[mask]));
    // m <= i, so the full-width store ends at or before out[i + 4].
    _mm256_storeu_pd(out + m, _mm256_castsi256_pd(_mm256_permutevar8x32_epi32(
                                  _mm256_castpd_si256(y), perm)));
    m += static_cast<std::size_t>(
        __builtin_popcount(static_cast<unsigned>(mask)));
  }
  alignas(32) std::int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), nb);
  std::size_t count = static_cast<std::size_t>(lanes[0] + lanes[1] +
                                               lanes[2] + lanes[3]);
  for (; i < n; ++i) {
    const double y = kDeviation ? std::abs(x[i] - center) : x[i];
    out[m] = y;
    m += static_cast<std::size_t>((y >= lo) & (y <= hi));
    count += static_cast<std::size_t>(y < lo);
  }
  *below = count;
  return m;
}

}  // namespace

std::size_t bracket_compact(const double* x, std::size_t n, double center,
                            bool deviation, double lo, double hi, double* out,
                            std::size_t* below) {
  return deviation
             ? bracket_compact_impl<true>(x, n, center, lo, hi, out, below)
             : bracket_compact_impl<false>(x, n, center, lo, hi, out, below);
}

namespace {

/// The scalar twin's per-center test, for the edge centers where some
/// boxcar does not apply.
bool center_fails(const double* prefix, std::size_t n, std::size_t c,
                  const CertBoxcar* boxes, std::size_t nboxes) {
  bool fails = false;
  for (std::size_t b = 0; b < nboxes; ++b) {
    const CertBoxcar& box = boxes[b];
    if (c < box.back || n - c < box.ahead) continue;
    fails |= !(prefix[c + box.ahead] - prefix[c - box.back] < box.bound);
  }
  return fails;
}

}  // namespace

std::size_t uncertified_centers(const double* prefix, std::size_t n,
                                const CertBoxcar* boxes, std::size_t nboxes,
                                std::uint32_t* out) {
  // Interior centers [first, last) have every boxcar applicable; there the
  // certificate runs sixteen centers at a time, OR-ing each boxcar's failed
  // compare (!(sum < bound), so a NaN sum fails as in the scalar twin)
  // into lane masks. The edges, and the last < 16 interior centers, take
  // the scalar twin's per-boxcar test.
  std::size_t max_back = 0;
  std::size_t max_ahead = 0;
  for (std::size_t b = 0; b < nboxes; ++b) {
    max_back = std::max(max_back, boxes[b].back);
    max_ahead = std::max(max_ahead, boxes[b].ahead);
  }
  const std::size_t first = std::min(max_back, n);
  const std::size_t last =
      n >= max_ahead ? std::clamp(n - max_ahead + 1, first, n) : first;
  std::size_t count = 0;
  std::size_t c = 0;
  for (; c < first; ++c) {
    if (center_fails(prefix, n, c, boxes, nboxes)) {
      out[count++] = static_cast<std::uint32_t>(c);
    }
  }
  // Each boxcar's offsets and bound are loaded once per step and applied to
  // four vectors of centers.
  for (; c + 16 <= last; c += 16) {
    __m256d f0 = _mm256_setzero_pd();
    __m256d f1 = _mm256_setzero_pd();
    __m256d f2 = _mm256_setzero_pd();
    __m256d f3 = _mm256_setzero_pd();
    for (std::size_t b = 0; b < nboxes; ++b) {
      const double* hp = prefix + c + boxes[b].ahead;
      const double* lp = prefix + c - boxes[b].back;
      const __m256d bound = _mm256_set1_pd(boxes[b].bound);
      const auto fails = [&](std::size_t v) {
        return _mm256_cmp_pd(_mm256_sub_pd(_mm256_loadu_pd(hp + v),
                                           _mm256_loadu_pd(lp + v)),
                             bound, _CMP_NLT_UQ);
      };
      f0 = _mm256_or_pd(f0, fails(0));
      f1 = _mm256_or_pd(f1, fails(4));
      f2 = _mm256_or_pd(f2, fails(8));
      f3 = _mm256_or_pd(f3, fails(12));
    }
    unsigned mask = static_cast<unsigned>(_mm256_movemask_pd(f0)) |
                    static_cast<unsigned>(_mm256_movemask_pd(f1)) << 4 |
                    static_cast<unsigned>(_mm256_movemask_pd(f2)) << 8 |
                    static_cast<unsigned>(_mm256_movemask_pd(f3)) << 12;
    while (mask != 0) {
      out[count++] = static_cast<std::uint32_t>(c + __builtin_ctz(mask));
      mask &= mask - 1;
    }
  }
  for (; c < n; ++c) {
    if (center_fails(prefix, n, c, boxes, nboxes)) {
      out[count++] = static_cast<std::uint32_t>(c);
    }
  }
  return count;
}

}  // namespace avx2
}  // namespace kernels
}  // namespace drapid

#endif  // x86
