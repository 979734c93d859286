// Scalar kernel implementations and the runtime dispatcher.
//
// The scalar loops are written exactly like the pre-kernel code they replace
// (same operation per element, same order), so the scalar path is
// bit-identical to seed on every input. The AVX2 implementations live in
// kernels_avx2.cpp, compiled with -mavx2 in its own translation unit so no
// AVX2 instruction can leak into code that runs on non-AVX2 hosts.
#include "dedisp/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

namespace drapid {
namespace kernels {

namespace scalar {

void accumulate_f32(double* out, const float* in, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] += in[i];
}

void accumulate_f64(double* out, const double* in, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] += in[i];
}

void combine_f64(double* out, const double* const* in, std::size_t ngroups,
                 std::size_t n) {
  if (ngroups == 0) {
    std::fill(out, out + n, 0.0);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    double acc = in[0][i];
    for (std::size_t g = 1; g < ngroups; ++g) acc += in[g][i];
    out[i] = acc;
  }
}

std::size_t bracket_compact(const double* x, std::size_t n, double center,
                            bool deviation, double lo, double hi, double* out,
                            std::size_t* below) {
  // Branch-free: every y is written at the cursor, which advances only for
  // in-bracket values (the cursor never passes i, so out[m] stays in room).
  std::size_t m = 0;
  std::size_t nb = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double y = deviation ? std::abs(x[i] - center) : x[i];
    out[m] = y;
    m += static_cast<std::size_t>((y >= lo) & (y <= hi));
    nb += static_cast<std::size_t>(y < lo);
  }
  *below = nb;
  return m;
}

double select_kth(double* v, double* scratch, std::size_t n, std::size_t k) {
  // Exact selection is algorithm-independent, so the scalar path just uses
  // the library's introselect — precisely what robust_stats called before.
  (void)scratch;
  std::nth_element(v, v + static_cast<long>(k), v + n);
  return v[k];
}

std::size_t uncertified_centers(const double* prefix, std::size_t n,
                                const CertBoxcar* boxes, std::size_t nboxes,
                                std::uint32_t* out) {
  // Centers in [first, last) have every boxcar applicable and skip the
  // per-boxcar applicability test; each center is written at the cursor,
  // which advances only when some boxcar fails.
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
  const auto scan = [&](std::size_t begin, std::size_t end, bool edge) {
    for (std::size_t c = begin; c < end; ++c) {
      bool fails = false;
      for (std::size_t b = 0; b < nboxes; ++b) {
        const CertBoxcar& box = boxes[b];
        if (edge && (c < box.back || n - c < box.ahead)) continue;
        fails |= !(prefix[c + box.ahead] - prefix[c - box.back] < box.bound);
      }
      out[count] = static_cast<std::uint32_t>(c);
      count += static_cast<std::size_t>(fails);
    }
  };
  scan(0, first, true);
  scan(first, last, false);
  scan(last, n, true);
  return count;
}

}  // namespace scalar

namespace {

bool detect_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool resolve_use_avx2() {
  if (!detect_avx2()) return false;
  const char* force = std::getenv("DRAPID_FORCE_SCALAR");
  return !(force != nullptr && force[0] == '1' && force[1] == '\0');
}

}  // namespace

bool avx2_supported() {
  static const bool supported = detect_avx2();
  return supported;
}

bool using_avx2() {
  static const bool use = resolve_use_avx2();
  return use;
}

const char* dispatch_name() { return using_avx2() ? "avx2" : "scalar"; }

void accumulate_f32(double* out, const float* in, std::size_t n) {
  if (using_avx2()) {
    avx2::accumulate_f32(out, in, n);
  } else {
    scalar::accumulate_f32(out, in, n);
  }
}

void accumulate_f64(double* out, const double* in, std::size_t n) {
  if (using_avx2()) {
    avx2::accumulate_f64(out, in, n);
  } else {
    scalar::accumulate_f64(out, in, n);
  }
}

void combine_f64(double* out, const double* const* in, std::size_t ngroups,
                 std::size_t n) {
  if (using_avx2()) {
    avx2::combine_f64(out, in, ngroups, n);
  } else {
    scalar::combine_f64(out, in, ngroups, n);
  }
}

std::size_t bracket_compact(const double* x, std::size_t n, double center,
                            bool deviation, double lo, double hi, double* out,
                            std::size_t* below) {
  return using_avx2()
             ? avx2::bracket_compact(x, n, center, deviation, lo, hi, out,
                                     below)
             : scalar::bracket_compact(x, n, center, deviation, lo, hi, out,
                                       below);
}

double select_kth(double* v, double* scratch, std::size_t n, std::size_t k) {
  return using_avx2() ? avx2::select_kth(v, scratch, n, k)
                      : scalar::select_kth(v, scratch, n, k);
}

std::size_t uncertified_centers(const double* prefix, std::size_t n,
                                const CertBoxcar* boxes, std::size_t nboxes,
                                std::uint32_t* out) {
  return using_avx2()
             ? avx2::uncertified_centers(prefix, n, boxes, nboxes, out)
             : scalar::uncertified_centers(prefix, n, boxes, nboxes, out);
}

#if !defined(__x86_64__) && !defined(__i386__)
// Non-x86 build: the AVX2 entry points exist so the dispatcher links, but
// avx2_supported() is always false and they are never reached.
namespace avx2 {
void accumulate_f32(double* out, const float* in, std::size_t n) {
  scalar::accumulate_f32(out, in, n);
}
void accumulate_f64(double* out, const double* in, std::size_t n) {
  scalar::accumulate_f64(out, in, n);
}
void combine_f64(double* out, const double* const* in, std::size_t ngroups,
                 std::size_t n) {
  scalar::combine_f64(out, in, ngroups, n);
}
std::size_t bracket_compact(const double* x, std::size_t n, double center,
                            bool deviation, double lo, double hi, double* out,
                            std::size_t* below) {
  return scalar::bracket_compact(x, n, center, deviation, lo, hi, out, below);
}
double select_kth(double* v, double* scratch, std::size_t n, std::size_t k) {
  return scalar::select_kth(v, scratch, n, k);
}
std::size_t uncertified_centers(const double* prefix, std::size_t n,
                                const CertBoxcar* boxes, std::size_t nboxes,
                                std::uint32_t* out) {
  return scalar::uncertified_centers(prefix, n, boxes, nboxes, out);
}
}  // namespace avx2
#endif

}  // namespace kernels
}  // namespace drapid
