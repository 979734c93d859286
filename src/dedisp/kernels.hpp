// Runtime-dispatched SIMD kernels for the dedispersion hot loops (PR 8).
//
// The DM sweep spends its time in four tight loops: the float→double
// accumulation that sums shifted channel rows, the double→double accumulation
// that combines subband partials, the bracket and selection passes behind
// the median/MAD standardization in robust_stats, and the one-pass
// threshold certificate of detect_events_into. Each one gets a
// hand-vectorized AVX2 implementation here, selected once at process start
// via CPUID with a portable scalar twin.
//
// Every kernel is *exact*: the elementwise kernels (accumulate, bracket
// compaction, certificate compare) do the same operation per element as the
// scalar twin and emit in the same order, and select_kth returns the k-th
// smallest element of the array — a value that does not depend on the
// selection algorithm. So the AVX2 and scalar paths produce bit-identical
// results. (The subband sweep's bounded series error comes from
// *regrouping* channel sums, not from these kernels — see subband_sweep.hpp.)
//
// Finite input is a precondition of the bracket and selection kernels: a
// NaN breaks the strict weak ordering an exact selection assumes (the
// SIGPROC reader rejects non-finite samples for this reason).
//
// Dispatch: AVX2 is used when the CPU reports it and the environment does
// not say otherwise; `DRAPID_FORCE_SCALAR=1` pins the scalar path (the CI
// job for non-AVX2 hosts runs the dedisp suites this way). Tests can also
// call the `scalar::` / `avx2::` entry points directly to compare paths
// in one process.
#pragma once

#include <cstddef>
#include <cstdint>

namespace drapid {
namespace kernels {

/// True when the CPU supports AVX2 (CPUID, cached).
bool avx2_supported();

/// True when the dispatched entry points below use the AVX2 path:
/// avx2_supported() and DRAPID_FORCE_SCALAR is not "1" in the environment
/// (checked once, at first use).
bool using_avx2();

/// "avx2" or "scalar" — the dispatch choice, for counters and span args.
const char* dispatch_name();

// --- dispatched entry points ------------------------------------------------

/// out[i] += in[i] for i in [0, n): the dedispersion accumulation inner loop
/// (shifted float channel row into the double series).
void accumulate_f32(double* out, const float* in, std::size_t n);

/// out[i] += in[i] for i in [0, n): the subband combine inner loop (shifted
/// double partial series into the double series).
void accumulate_f64(double* out, const double* in, std::size_t n);

/// out[i] = in[0][i] + in[1][i] + ... + in[ngroups-1][i] (assignment, not
/// accumulation) for i in [0, n): the fused subband combine. Summing G
/// streams in one pass reads 8 bytes per stream element instead of the
/// 24 bytes per element of G separate read-modify-write passes. ngroups == 0
/// zero-fills. The addition order is ascending stream index per element —
/// identical across the scalar and AVX2 paths (lanes are independent).
void combine_f64(double* out, const double* const* in, std::size_t ngroups,
                 std::size_t n);

/// One pass of the bracketed selection behind robust_stats. With
/// y[i] = x[i] (deviation false) or |x[i] - center| (deviation true),
/// stores the number of y[i] < lo in *below and compacts every
/// lo <= y[i] <= hi into out, in input order; returns the compacted count.
/// `out` needs room for n values and must not alias x. With lo = -inf and
/// hi = +inf this is a plain copy (or the full deviation fill) of x.
std::size_t bracket_compact(const double* x, std::size_t n, double center,
                            bool deviation, double lo, double hi, double* out,
                            std::size_t* below);

/// Returns the k-th smallest element of v[0..n) (0-based; k < n, n > 0).
/// CONSUMES v and scratch (same length n): the AVX2 path partitions
/// out-of-place between the two buffers, so afterwards neither holds a
/// permutation of the input — refill before reuse. Exact selection: the
/// result is the element that would be at index k after a full sort,
/// identical for every implementation — this replaces std::nth_element in
/// robust_stats, where branch mispredictions on noise-like data made it the
/// detection stage's largest cost.
double select_kth(double* v, double* scratch, std::size_t n, std::size_t k);

/// One boxcar of the division-free threshold certificate: a width-w boxcar
/// attributed to center c sums prefix[c + ahead] - prefix[c - back]
/// (back = w/2, ahead = w - w/2), and a sum below `bound` certifies that
/// its S/N is below threshold.
struct CertBoxcar {
  std::size_t back;
  std::size_t ahead;
  double bound;
};

/// The one-pass certificate of detect_events_into: writes to out, in
/// ascending order, every center c in [0, n) that some *applicable* boxcar
/// (back <= c and c + ahead <= n) fails to certify — where
/// !(prefix[c + ahead] - prefix[c - back] < bound) — and returns how many.
/// A center no boxcar applies to is certified. `prefix` has n + 1 entries;
/// `out` needs room for n values; n must fit in uint32.
std::size_t uncertified_centers(const double* prefix, std::size_t n,
                                const CertBoxcar* boxes, std::size_t nboxes,
                                std::uint32_t* out);

// --- direct paths (for tests and the dispatcher) ----------------------------

namespace scalar {
void accumulate_f32(double* out, const float* in, std::size_t n);
void accumulate_f64(double* out, const double* in, std::size_t n);
void combine_f64(double* out, const double* const* in, std::size_t ngroups,
                 std::size_t n);

std::size_t bracket_compact(const double* x, std::size_t n, double center,
                            bool deviation, double lo, double hi, double* out,
                            std::size_t* below);
double select_kth(double* v, double* scratch, std::size_t n, std::size_t k);
std::size_t uncertified_centers(const double* prefix, std::size_t n,
                                const CertBoxcar* boxes, std::size_t nboxes,
                                std::uint32_t* out);
}  // namespace scalar

/// Only callable when avx2_supported(); the dispatcher never routes here
/// otherwise, and tests must check before comparing paths.
namespace avx2 {
void accumulate_f32(double* out, const float* in, std::size_t n);
void accumulate_f64(double* out, const double* in, std::size_t n);
void combine_f64(double* out, const double* const* in, std::size_t ngroups,
                 std::size_t n);

std::size_t bracket_compact(const double* x, std::size_t n, double center,
                            bool deviation, double lo, double hi, double* out,
                            std::size_t* below);
double select_kth(double* v, double* scratch, std::size_t n, std::size_t k);
std::size_t uncertified_centers(const double* prefix, std::size_t n,
                                const CertBoxcar* boxes, std::size_t nboxes,
                                std::uint32_t* out);
}  // namespace avx2

}  // namespace kernels
}  // namespace drapid
