#include "dedisp/single_pulse_search.hpp"

#include "dedisp/kernels.hpp"
#include "dedisp/rfi_mitigation.hpp"
#include "dedisp/subband_sweep.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/counters.hpp"
#include "synth/dispersion.hpp"
#include "util/flat_hash.hpp"

namespace drapid {

std::vector<std::uint32_t> dispersion_shifts(const Filterbank& fb, double dm) {
  const std::size_t n = fb.num_samples();
  if (n > static_cast<std::size_t>(std::numeric_limits<std::uint32_t>::max())) {
    // The clamp value itself must fit the uint32 shift entries.
    throw std::domain_error(
        "dispersion_shifts: observation of " + std::to_string(n) +
        " samples exceeds the 2^32-1 shift range");
  }
  const double dt_s = fb.config().sample_time_ms * 1e-3;
  std::vector<std::uint32_t> shifts(fb.num_channels());
  const double ref_delay = dispersion_delay_s(dm, fb.channel_freq_mhz(0));
  for (std::size_t c = 0; c < fb.num_channels(); ++c) {
    const double delay =
        dispersion_delay_s(dm, fb.channel_freq_mhz(c)) - ref_delay;
    const double rounded = delay / dt_s + 0.5;
    // A negative or NaN shift would cast to uint32 as undefined behavior /
    // silent wraparound (a negative DM makes every non-reference delay
    // negative; a NaN frequency poisons the delay). Fail loudly instead.
    if (!(rounded >= 0.0)) {
      throw std::domain_error(
          "dispersion_shifts: channel " + std::to_string(c) + " at DM " +
          std::to_string(dm) + " has negative or NaN sample shift " +
          std::to_string(rounded) +
          " (negative DMs relative to the reference channel are not "
          "searchable)");
    }
    // A shift of num_samples already contributes nothing; saturating there
    // keeps the vector (and dedup keys) bounded for extreme DMs — this is
    // deliberate saturation, not wraparound, and covers delays beyond the
    // uint32 range as well.
    shifts[c] = rounded >= static_cast<double>(n)
                    ? static_cast<std::uint32_t>(n)
                    : static_cast<std::uint32_t>(rounded);
  }
  return shifts;
}

SweepPlan build_sweep_plan(const Filterbank& fb, const DmGrid& grid,
                           std::size_t dm_stride) {
  return build_sweep_plan(fb, grid, dm_stride, {});
}

SweepPlan build_sweep_plan(const Filterbank& fb, const DmGrid& grid,
                           std::size_t dm_stride,
                           const std::vector<std::uint8_t>& channel_mask) {
  const std::size_t channels = fb.num_channels();
  std::uint32_t active = 0;
  if (!channel_mask.empty()) {
    if (channel_mask.size() != channels) {
      throw std::invalid_argument(
          "build_sweep_plan: channel mask has " +
          std::to_string(channel_mask.size()) + " entries for " +
          std::to_string(channels) + " channels");
    }
    for (std::uint8_t m : channel_mask) {
      if (m == 0) ++active;
    }
    if (active == 0) {
      throw std::invalid_argument(
          "build_sweep_plan: channel mask excludes every channel");
    }
  }
  const auto saturated = static_cast<std::uint32_t>(fb.num_samples());
  SweepPlan sweep;
  const std::size_t stride = std::max<std::size_t>(1, dm_stride);
  // Dedup key: the raw bytes of the shift vector. Shift vectors are a
  // monotone step function of DM, so duplicates form contiguous runs, but
  // the hash map keeps the grouping correct regardless.
  FlatHashMap<std::string, std::uint32_t> index;
  std::string key;
  for (std::size_t trial = 0; trial < grid.size(); trial += stride) {
    auto shifts = dispersion_shifts(fb, grid.dm_at(trial));
    if (active != 0 && active != channels) {
      // Masked channels take the "contributes nothing" saturation value —
      // they drop out of the accumulation, the dedup key, and the analytic
      // contributor counts with no special cases downstream.
      for (std::size_t c = 0; c < channels; ++c) {
        if (channel_mask[c]) shifts[c] = saturated;
      }
    }
    key.assign(reinterpret_cast<const char*>(shifts.data()),
               shifts.size() * sizeof(std::uint32_t));
    auto [entry, inserted] =
        index.try_emplace(key, static_cast<std::uint32_t>(sweep.plans.size()));
    if (inserted) {
      ShiftPlan plan;
      if (active != 0 && active != channels) {
        // max_shift over surviving channels only: the saturated masked
        // entries would otherwise stretch the streaming carry window (and
        // the tail-normalization span) to the whole observation.
        std::uint32_t max_shift = 0;
        for (std::size_t c = 0; c < channels; ++c) {
          if (!channel_mask[c]) max_shift = std::max(max_shift, shifts[c]);
        }
        plan.max_shift = max_shift;
        plan.active_channels = active;
      } else {
        plan.max_shift = shifts.empty()
                             ? 0
                             : *std::max_element(shifts.begin(), shifts.end());
      }
      plan.shifts = std::move(shifts);
      sweep.plans.push_back(std::move(plan));
    }
    sweep.plans[entry->second].trials.push_back(trial);
    sweep.plan_of_trial.push_back(entry->second);
    ++sweep.num_trials;
  }
  return sweep;
}

void dedisperse_plan(const Filterbank& fb, const ShiftPlan& plan,
                     DedispScratch& scratch) {
  const std::size_t n = fb.num_samples();
  const std::size_t channels = fb.num_channels();
  auto& series = scratch.series;
  series.assign(n, 0.0);
  // Channel-major accumulation: for each channel the reads and writes are
  // both contiguous, and every sample still sums its channels in ascending
  // channel order — the exact summation order of dedisperse().
  for (std::size_t c = 0; c < channels; ++c) {
    const std::uint32_t shift = plan.shifts[c];
    const std::size_t limit = n - static_cast<std::size_t>(shift);
    kernels::accumulate_f32(series.data(), fb.channel_data(c) + shift, limit);
  }

  normalize_tail(plan, channels, series, scratch.contrib_prefix);
}

void normalize_tail(const ShiftPlan& plan, std::size_t channels,
                    std::vector<double>& series,
                    std::vector<std::uint32_t>& prefix) {
  const std::size_t n = series.size();
  // contributors[s] — the number of channels whose shifted data still covers
  // sample s — equals |{c : shifts[c] <= n-1-s}|, so it comes from a
  // counting pass over the shift vector instead of a per-sample increment in
  // the accumulation loop. Samples covered by every channel need no
  // renormalization and are skipped outright.
  const std::size_t m = std::min<std::size_t>(plan.max_shift, n);
  prefix.assign(m + 1, 0);
  for (std::size_t c = 0; c < channels; ++c) {
    if (plan.shifts[c] < n) ++prefix[plan.shifts[c]];
  }
  for (std::size_t v = 1; v <= m; ++v) prefix[v] += prefix[v - 1];
  // A masked plan rescales to its active channel count: masked channels
  // contribute no samples anywhere, so the "full" noise level is the
  // reduced band's — exactly the series a filterbank with those channels
  // physically removed would produce.
  const std::size_t effective =
      plan.active_channels != 0 ? plan.active_channels : channels;
  const double full = static_cast<double>(effective);
  // Head samples (s <= n-1-m) are covered by every active channel (m < n
  // implies every counted shift <= m, so prefix[m] == effective) and need no
  // renormalization; only the max_shift-long tail is touched.
  const std::size_t head = n > m ? n - m : 0;
  for (std::size_t s = head; s < n; ++s) {
    const std::uint32_t contributors = prefix[n - 1 - s];
    if (contributors > 0 &&
        static_cast<std::size_t>(contributors) < effective) {
      series[s] *= full / static_cast<double>(contributors);
    }
  }
}

std::vector<double> dedisperse(const Filterbank& fb, double dm) {
  ShiftPlan plan;
  plan.shifts = dispersion_shifts(fb, dm);
  plan.max_shift = plan.shifts.empty()
                       ? 0
                       : *std::max_element(plan.shifts.begin(),
                                           plan.shifts.end());
  DedispScratch scratch;
  dedisperse_plan(fb, plan, scratch);
  return std::move(scratch.series);
}

namespace detail {

double select_rank(const double* x, std::size_t n, std::size_t k,
                   double center, bool deviation,
                   std::vector<double>& workspace,
                   std::vector<double>& select_scratch) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  workspace.resize(n);
  select_scratch.resize(n);
  std::size_t below = 0;
  if (n >= kSelectMinSamples) {
    // Bracket the rank by the order statistics kSelectGap either side of
    // its position in the fixed-stride sample. A side the sample cannot
    // bound (the rank within kSelectGap of a sample end) stays infinite.
    // select_kth consumes its buffers, so the upper end selects in a copy.
    double sample[kSelectSample];
    double upper[kSelectSample];
    double scratch[kSelectSample];
    const std::size_t stride = n / kSelectSample;
    for (std::size_t j = 0; j < kSelectSample; ++j) {
      const double v = x[j * stride];
      sample[j] = deviation ? std::abs(v - center) : v;
    }
    std::copy(sample, sample + kSelectSample, upper);
    const std::size_t r = k * kSelectSample / n;
    const double lo = r >= kSelectGap
                          ? kernels::select_kth(sample, scratch, kSelectSample,
                                                r - kSelectGap)
                          : -kInf;
    const double hi = r + kSelectGap < kSelectSample
                          ? kernels::select_kth(upper, scratch, kSelectSample,
                                                r + kSelectGap)
                          : kInf;
    // Every y < lo ranks below the bracket and every y > hi above it, so
    // when k lands inside, the k-th smallest is the (k - below)-th of the
    // compacted values — the same element a full selection finds.
    const std::size_t inside = kernels::bracket_compact(
        x, n, center, deviation, lo, hi, workspace.data(), &below);
    if (below <= k && k - below < inside) {
      return kernels::select_kth(workspace.data(), select_scratch.data(),
                                 inside, k - below);
    }
    static obs::CounterRegistry::Counter& fallbacks =
        obs::global_counters().counter("dedisp.select.fallbacks");
    fallbacks.add();
  }
  // The open bracket keeps every value: a full selection.
  kernels::bracket_compact(x, n, center, deviation, -kInf, kInf,
                           workspace.data(), &below);
  return kernels::select_kth(workspace.data(), select_scratch.data(), n, k);
}

}  // namespace detail

/// Robust location/scale from the median and the median absolute deviation,
/// each an exact bracketed selection straight from the untouched input: the
/// MAD's deviations |x - median| are formed inside the bracket pass, so no
/// copy or refill of the series is made.
std::pair<double, double> robust_stats(const std::vector<double>& values,
                                       std::vector<double>& workspace,
                                       std::vector<double>& select_scratch) {
  if (values.empty()) return {0.0, 0.0};
  const std::size_t size = values.size();
  const std::size_t mid = size / 2;
  const double median = detail::select_rank(values.data(), size, mid, 0.0,
                                            false, workspace, select_scratch);
  const double mad = detail::select_rank(values.data(), size, mid, median,
                                         true, workspace, select_scratch);
  // MAD at (or numerically indistinguishable from) zero means the series
  // has no measurable noise scale — constant, single-sample, or fully
  // masked input. Report scale 0.0 and let callers refuse to standardize:
  // the old 1.0 floor turned raw boxcar sums into fake "S/N" values, and a
  // genuinely tiny MAD inflated any stray sample into an unbounded one.
  const double sigma = mad > 1e-12 ? mad * 1.4826 : 0.0;
  return {median, sigma};
}

void detect_events_into(const std::vector<double>& series, double dm,
                        double sample_time_ms,
                        const SinglePulseSearchParams& params,
                        DetectScratch& scratch,
                        std::vector<SinglePulseEvent>& out) {
  const std::size_t n = series.size();
  if (n == 0) return;
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("detect_events: series of " + std::to_string(n) +
                            " samples exceeds the 2^32-1 center range");
  }
  const auto [median, sigma] = robust_stats(series, scratch.stats_workspace,
                                            scratch.select_scratch);
  // Degenerate-series guard: with no noise scale there is no S/N — every
  // detection would divide by zero (or by a floor that makes the numbers
  // meaningless). A constant series carries no pulse; report nothing.
  if (!(sigma > 0.0)) return;

  // best S/N and width per sample across boxcars
  auto& prefix = scratch.prefix;
  prefix.resize(n + 1);
  prefix[0] = 0.0;
  for (std::size_t s = 0; s < n; ++s) {
    prefix[s + 1] = prefix[s] + (series[s] - median);
  }
  // A width-w boxcar starting at s is attributed to its central sample
  // s + w/2, so the boxcars covering one center are a fixed stencil around
  // it. Scanning center-outermost keeps the running best in registers and
  // the prefix reads local, and visits each center's widths in the same
  // list order (with the same strict-improvement tie-break) as a
  // width-outermost scan — best_snr/best_width come out identical.
  // certs[b] holds boxcar b's stencil (back = center - start = w/2,
  // ahead = end - center = w - w/2) and certificate bound; boxcars[b] its
  // S/N normalization and width.
  struct Boxcar {
    double norm;
    int width;
  };
  constexpr std::size_t kStackBoxcars = 16;
  Boxcar stack_boxcars[kStackBoxcars];
  kernels::CertBoxcar stack_certs[kStackBoxcars];
  std::vector<Boxcar> heap_boxcars;
  std::vector<kernels::CertBoxcar> heap_certs;
  Boxcar* boxcars = stack_boxcars;
  kernels::CertBoxcar* certs = stack_certs;
  if (params.boxcar_widths.size() > kStackBoxcars) {
    heap_boxcars.resize(params.boxcar_widths.size());
    heap_certs.resize(params.boxcar_widths.size());
    boxcars = heap_boxcars.data();
    certs = heap_certs.data();
  }
  std::size_t num_boxcars = 0;
  for (int w : params.boxcar_widths) {
    if (w <= 0 || static_cast<std::size_t>(w) > n) continue;
    const auto uw = static_cast<std::size_t>(w);
    const double norm = sigma * std::sqrt(static_cast<double>(w));
    // Conservative division-free certificate: diff/norm carries at most a
    // few ulp of rounding error, so diff < threshold*norm*(1 - 1e-12)
    // guarantees the rounded S/N is below threshold. Samples inside the
    // 1e-12 relative band fall through to the exact path.
    certs[num_boxcars] = {uw / 2, uw - uw / 2,
                          params.snr_threshold * norm * (1.0 - 1e-12)};
    boxcars[num_boxcars++] = {norm, w};
  }
  // Only samples that end up part of an above-threshold island influence
  // the output events (below-threshold samples are merely skipped over),
  // so almost every center takes the certificate fast path: no division,
  // no best-width bookkeeping. One kernel pass evaluates every applicable
  // boxcar per center and lists, ascending, the few centers some boxcar
  // could not certify. With a non-positive threshold nothing certifies and
  // every center is listed.
  auto& listed = scratch.uncertified;
  listed.resize(n);
  std::size_t num_listed = n;
  if (params.snr_threshold > 0.0) {
    num_listed = kernels::uncertified_centers(prefix.data(), n, certs,
                                              num_boxcars, listed.data());
  } else {
    for (std::size_t c = 0; c < n; ++c) {
      listed[c] = static_cast<std::uint32_t>(c);
    }
  }
  // Exact best S/N and width for one center, the way a width-outermost scan
  // would see it: widths in list order, strict improvement. Only called for
  // the listed centers.
  const auto exact_best = [&](std::size_t c, double& best, int& width) {
    best = 0.0;
    width = 1;
    for (std::size_t b = 0; b < num_boxcars; ++b) {
      const kernels::CertBoxcar& box = certs[b];
      if (c < box.back || n - c < box.ahead) continue;
      const double snr = (prefix[c + box.ahead] - prefix[c - box.back]) /
                         boxcars[b].norm;
      if (snr > best) {
        best = snr;
        width = boxcars[b].width;
      }
    }
  };

  // Local maxima above threshold, merging anything within the detecting
  // width (one event per pulse, PRESTO-style). A certified center's best
  // S/N is below threshold by construction, so the island scan walks only
  // the listed centers: an island runs over consecutive listed centers
  // whose exact S/N reaches threshold, and ends at the first certified
  // center (a gap in the list) or the first listed one below threshold,
  // which is then looked at again as a possible island start.
  std::size_t i = 0;
  while (i < num_listed) {
    double best;
    int width;
    exact_best(listed[i], best, width);
    if (best < params.snr_threshold) {
      ++i;
      continue;
    }
    // Extend over the contiguous above-threshold island; keep the peak
    // (strictly-greater comparison — first peak wins ties, exactly like the
    // array-based scan).
    double peak_snr = best;
    int peak_width = width;
    std::size_t peak = listed[i];
    std::size_t j = i + 1;
    while (j < num_listed && listed[j] == listed[j - 1] + 1) {
      exact_best(listed[j], best, width);
      if (best < params.snr_threshold) break;
      if (best > peak_snr) {
        peak_snr = best;
        peak_width = width;
        peak = listed[j];
      }
      ++j;
    }
    SinglePulseEvent e;
    e.dm = dm;
    e.snr = peak_snr;
    e.sample = static_cast<std::int64_t>(peak);
    e.time_s = static_cast<double>(peak) * sample_time_ms * 1e-3;
    e.downfact = peak_width;
    out.push_back(e);
    i = j;
  }
}

std::vector<SinglePulseEvent> detect_events(
    const std::vector<double>& series, double dm, double sample_time_ms,
    const SinglePulseSearchParams& params) {
  std::vector<SinglePulseEvent> events;
  DetectScratch scratch;
  detect_events_into(series, dm, sample_time_ms, params, scratch, events);
  return events;
}

namespace detail {

std::vector<SinglePulseEvent> merge_plan_events(
    const SweepPlan& sweep, const DmGrid& grid, std::size_t dm_stride,
    const std::vector<std::vector<SinglePulseEvent>>& found) {
  // Deterministic merge: walk the strided trial sequence in order (exactly
  // the order the per-trial loop appended events in) and stamp each trial's
  // nominal DM into its plan's shared event list.
  std::vector<SinglePulseEvent> events;
  const std::size_t stride = std::max<std::size_t>(1, dm_stride);
  for (std::size_t t = 0; t < sweep.num_trials; ++t) {
    const std::uint32_t p = sweep.plan_of_trial[t];
    const double dm = grid.dm_at(t * stride);
    for (SinglePulseEvent e : found[p]) {
      e.dm = dm;
      events.push_back(e);
    }
  }
  std::sort(events.begin(), events.end(),
            [](const SinglePulseEvent& a, const SinglePulseEvent& b) {
              if (a.dm != b.dm) return a.dm < b.dm;
              return a.time_s < b.time_s;
            });
  return events;
}

}  // namespace detail

std::vector<SinglePulseEvent> single_pulse_search(
    const Filterbank& fb, const DmGrid& grid,
    const SinglePulseSearchParams& params) {
  if (params.rfi.policy != MitigationPolicy::kOff) {
    // The mitigation stage (rfi_mitigation.cpp) estimates/applies the
    // cleaning and re-enters here with policy kOff and the mask resolved.
    return detail::mitigated_single_pulse_search(fb, grid, params);
  }
  return detail::subband_single_pulse_search(fb, grid, params,
                                             detail::kSubbandArenaBudgetBytes);
}

}  // namespace drapid
