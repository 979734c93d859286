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

/// Robust location/scale from the median and the median absolute deviation,
/// through the selection kernel (kernels.hpp). select_kth consumes its
/// buffers, so the workspace is refilled from `values` before the MAD pass —
/// the absolute deviations of a permuted copy are a permutation of the
/// originals, so both selections return exactly the values the seed's
/// in-place nth_element produced.
std::pair<double, double> robust_stats(const std::vector<double>& values,
                                       std::vector<double>& workspace,
                                       std::vector<double>& select_scratch) {
  if (values.empty()) return {0.0, 0.0};
  const std::size_t size = values.size();
  const std::size_t mid = size / 2;
  workspace.resize(size);
  select_scratch.resize(size);
  std::copy(values.begin(), values.end(), workspace.begin());
  const double median =
      kernels::select_kth(workspace.data(), select_scratch.data(), size, mid);
  // select_kth consumed the workspace; refill and take deviations in one
  // fused pass straight from the untouched input.
  kernels::abs_deviation(workspace.data(), values.data(), size, median);
  const double mad =
      kernels::select_kth(workspace.data(), select_scratch.data(), size, mid);
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
  struct Boxcar {
    std::size_t back;   ///< center - start  (w/2)
    std::size_t ahead;  ///< end - center    (w - w/2)
    double norm;
    double below_bound;  ///< diff < bound certifies diff/norm < threshold
    int width;
  };
  constexpr std::size_t kStackBoxcars = 16;
  Boxcar stack_boxcars[kStackBoxcars];
  std::vector<Boxcar> heap_boxcars;
  Boxcar* boxcars = stack_boxcars;
  if (params.boxcar_widths.size() > kStackBoxcars) {
    heap_boxcars.resize(params.boxcar_widths.size());
    boxcars = heap_boxcars.data();
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
    boxcars[num_boxcars++] = {
        uw / 2, uw - uw / 2, norm,
        params.snr_threshold * norm * (1.0 - 1e-12), w};
  }
  // Only samples that end up part of an above-threshold island influence
  // the output events (below-threshold samples are merely skipped over),
  // so almost every center takes the certificate fast path: no division,
  // no best-width bookkeeping. The certificate is evaluated boxcar-outer
  // through the vectorized kernel — each boxcar ANDs its compare into a
  // byte mask over its applicable centers, which computes exactly the
  // AND-over-boxcars the old short-circuit center loop did. The handful of
  // centers a boxcar pushes near threshold compute their exact best S/N
  // and width the way a width-outermost scan would: widths in list order,
  // strict improvement.
  const bool can_certify = params.snr_threshold > 0.0;
  auto& below = scratch.below;
  below.assign(n, can_certify ? 1 : 0);
  if (can_certify) {
    for (std::size_t b = 0; b < num_boxcars; ++b) {
      const Boxcar& box = boxcars[b];
      // Centers with c >= back and c + ahead <= n; every prefix read stays
      // inside the n+1 entries.
      const std::size_t begin = box.back;
      const std::size_t end = n >= box.ahead ? n - box.ahead + 1 : 0;
      if (begin >= end) continue;
      kernels::certify_below(prefix.data(), begin, end, box.back, box.ahead,
                             box.below_bound, below.data());
    }
  }
  // Exact best S/N and width for one center, the way a width-outermost scan
  // would see it: widths in list order, strict improvement. Only called for
  // the handful of uncertified centers.
  const auto exact_best = [&](std::size_t c, double& best, int& width) {
    best = 0.0;
    width = 1;
    for (std::size_t b = 0; b < num_boxcars; ++b) {
      const Boxcar& box = boxcars[b];
      if (c < box.back || n - c < box.ahead) continue;
      const double snr = (prefix[c + box.ahead] - prefix[c - box.back]) /
                         box.norm;
      if (snr > best) {
        best = snr;
        width = box.width;
      }
    }
  };

  // Local maxima above threshold, merging anything within the detecting
  // width (one event per pulse, PRESTO-style). A certified center's best
  // S/N is below threshold by construction, so the island scan treats the
  // certificate byte as "below" directly and computes the exact S/N only
  // where the certificate declined — no per-sample best arrays at all.
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
    // Extend over the contiguous above-threshold island; keep the peak
    // (strictly-greater comparison — first peak wins ties, exactly like the
    // array-based scan).
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
