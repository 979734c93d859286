#include "synth/filterbank_survey.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "synth/dispersion.hpp"

namespace drapid {

namespace {

/// Per-channel peak amplitude that makes a Gaussian pulse of `width_ms` come
/// out of the matched boxcar at roughly `snr` (in units of the per-channel
/// noise sigma). The dedispersed series sums C channels, so its noise scale
/// is sigma*sqrt(C); a width-w boxcar gains another sqrt(w).
double amplitude_for_snr(double snr, double width_ms, double sigma,
                         std::size_t channels, double sample_time_ms) {
  const double w = std::max(1.0, width_ms / sample_time_ms);
  return snr * sigma /
         std::sqrt(static_cast<double>(channels) * w);
}

void validate_options(const FilterbankSurveyOptions& options) {
  const auto fail = [](const std::string& what) {
    throw std::invalid_argument("FilterbankSurveyOptions: " + what);
  };
  if (options.num_channels == 0) {
    fail("num_channels must be >= 1 — zero-channel geometry");
  }
  if (!std::isfinite(options.sample_time_ms) || options.sample_time_ms <= 0.0) {
    fail("sample_time_ms must be positive and finite, got " +
         std::to_string(options.sample_time_ms));
  }
  if (!std::isfinite(options.obs_length_s) || options.obs_length_s <= 0.0) {
    fail("obs_length_s must be positive and finite, got " +
         std::to_string(options.obs_length_s));
  }
  if (options.obs_length_s * 1e3 < options.sample_time_ms) {
    fail("geometry yields zero samples: obs_length_s " +
         std::to_string(options.obs_length_s) + " s at sample_time_ms " +
         std::to_string(options.sample_time_ms));
  }
  if (!std::isfinite(options.noise_sigma) || options.noise_sigma < 0.0) {
    fail("noise_sigma must be finite and >= 0, got " +
         std::to_string(options.noise_sigma));
  }
}

/// Attribution/matching window around a truth pulse: residual-delay slant
/// plus a smearing allowance. Shared by truth attribution and DetectionEval
/// so precision/recall are measured against the exact same association.
double match_window_s(const GroundTruthPulse& gt, double sample_time_ms) {
  return std::max(0.1, 8.0 * gt.width_ms * 1e-3) + 4.0 * sample_time_ms * 1e-3;
}

/// Nearest channel index to a frequency, clamped into the band.
std::size_t channel_of(const Filterbank& fb, double freq_mhz) {
  const FilterbankConfig& fc = fb.config();
  const double top = fc.center_freq_mhz + fc.bandwidth_mhz / 2.0;
  const double chan_bw =
      fc.bandwidth_mhz / static_cast<double>(fc.num_channels);
  const double idx = (top - freq_mhz) / chan_bw - 0.5;
  const double clamped = std::clamp(
      idx, 0.0, static_cast<double>(fc.num_channels - 1));
  return static_cast<std::size_t>(std::lround(clamped));
}

}  // namespace

void render_rfi_filterbank(const RfiScenario& scenario,
                           const FilterbankSurveyOptions& options,
                           Filterbank& fb, Rng& rng) {
  const double sigma = options.noise_sigma;
  const double sqrt_channels =
      std::sqrt(static_cast<double>(fb.num_channels()));
  for (const RfiInstance& inst : scenario.instances) {
    switch (inst.family) {
      case RfiFamily::kPeriodicBroadband: {
        // One undispersed impulse per period; amplitude a per channel gives
        // a DM-0 dedispersed response of a*sqrt(C)/sigma, so divide the
        // target strength back out.
        const double amplitude = inst.strength * sigma / sqrt_channels;
        for (double t = inst.t_begin_s; t <= inst.t_end_s;
             t += inst.period_s) {
          fb.inject_broadband_impulse(
              t, amplitude * std::exp(rng.normal(0.0, 0.1)));
        }
        break;
      }
      case RfiFamily::kNarrowbandCarrier: {
        // Every channel whose center falls in the carrier's band runs hot
        // for the span — the mean/variance excess channel masking detects.
        const double f_lo =
            std::min(inst.freq_begin_mhz, inst.freq_end_mhz);
        const double f_hi =
            std::max(inst.freq_begin_mhz, inst.freq_end_mhz);
        const std::size_t c_lo = channel_of(fb, f_hi);  // freqs descend
        const std::size_t c_hi = channel_of(fb, f_lo);
        for (std::size_t c = c_lo; c <= c_hi; ++c) {
          fb.inject_rfi_tone(c, inst.strength * sigma, inst.t_begin_s,
                             inst.t_end_s);
        }
        break;
      }
      case RfiFamily::kSweptChirp: {
        // A carrier drifting through the band: at each sample of the span
        // exactly one channel is hot, walking from freq_begin to freq_end.
        const double duration = inst.t_end_s - inst.t_begin_s;
        if (duration <= 0.0) break;
        const double dt = options.sample_time_ms * 1e-3;
        for (double t = std::max(0.0, inst.t_begin_s); t <= inst.t_end_s;
             t += dt) {
          const auto s = static_cast<std::size_t>(t / dt);
          if (s >= fb.num_samples()) break;
          const double frac = (t - inst.t_begin_s) / duration;
          const std::size_t c = channel_of(
              fb, inst.freq_begin_mhz +
                      frac * (inst.freq_end_mhz - inst.freq_begin_mhz));
          fb.at(c, s) += static_cast<float>(inst.strength * sigma);
        }
        break;
      }
    }
  }
}

DetectionEval evaluate_detections(const SimulatedObservation& obs,
                                  const FilterbankSurveyOptions& options) {
  DetectionEval eval;
  eval.events_total = obs.data.events.size();
  std::vector<std::uint8_t> detected(obs.truth.size(), 0);
  for (const auto& e : obs.data.events) {
    bool matched = false;
    for (std::size_t i = 0; i < obs.truth.size(); ++i) {
      if (std::abs(e.time_s - obs.truth[i].time_s) <=
          match_window_s(obs.truth[i], options.sample_time_ms)) {
        matched = true;
        detected[i] = 1;
      }
    }
    if (matched) ++eval.events_matched;
  }
  // Recall is measured over the truth the observation could actually have
  // detected: a pulse whose dedispersed arrival (plus its matching window)
  // extends past the end of the data is unrecoverable by any pipeline, so
  // it neither counts against recall nor — having still been matched above —
  // turns its partial detections into false positives.
  for (std::size_t i = 0; i < obs.truth.size(); ++i) {
    const double window = match_window_s(obs.truth[i], options.sample_time_ms);
    if (obs.truth[i].time_s + window > options.obs_length_s) continue;
    ++eval.truth_total;
    eval.truth_detected += detected[i];
  }
  return eval;
}

SimulatedObservation simulate_filterbank_observation(
    const SurveyConfig& config, const ObservationId& id,
    const std::vector<SyntheticSource>& visible, Rng& rng,
    const FilterbankSurveyOptions& options) {
  config.validate();
  validate_options(options);
  if (!config.grid) {
    throw std::invalid_argument("survey config has no trial-DM grid");
  }
  FilterbankConfig fc;
  fc.num_channels = options.num_channels;
  fc.sample_time_ms = options.sample_time_ms;
  fc.obs_length_s = options.obs_length_s;
  fc.center_freq_mhz = config.center_freq_mhz;
  fc.bandwidth_mhz = config.bandwidth_mhz;
  Filterbank fb(fc);
  fb.add_noise(rng, options.noise_sigma);

  SimulatedObservation out;
  out.data.id = id;
  std::vector<GroundTruthPulse> injected;

  const auto inject = [&](const SyntheticSource& src, double t0, double snr0) {
    const double amplitude =
        options.amplitude_scale *
        amplitude_for_snr(snr0, src.width_ms, options.noise_sigma,
                          fc.num_channels, fc.sample_time_ms);
    fb.inject_pulse(t0, src.dm, amplitude, src.width_ms);
    GroundTruthPulse gt;
    gt.source_name = src.name;
    gt.type = src.type;
    // The sweep reports dedispersed arrivals referenced to the top-of-band
    // channel, so record the truth in the same frame — attribution and the
    // precision/recall eval compare like with like.
    gt.time_s = t0 + dispersion_delay_s(src.dm, fb.channel_freq_mhz(0));
    gt.dm = src.dm;
    gt.width_ms = src.width_ms;
    injected.push_back(std::move(gt));
  };

  for (const auto& src : visible) {
    if (src.type == SourceType::kPulsar) {
      const auto rotations =
          static_cast<std::uint64_t>(options.obs_length_s / src.period_s);
      for (std::uint64_t r = 0; r < rotations; ++r) {
        if (!rng.chance(src.emission_rate)) continue;
        const double t0 =
            (static_cast<double>(r) + rng.uniform()) * src.period_s;
        const double snr0 =
            src.median_snr * std::exp(rng.normal(0.0, src.snr_sigma));
        if (snr0 < config.snr_threshold) continue;
        inject(src, t0, snr0);
      }
    } else {
      const auto bursts = rng.poisson(src.emission_rate *
                                      options.obs_length_s / 3600.0);
      for (std::uint64_t b = 0; b < bursts; ++b) {
        const double t0 = rng.uniform(0.0, options.obs_length_s);
        const double snr0 =
            src.median_snr * std::exp(rng.normal(0.0, src.snr_sigma));
        if (snr0 < config.snr_threshold) continue;
        inject(src, t0, snr0);
      }
    }
  }

  // Broadband RFI impulses: zero-DM spikes the sweep sees at every trial —
  // the real-data counterpart of add_rfi()'s flat SNR-vs-DM events.
  const auto bursts = rng.poisson(config.rfi_bursts_per_observation);
  for (std::uint64_t b = 0; b < bursts; ++b) {
    fb.inject_broadband_impulse(rng.uniform(0.0, options.obs_length_s),
                                options.noise_sigma * rng.uniform(2.0, 6.0));
  }

  // Structured interference, rendered into the raw band. Guarded so presets
  // without structured rates consume no rng draws (byte-identical output).
  if (config.has_structured_rfi()) {
    RfiScenario scenario =
        draw_rfi_scenario(config, options.obs_length_s, rng);
    render_rfi_filterbank(scenario, options, fb, rng);
    out.rfi_truth = std::move(scenario.instances);
  }

  SinglePulseSearchParams params;
  params.snr_threshold = config.snr_threshold;
  params.exec.threads_per_worker = options.threads;
  params.dm_stride = options.dm_stride;
  params.rfi = options.rfi;
  out.data.events = single_pulse_search(fb, *config.grid, params);

  // Attribute detected events back to the injected pulses by time proximity:
  // dedispersing at the wrong DM shifts the detection by the residual delay,
  // so the window grows with the pulse width plus a smearing allowance.
  for (auto& gt : injected) {
    const double window = match_window_s(gt, fc.sample_time_ms);
    for (const auto& e : out.data.events) {
      if (std::abs(e.time_s - gt.time_s) > window) continue;
      gt.peak_snr = std::max(gt.peak_snr, e.snr);
      ++gt.num_spes;
    }
    if (gt.num_spes > 0 || options.keep_undetected_truth) {
      out.truth.push_back(std::move(gt));
    }
  }
  return out;
}

}  // namespace drapid
