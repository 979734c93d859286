// Filterbank-backed survey observations: phases 1–3 run for real.
//
// SurveySimulator::simulate() draws single pulse events from an *analytic*
// model of what a single-pulse search emits. This path instead synthesizes
// the raw filterbank (band noise, dispersed pulses, RFI) and runs the actual
// shift-plan DM sweep over the survey's trial grid, so the SPE lists carry
// whatever the detection pipeline really produces — boxcar widths, island
// merging, tail-normalization effects and all. It is the end-to-end exerciser
// for the dedispersion frontend; the analytic model remains the fast path
// for large classification datasets.
#pragma once

#include <cstddef>
#include <vector>

#include "dedisp/filterbank.hpp"
#include "dedisp/single_pulse_search.hpp"
#include "synth/survey.hpp"
#include "util/rng.hpp"

namespace drapid {

/// Knobs for the synthesized filterbank. The survey's native resolution
/// (e.g. 0.0819 ms over 140 s) is far more data than tests and benches need,
/// so the defaults coarsen time while keeping the survey's band.
struct FilterbankSurveyOptions {
  std::size_t num_channels = 64;
  double sample_time_ms = 1.0;
  double obs_length_s = 10.0;
  double noise_sigma = 1.0;
  /// Per-channel amplitude of an injected pulse at S/N target `snr`, roughly
  /// snr * sqrt(width_samples) / sqrt(channels) scaled by this fudge.
  double amplitude_scale = 1.0;
  /// Sweep pool width (the sweep's exec.threads_per_worker).
  std::size_t threads = 1;
  std::size_t dm_stride = 1;
  /// RFI mitigation applied by the sweep (off by default, matching the
  /// historical behaviour). With kChannelMask/kBoth the mask is estimated
  /// from the observation's own band statistics.
  RfiMitigationParams rfi;
  /// Keep ground-truth pulses even when the sweep attributed zero events to
  /// them. Required for recall measurement — a missed pulse that vanishes
  /// from the truth list cannot be counted as missed.
  bool keep_undetected_truth = false;
};

/// Paints a structured-RFI scenario into the raw filterbank: burst trains as
/// undispersed broadband impulses at the train period, carriers as hot
/// channels over their time span, chirps as a single hot channel walking
/// through the band. Amplitudes are scaled from RfiInstance::strength
/// (event-level S/N units) into per-sample power so the sweep's response
/// lands near the analytic model's.
void render_rfi_filterbank(const RfiScenario& scenario,
                           const FilterbankSurveyOptions& options,
                           Filterbank& fb, Rng& rng);

/// Detection quality of one simulated observation against its ground truth.
/// Events are matched to truth pulses by the same time window the simulator
/// uses for attribution; everything unmatched is a false positive (noise,
/// RFI, or mitigation leftovers). Simulate with `keep_undetected_truth` so
/// missed pulses still count against recall. Truth whose dedispersed arrival
/// window extends past the end of the observation is excluded from
/// truth_total — no pipeline can recover a pulse that left the data.
struct DetectionEval {
  std::size_t truth_total = 0;     ///< injected pulses
  std::size_t truth_detected = 0;  ///< pulses with >= 1 matched event
  std::size_t events_total = 0;
  std::size_t events_matched = 0;  ///< events inside some pulse's window
  double recall() const {
    return truth_total == 0
               ? 1.0
               : static_cast<double>(truth_detected) /
                     static_cast<double>(truth_total);
  }
  double precision() const {
    return events_total == 0
               ? 1.0
               : static_cast<double>(events_matched) /
                     static_cast<double>(events_total);
  }
};

DetectionEval evaluate_detections(const SimulatedObservation& obs,
                                  const FilterbankSurveyOptions& options);

/// Simulates one observation end-to-end: builds a filterbank with band noise,
/// paints each visible source's pulses with their true dispersion sweep
/// (plus any configured broadband RFI bursts), then runs the shift-plan DM
/// sweep over `config.grid` at `config.snr_threshold`. Ground truth lists
/// every injected pulse; `num_spes`/`peak_snr` are measured from the events
/// the sweep attributed to the pulse's time window.
///
/// Draws from `rng` only — a caller-owned stream, so interleaving this with
/// SurveySimulator::simulate() does not perturb the simulator's sequence.
SimulatedObservation simulate_filterbank_observation(
    const SurveyConfig& config, const ObservationId& id,
    const std::vector<SyntheticSource>& visible, Rng& rng,
    const FilterbankSurveyOptions& options = {});

}  // namespace drapid
