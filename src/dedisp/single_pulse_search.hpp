// Phases 2–3 of a single-pulse search (§3): dedispersion and matched-filter
// detection — the PRESTO `single_pulse_search.py` stand-in that produces
// the SPE lists the rest of the pipeline consumes.
//
// Dedispersion shifts each filterbank channel by its dispersion delay at a
// trial DM and sums across channels. The summed series is normalized and
// convolved with boxcars of increasing width (matched filtering for pulses
// wider than one sample); every local maximum above the S/N threshold
// becomes a SinglePulseEvent at that trial DM.
//
// The sweep over a whole DM grid runs off a precomputed *shift plan*: the
// per-channel integer shift vector of every (strided) trial is computed up
// front and exact-duplicate vectors are deduplicated — adjacent fine-step
// trials round to identical shifts, so their dedispersed series (and their
// events, which only carry the trial's nominal DM) are computed once per
// unique vector. single_pulse_search() dedisperses the unique plans with the
// two-stage subband engine (subband_sweep.hpp) and merges per-trial event
// lists back in trial order, so its output is the same at any thread count.
// dedisperse()/dedisperse_plan() are the single-DM, channel-order sum;
// with `subband_groups = 1` the engine reproduces that sum bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "dedisp/filterbank.hpp"
#include "spe/dm_grid.hpp"
#include "spe/spe.hpp"
#include "util/exec_policy.hpp"

namespace drapid {

/// Per-channel integer sample shifts for one trial DM, relative to the
/// highest-frequency channel (channel 0). Shifts are clamped to
/// num_samples(): a channel whose delay pushes it entirely off the end of
/// the observation contributes no samples, and the clamp keeps every vector
/// entry (and the dedup key built from it) bounded.
std::vector<std::uint32_t> dispersion_shifts(const Filterbank& fb, double dm);

/// One unique shift vector and the (strided) grid trials that share it.
struct ShiftPlan {
  std::vector<std::uint32_t> shifts;  ///< per channel, clamped to num_samples
  std::uint32_t max_shift = 0;
  std::vector<std::size_t> trials;    ///< ascending grid trial indices
  /// Channels actually summed by this plan: 0 means "all channels" (the
  /// unmasked fast path); a masked plan stores num_channels - masked here.
  /// Masked channels carry a saturated shift of num_samples — they
  /// contribute no samples and no tail-normalization counts — and the tail
  /// rescale targets this count, so a masked sweep's S/N matches a
  /// filterbank with those channels physically removed.
  std::uint32_t active_channels = 0;
};

/// The deduplicated dedispersion plan for a whole (strided) DM grid.
struct SweepPlan {
  std::vector<ShiftPlan> plans;  ///< in first-trial order
  std::size_t num_trials = 0;    ///< strided trials covered by the plans
  /// plans[] index for each covered trial, in trial order (num_trials long).
  std::vector<std::uint32_t> plan_of_trial;
};

/// Computes every trial's shift vector and groups exact duplicates. With
/// `dm_stride` > 1 only every stride-th trial is planned (the same subset
/// the strided sweep searches).
SweepPlan build_sweep_plan(const Filterbank& fb, const DmGrid& grid,
                           std::size_t dm_stride = 1);

/// Masked variant: channels with `channel_mask[c] != 0` are excluded from
/// every plan by saturating their shift to num_samples (the same "contributes
/// nothing" encoding extreme-DM channels already use), and each plan records
/// the surviving channel count in `active_channels` so the tail
/// normalization rescales against the reduced band. An empty mask is the
/// unmasked plan; a non-empty mask must have one byte per channel. Masking
/// every channel throws — there is nothing left to search.
SweepPlan build_sweep_plan(const Filterbank& fb, const DmGrid& grid,
                           std::size_t dm_stride,
                           const std::vector<std::uint8_t>& channel_mask);

/// Reusable dedispersion workspace: the output series plus the counting
/// buffer the analytic tail normalization uses. Reusing one per worker makes
/// a sweep allocation-free after the first trial.
struct DedispScratch {
  std::vector<double> series;
  std::vector<std::uint32_t> contrib_prefix;
  /// Subband stage-2 buffers: the plan's G node pointers, its distinct
  /// coverage cuts, and one segment's active node pointers.
  std::vector<const double*> nodes;
  std::vector<std::size_t> cuts;
  std::vector<const double*> segment;
};

/// Dedisperses one shift plan into scratch.series (resized to
/// fb.num_samples()). Channels accumulate in ascending channel order per
/// sample — the same summation order as dedisperse() — and the tail
/// normalization `contributors` counts are derived analytically from the
/// shift vector instead of per-sample increments.
void dedisperse_plan(const Filterbank& fb, const ShiftPlan& plan,
                     DedispScratch& scratch);

/// Applies the analytic tail normalization for `plan` to a fully-accumulated
/// dedispersed series of `channels` channels: the max_shift-long tail, where
/// shifted channels have run out of data, is rescaled to the full-channel
/// noise level. Must run exactly once per series, after every channel's
/// contribution has been summed — the streaming sweep defers it to finalize
/// so samples inside the chunk-overlap carry region are never rescaled
/// twice. `contrib_prefix` is reusable scratch (overwritten). For a masked
/// plan (`plan.active_channels != 0`) the rescale target is the plan's
/// active channel count, not `channels` — the result matches a filterbank
/// with the masked channels physically removed.
void normalize_tail(const ShiftPlan& plan, std::size_t channels,
                    std::vector<double>& series,
                    std::vector<std::uint32_t>& contrib_prefix);

/// Dedisperses at one trial DM: per-channel integer-sample shifts relative
/// to the highest-frequency channel, summed. The result has num_samples()
/// entries; trailing samples where channels ran out of data are summed over
/// fewer channels and renormalized to keep the noise level uniform.
std::vector<double> dedisperse(const Filterbank& fb, double dm);

/// How the DM sweep dedisperses each unique shift plan. The two-stage
/// subband sweep (subband_sweep.hpp) is the only engine; the enum and the
/// `method` field below stay, with this one value, because the end-to-end
/// benchmark sources assign it and are changed only by a benchmark change.
enum class SweepMethod {
  kSubband,
};

/// RFI mitigation ahead of the sweep (rfi_mitigation.hpp holds the stage
/// itself; the knob lives here so it threads through the search params).
enum class MitigationPolicy {
  kOff,          ///< no mitigation — byte-identical to the pre-RFI pipeline
  kZeroDm,       ///< per-sample cross-channel mean subtraction
  kChannelMask,  ///< robust per-channel statistics mask hot channels
  kBoth,         ///< channel mask first, then zero-DM over surviving channels
};

struct RfiMitigationParams {
  MitigationPolicy policy = MitigationPolicy::kOff;
  /// Channel-mask threshold: a channel is masked when its per-channel mean
  /// or variance sits more than this many robust sigmas (median/MAD across
  /// the band) from the cross-channel median.
  double mask_sigma = 6.0;
  /// Hard cap on the masked fraction of the band; when the estimator wants
  /// more, only the worst offenders (highest deviation score) are kept.
  double max_mask_fraction = 0.25;
};

struct SinglePulseSearchParams {
  double snr_threshold = 5.0;
  /// Boxcar widths in samples (PRESTO's downfacts).
  std::vector<int> boxcar_widths = {1, 2, 4, 8, 16, 32};
  /// Trial stride over the grid (1 = every trial; larger = faster scans).
  std::size_t dm_stride = 1;
  /// Execution policy for the sweep. The DM sweep always runs in-process,
  /// so only threads_per_worker matters here (1 = run on the calling
  /// thread). Sweep output is byte-identical at any width.
  ExecPolicy exec;
  /// Dedispersion method; kSubband is the only one (see SweepMethod).
  SweepMethod method = SweepMethod::kSubband;
  /// Subband channel groups: 0 = cost-model auto, else clamped to
  /// [1, channels]. 1 reproduces dedisperse_plan's channel-order sum bit
  /// for bit (stage 1 is that left fold, stage 2 a copy).
  std::size_t subband_groups = 0;
  /// RFI mitigation stage ahead of the sweep. kOff runs the pre-mitigation
  /// pipeline untouched (no copy, byte-identical output); anything else
  /// routes through apply_rfi_mitigation (rfi_mitigation.hpp) first.
  RfiMitigationParams rfi;
  /// Per-channel exclusion mask (1 = masked), one byte per channel. Usually
  /// filled in by the mitigation stage; set it explicitly to pin a known
  /// mask — the streaming sweep requires an explicit mask for mask policies
  /// because it cannot estimate one from data it has not seen yet. Empty =
  /// all channels active. Masked channels contribute neither samples nor
  /// tail-normalization counts.
  std::vector<std::uint8_t> channel_mask;
};

/// Reusable matched-filter workspace: boxcar prefix sums, the certificate's
/// center list, and the buffers robust_stats selects in. Buffers only — no
/// value carries from one series to the next.
struct DetectScratch {
  std::vector<double> prefix;
  /// Bracket compaction output, selected in place (kernels.hpp).
  std::vector<double> stats_workspace;
  /// Partition ping-pong buffer for the selection kernel (kernels.hpp).
  std::vector<double> select_scratch;
  /// Ascending centers the one-pass certificate could not clear.
  std::vector<std::uint32_t> uncertified;
};

/// Robust location/scale of a series: {median, 1.4826 * MAD}. A degenerate
/// series — empty, constant, or fully masked (every sample the same value)
/// — has MAD 0 and returns scale 0.0: there is no noise level to
/// standardize against, and callers must not divide by the scale
/// (detect_events_into reports no events for such a series instead of
/// spraying unbounded S/N). Every value must be finite (detect_events_into's
/// inputs are: read_fil rejects non-finite samples). `workspace` and
/// `select_scratch` are reusable buffers (overwritten); the input is
/// untouched.
std::pair<double, double> robust_stats(const std::vector<double>& values,
                                       std::vector<double>& workspace,
                                       std::vector<double>& select_scratch);

/// Matched-filter detection on one dedispersed series: the series is
/// standardized (median/robust sigma), each boxcar width is scanned, and
/// local maxima above threshold are reported with the best width. Events
/// closer than the detecting boxcar width are merged (highest S/N wins).
std::vector<SinglePulseEvent> detect_events(
    const std::vector<double>& series, double dm, double sample_time_ms,
    const SinglePulseSearchParams& params);

/// Same detection, appending to `out` and reusing `scratch` buffers — the
/// allocation-free form the sweep calls once per unique shift plan.
void detect_events_into(const std::vector<double>& series, double dm,
                        double sample_time_ms,
                        const SinglePulseSearchParams& params,
                        DetectScratch& scratch,
                        std::vector<SinglePulseEvent>& out);

namespace detail {

/// Bracketed selection geometry (see select_rank): the fixed-stride sample
/// size, the bracket's half-width in sample ranks, and the smallest series
/// that is bracketed at all.
inline constexpr std::size_t kSelectSample = 256;
inline constexpr std::size_t kSelectGap = 24;
inline constexpr std::size_t kSelectMinSamples = 4 * kSelectSample;

/// The exact k-th smallest (0-based, k < n) of y[i] = x[i], or of
/// y[i] = |x[i] - center| when `deviation` — the value std::nth_element
/// would leave at k (equal by value; for a tie between +0 and -0 either
/// zero may come back). For n >= kSelectMinSamples it brackets rank k from
/// the kSelectSample values at stride n / kSelectSample, counts and
/// compacts the series against the bracket in one kernel pass, and selects
/// only inside it. Small n, and a bracket that misses k (counted in
/// `dedisp.select.fallbacks`), select over the whole series. Finite x is a
/// precondition. `workspace` and `select_scratch` are reusable buffers.
double select_rank(const double* x, std::size_t n, std::size_t k,
                   double center, bool deviation,
                   std::vector<double>& workspace,
                   std::vector<double>& select_scratch);

/// The deterministic trial-order merge shared by the one-shot and streaming
/// sweeps: walks the strided trial sequence, stamps each trial's nominal DM
/// into its plan's shared event list, and sorts by (dm, time) — exactly the
/// output a per-trial loop would append. `found` holds one event list per
/// unique plan (detected with the plan's first-trial DM).
std::vector<SinglePulseEvent> merge_plan_events(
    const SweepPlan& sweep, const DmGrid& grid, std::size_t dm_stride,
    const std::vector<std::vector<SinglePulseEvent>>& found);

}  // namespace detail

/// The full phase-2+3 search and the one sweep entry point: routes
/// params.rfi through the mitigation stage (rfi_mitigation.hpp), then runs
/// the subband engine over the (strided) grid's unique shift plans on
/// `params.exec.threads_per_worker` workers and merges events in trial
/// order — sorted by (dm, time) like the survey simulator's SPE lists,
/// ready for DBSCAN + RAPID, and byte-identical at any thread count. Emits
/// `dedisp.*` spans and counters through src/obs.
std::vector<SinglePulseEvent> single_pulse_search(
    const Filterbank& fb, const DmGrid& grid,
    const SinglePulseSearchParams& params = {});

}  // namespace drapid
