// Two-stage subband dedispersion: the sweep engine behind
// single_pulse_search() and StreamingSweep — FDMT-style shift reuse on top of
// the deduplicated shift plans.
//
// Summing all `channels` shifted rows per unique plan costs
// O(plans × channels × samples). But within a contiguous channel *group*,
// the shift vector of a plan decomposes as
//
//   shift_c = base_g + residual_c,  base_g = min shift in the group,
//
// and the residual vectors repeat heavily across plans: the dispersion
// curve's shape inside a narrow group changes much more slowly with DM than
// its absolute offset. Deduplicating residual *patterns* per group turns the
// sweep into
//
//   stage 1  for every distinct (group, pattern): accumulate the group's
//            channels once into a partial series (the "coarse node"),
//   stage 2  for every plan: sum its G partials, each offset by the plan's
//            base_g — `groups` stream adds instead of `channels` row adds.
//
// The decomposition is *exact* in coverage: base_g + residual_c recreates
// every channel's clamped shift, so each channel contributes to exactly the
// same output samples as dedisperse_plan(), and normalize_tail applies
// unchanged. The only difference is floating-point associativity — channel
// sums are regrouped as (group sums) before the cross-group add — bounding
// |subband - channel-order sum| per sample by ~2·(channels-1)·eps·Σ|x|
// (≈1e-12 for unit-noise data; dedisp_subband_test pins measured bounds far
// below the detection tolerance). With one group, stage 1 *is* the
// channel-order left fold and stage 2 a copy, so `subband_groups = 1`
// reproduces the channel-order sum bit for bit; the test-side reference
// sweep (tests/dedisp_reference.hpp) is that sum.
//
// Group count: `SinglePulseSearchParams::subband_groups`, or 0 to pick the
// argmin of a bytes-touched cost model (stage-1 rows shrink as groups grow
// coarser; stage-2 stream adds grow linearly with G). The model needs only
// each group's distinct-pattern count, so the ladder probes count patterns
// in place and only the winning G is decomposed.
//
// Two drivers share stage 1 (accumulate_subband_node) and stage 2 +
// detection (detail::detect_subband_plan): the one-shot sweep over a
// resident filterbank (detail::subband_single_pulse_search) and the chunked
// StreamingSweep. The input shape picks the driver.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dedisp/single_pulse_search.hpp"

namespace drapid {

/// A contiguous channel range [begin, end) coarse-dedispersed as one unit.
struct SubbandGroup {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  std::size_t size() const { return end - begin; }
};

/// One distinct residual-shift vector within a group — a coarse node.
/// residuals[i] is the extra shift of channel group.begin + i relative to
/// the plan's group base shift; a residual clamped at num_samples
/// contributes nothing (exactly like a clamped full shift).
struct SubbandPattern {
  std::vector<std::uint32_t> residuals;
};

/// Per (plan, group): which pattern the plan uses and the group's base
/// shift (min shift over the group's channels, <= num_samples).
struct SubbandEntry {
  std::uint32_t pattern = 0;
  std::uint32_t offset = 0;
};

struct SubbandPlan {
  std::vector<SubbandGroup> groups;
  /// patterns[g] — the distinct residual vectors seen in group g, in first-
  /// use (plan) order.
  std::vector<std::vector<SubbandPattern>> patterns;
  /// entries[plan * groups.size() + g] — row-major by plan.
  std::vector<SubbandEntry> entries;
  std::size_t num_plans = 0;
  /// Exclusive prefix of patterns[g].size(): flat slot id of (g, p) is
  /// pattern_base[g] + p; pattern_base.back() == total_patterns.
  std::vector<std::size_t> pattern_base;
  std::size_t total_patterns = 0;
  /// Largest residual over all patterns (clamped to num_samples) — the only
  /// lookback stage 1 needs, so the streaming overlap carry shrinks from the
  /// full-band max shift to this.
  std::uint32_t max_residual = 0;

  const SubbandEntry& entry(std::size_t plan, std::size_t g) const {
    return entries[plan * groups.size() + g];
  }
  /// Group of the flat node id pattern_base[g] + pattern.
  std::size_t group_of(std::size_t node) const;
};

/// Decomposes a deduplicated sweep plan into groups × residual patterns.
/// `groups` = 0 picks the group count by cost model; any other value is
/// clamped to [1, channels]. Works for every degenerate shape: one channel,
/// one group (patterns ≈ plans, correct but no reuse), groups == channels
/// (every pattern is {0}: stage 1 passes rows through, stage 2 does the
/// full dedispersion as offset stream adds).
SubbandPlan build_subband_plan(const SweepPlan& sweep, std::size_t channels,
                               std::size_t num_samples,
                               std::size_t groups = 0);

/// Channel-major input rows: sample t of channel c sits at
/// data[c * stride + (t - origin)]. A resident filterbank is origin 0 with
/// stride num_samples; a streaming window starts at its first carried
/// sample.
struct ChannelRows {
  const float* data = nullptr;
  std::size_t stride = 0;
  std::size_t origin = 0;
};

/// Stage 1 for coarse node `node` (flat id pattern_base[g] + pattern) over
/// output samples [begin, end): out[t] = Σ_i x_{group.begin+i}[t + r_i] over
/// the channels with t + r_i < n, in ascending channel order per sample —
/// exactly dedisperse_plan's order within the group. `out` is the node's
/// n-sample partial; [begin, end) is overwritten and nothing else touched.
/// Every sample read (t + r_i for t >= begin) must be resident in `rows`.
void accumulate_subband_node(const ChannelRows& rows, const SubbandPlan& sub,
                             std::size_t node, std::size_t n,
                             std::size_t begin, std::size_t end, double* out);

/// Stage 2 for one plan: series[s] = Σ_g partials[g][s + offset_g] for the
/// groups still in range (ascending group order per sample — the regrouped
/// summation the error bound describes). partials[g] points at the partial
/// series for the plan's (g, pattern) node; scratch.series is resized to n
/// and fully overwritten (scratch.cuts / scratch.segment are the reusable
/// segment buffers). Does NOT apply normalize_tail.
void combine_subband_series(const SubbandPlan& sub, std::size_t plan_index,
                            const double* const* partials, std::size_t n,
                            DedispScratch& scratch);

namespace detail {

/// Candidate group counts the auto choice (`groups` = 0) walks, ascending;
/// candidates above the channel count are skipped.
inline constexpr std::size_t kSubbandGroupLadder[] = {1,  2,  4,  6,  8, 12,
                                                      16, 24, 32, 48, 64};

/// The count-only probe the auto ladder runs per candidate: the number of
/// distinct residual patterns over all groups at `groups` (clamped to
/// [1, channels]) — exactly build_subband_plan(sweep, channels, num_samples,
/// groups).total_patterns, without building patterns or entries.
std::size_t count_subband_patterns(const SweepPlan& sweep,
                                   std::size_t channels,
                                   std::size_t num_samples,
                                   std::size_t groups);

/// The one-shot driver's stage-1 arena budget: 256 MB of node partials.
inline constexpr std::size_t kSubbandArenaBudgetBytes = std::size_t{256}
                                                         << 20;

/// The one-shot driver behind single_pulse_search(): build_sweep_plan +
/// build_subband_plan, then per DM-contiguous block of plans whose distinct
/// nodes fit `arena_budget_bytes` (a block always takes at least one plan;
/// blocks run in sequence) one parallel stage-1 pass over the block's
/// nodes and one parallel stage-2 + detection pass over its plans, and a
/// trial-order merge. Output is byte-identical for every budget; tests use
/// small budgets to reach the multi-block path. params.rfi.policy must be
/// kOff (throws std::invalid_argument otherwise) — single_pulse_search
/// routes mitigation. Emits the `dedisp.sweep` span and `dedisp.*` /
/// `dedisp.subband.*` counters.
std::vector<SinglePulseEvent> subband_single_pulse_search(
    const Filterbank& fb, const DmGrid& grid,
    const SinglePulseSearchParams& params, std::size_t arena_budget_bytes);

/// Stage 2 + tail normalization + detection for one plan, appending its
/// events (detected at the plan's first-trial DM) to `out`.
/// node_series[pattern_base[g] + pattern] points at the n-sample partial of
/// node (g, pattern); only the plan's own G nodes are read. Uses per-thread
/// scratch; the one-shot sweep and StreamingSweep::finalize both detect
/// through it, so their series are byte-identical by construction.
void detect_subband_plan(const SweepPlan& sweep, const SubbandPlan& sub,
                         std::size_t plan_index,
                         const double* const* node_series, std::size_t n,
                         std::size_t channels, const DmGrid& grid,
                         double sample_time_ms,
                         const SinglePulseSearchParams& params,
                         std::vector<SinglePulseEvent>& out);

}  // namespace detail

}  // namespace drapid
