// The subband sweep engine (dedisp/subband_sweep.hpp) against the
// channel-order reference sweep (dedisp_reference.hpp) as oracle: bit-for-
// bit identity at 1 and C groups, detected-event-set identity at the auto
// group count on synthetic survey grids, per-series error bounds,
// plan-decomposition invariants, degenerate group counts, thread-count
// determinism, the count-only group ladder, and the arena-budget block
// split.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "dedisp_reference.hpp"
#include "dedisp/rfi_mitigation.hpp"
#include "dedisp/single_pulse_search.hpp"
#include "dedisp/streaming_sweep.hpp"
#include "dedisp/subband_sweep.hpp"
#include "obs/counters.hpp"
#include "spe/dm_grid.hpp"
#include "synth/filterbank_survey.hpp"
#include "synth/rfi.hpp"
#include "synth/survey.hpp"
#include "util/rng.hpp"

namespace drapid {
namespace {

Filterbank survey_filterbank(double center_mhz, double bandwidth_mhz,
                             std::size_t channels, std::uint64_t seed) {
  FilterbankConfig cfg;
  cfg.center_freq_mhz = center_mhz;
  cfg.bandwidth_mhz = bandwidth_mhz;
  cfg.num_channels = channels;
  cfg.sample_time_ms = 2.0;
  cfg.obs_length_s = 10.0;
  Filterbank fb(cfg);
  Rng rng(seed);
  fb.add_noise(rng, 1.0);
  fb.inject_pulse(2.0, 5.0, 3.0, 20.0);
  fb.inject_pulse(6.5, 3.2, 2.5, 30.0);
  fb.inject_broadband_impulse(8.0, 5.0);
  return fb;
}

bool events_identical(const std::vector<SinglePulseEvent>& a,
                      const std::vector<SinglePulseEvent>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].dm != b[i].dm || a[i].snr != b[i].snr ||
        a[i].time_s != b[i].time_s || a[i].sample != b[i].sample ||
        a[i].downfact != b[i].downfact) {
      return false;
    }
  }
  return true;
}

std::vector<SinglePulseEvent> run(const Filterbank& fb, const DmGrid& grid,
                                  std::size_t groups = 0,
                                  std::size_t threads = 1) {
  SinglePulseSearchParams params;
  params.subband_groups = groups;
  params.exec.threads_per_worker = threads;
  return single_pulse_search(fb, grid, params);
}

std::vector<SinglePulseEvent> reference(const Filterbank& fb,
                                        const DmGrid& grid) {
  return reference_sweep(fb, grid, {});
}

/// Dedisperses one plan through both subband stages + normalize_tail into
/// scratch.series — the series the engine detects on, for error-bound
/// assertions against dedisperse_plan.
void subband_series(const Filterbank& fb, const SweepPlan& sweep,
                    const SubbandPlan& sub, std::size_t plan_index,
                    DedispScratch& scratch) {
  const std::size_t n = fb.num_samples();
  const std::size_t num_groups = sub.groups.size();
  const ChannelRows rows{fb.channel_data(0), n, 0};
  std::vector<double> nodes(num_groups * n);
  scratch.nodes.resize(num_groups);
  for (std::size_t g = 0; g < num_groups; ++g) {
    double* slot = nodes.data() + g * n;
    accumulate_subband_node(
        rows, sub, sub.pattern_base[g] + sub.entry(plan_index, g).pattern, n,
        0, n, slot);
    scratch.nodes[g] = slot;
  }
  combine_subband_series(sub, plan_index, scratch.nodes.data(), n, scratch);
  normalize_tail(sweep.plans[plan_index], fb.num_channels(), scratch.series,
                 scratch.contrib_prefix);
}

TEST(SubbandSweep, EventSetIdenticalToOracleOnGbt350Survey) {
  const Filterbank fb = survey_filterbank(350.0, 100.0, 32, 3);
  const DmGrid grid = DmGrid::gbt350drift().prefix(8.0);
  const auto exact = reference(fb, grid);
  ASSERT_FALSE(exact.empty());
  EXPECT_TRUE(events_identical(run(fb, grid), exact));
  // An explicit non-auto group count must agree too.
  EXPECT_TRUE(events_identical(run(fb, grid, 4), exact));
}

TEST(SubbandSweep, EventSetIdenticalToOracleOnPalfaSurvey) {
  // PALFA geometry: 1.4 GHz, so per-channel delays are far smaller for the
  // same DM — a different residual-pattern census than the 350 MHz band.
  const Filterbank fb = survey_filterbank(1400.0, 300.0, 48, 5);
  const DmGrid grid = DmGrid::palfa().prefix(10.0);
  const auto exact = reference(fb, grid);
  ASSERT_FALSE(exact.empty());
  EXPECT_TRUE(events_identical(run(fb, grid), exact));
}

TEST(SubbandSweep, PerSeriesErrorStaysWithinDocumentedBound) {
  const Filterbank fb = survey_filterbank(350.0, 100.0, 32, 7);
  const DmGrid grid({{0.0, 10.0, 0.05}});
  const SweepPlan sweep = build_sweep_plan(fb, grid);
  const SubbandPlan sub =
      build_subband_plan(sweep, fb.num_channels(), fb.num_samples());
  ASSERT_GT(sub.total_patterns, 0u);

  // |subband - exact| per sample is bounded by the floating-point regrouping
  // of channel sums: ~2 (C-1) eps Σ|x| ≈ 1e-12 for unit noise over 32
  // channels. 1e-9 leaves two orders of headroom without ever letting a
  // detection-sized discrepancy through.
  DedispScratch exact_scratch;
  DedispScratch subband_scratch;
  double worst = 0.0;
  for (std::size_t p = 0; p < sweep.plans.size(); ++p) {
    // dedisperse_plan applies normalize_tail itself; subband_series applies
    // the same normalization after its combine, so both series are final.
    dedisperse_plan(fb, sweep.plans[p], exact_scratch);
    subband_series(fb, sweep, sub, p, subband_scratch);
    ASSERT_EQ(exact_scratch.series.size(), subband_scratch.series.size());
    for (std::size_t s = 0; s < exact_scratch.series.size(); ++s) {
      worst = std::max(worst, std::abs(exact_scratch.series[s] -
                                       subband_scratch.series[s]));
    }
  }
  EXPECT_LE(worst, 1e-9);
}

TEST(SubbandSweep, DecompositionReconstructsEveryShiftExactly) {
  const Filterbank fb = survey_filterbank(350.0, 100.0, 32, 9);
  const DmGrid grid = DmGrid::gbt350drift().prefix(5.0);
  const SweepPlan sweep = build_sweep_plan(fb, grid);
  const SubbandPlan sub =
      build_subband_plan(sweep, fb.num_channels(), fb.num_samples());

  ASSERT_FALSE(sub.groups.size() == 0);
  ASSERT_EQ(sub.pattern_base.size(), sub.groups.size() + 1);
  EXPECT_EQ(sub.pattern_base.back(), sub.total_patterns);
  EXPECT_EQ(sub.num_plans, sweep.plans.size());

  // Contiguous full-band coverage by the groups.
  EXPECT_EQ(sub.groups.front().begin, 0u);
  EXPECT_EQ(sub.groups.back().end, fb.num_channels());
  for (std::size_t g = 1; g < sub.groups.size(); ++g) {
    EXPECT_EQ(sub.groups[g].begin, sub.groups[g - 1].end);
  }

  // base_g + residual_c must recreate every channel's clamped shift — this
  // is what makes the subband coverage exact and normalize_tail applicable
  // unchanged.
  std::uint32_t max_residual = 0;
  for (std::size_t p = 0; p < sweep.plans.size(); ++p) {
    for (std::size_t g = 0; g < sub.groups.size(); ++g) {
      const SubbandEntry& entry = sub.entry(p, g);
      const SubbandPattern& pattern = sub.patterns[g][entry.pattern];
      ASSERT_EQ(pattern.residuals.size(), sub.groups[g].size());
      for (std::size_t i = 0; i < pattern.residuals.size(); ++i) {
        EXPECT_EQ(entry.offset + pattern.residuals[i],
                  sweep.plans[p].shifts[sub.groups[g].begin + i])
            << "plan " << p << " group " << g << " channel " << i;
        max_residual = std::max(max_residual, pattern.residuals[i]);
      }
    }
  }
  EXPECT_EQ(sub.max_residual, max_residual);
}

TEST(SubbandSweep, SingleChannelFilterbankDegenerate) {
  FilterbankConfig cfg;
  cfg.center_freq_mhz = 350.0;
  cfg.bandwidth_mhz = 20.0;
  cfg.num_channels = 1;
  cfg.sample_time_ms = 2.0;
  cfg.obs_length_s = 6.0;
  Filterbank fb(cfg);
  Rng rng(11);
  fb.add_noise(rng, 1.0);
  fb.inject_broadband_impulse(3.0, 6.0);
  const DmGrid grid({{0.0, 20.0, 0.5}});
  EXPECT_TRUE(events_identical(run(fb, grid), reference(fb, grid)));
}

TEST(SubbandSweep, DegenerateGroupCountsAllMatchOracle) {
  const Filterbank fb = survey_filterbank(350.0, 100.0, 16, 13);
  const DmGrid grid({{0.0, 15.0, 0.05}});
  const auto exact = reference(fb, grid);
  ASSERT_FALSE(exact.empty());
  // One group: patterns ≈ plans, no reuse but still correct. Groups ==
  // channels: every pattern is {0} and stage 2 is the whole dedispersion.
  // Oversized requests clamp to the channel count.
  for (const std::size_t groups :
       {std::size_t{1}, fb.num_channels(), fb.num_channels() * 10}) {
    EXPECT_TRUE(
        events_identical(run(fb, grid, groups), exact))
        << "groups=" << groups;
  }
}

TEST(SubbandSweep, ThreadCountDoesNotChangeOutput) {
  const Filterbank fb = survey_filterbank(350.0, 100.0, 32, 17);
  const DmGrid grid = DmGrid::gbt350drift().prefix(6.0);
  const auto one = run(fb, grid, 0, 1);
  ASSERT_FALSE(one.empty());
  EXPECT_TRUE(events_identical(run(fb, grid, 0, 2), one));
  EXPECT_TRUE(events_identical(run(fb, grid, 0, 8), one));
}

TEST(SubbandSweep, StridedGridMatchesOracle) {
  const Filterbank fb = survey_filterbank(350.0, 100.0, 32, 19);
  const DmGrid grid({{0.0, 8.0, 0.002}});
  SinglePulseSearchParams params;
  params.dm_stride = 3;
  EXPECT_TRUE(events_identical(single_pulse_search(fb, grid, params),
                               reference_sweep(fb, grid, params)));
}

// --- survey-shaped input: 64 channels, dirty RFI, a masked plan ------------

/// The end-to-end survey benchmark's observation shape at a test-sized
/// length: ska_mid band, 64 channels at 1 ms, radiometer noise, three
/// dispersed pulses and the preset's structured RFI painted in, then the
/// mitigation stage's zero-DM clean and channel mask — the sweep sees the
/// cleaned data with a masked plan.
struct MaskedSurvey {
  Filterbank fb;
  std::vector<std::uint8_t> mask;
};

MaskedSurvey masked_survey(std::uint64_t seed) {
  const SurveyConfig survey = SurveyConfig::ska_mid();
  FilterbankConfig cfg;
  cfg.center_freq_mhz = survey.center_freq_mhz;
  cfg.bandwidth_mhz = survey.bandwidth_mhz;
  cfg.num_channels = 64;
  cfg.sample_time_ms = 1.0;
  cfg.obs_length_s = 3.0;
  MaskedSurvey out{Filterbank(cfg), {}};
  Rng rng(seed);
  out.fb.add_noise(rng, 1.0);
  out.fb.inject_pulse(0.5, 12.0, 0.8, 2.0);
  out.fb.inject_pulse(1.4, 25.0, 0.6, 3.0);
  out.fb.inject_pulse(2.2, 6.0, 0.7, 1.5);
  FilterbankSurveyOptions render;
  render.num_channels = cfg.num_channels;
  render.sample_time_ms = cfg.sample_time_ms;
  render.obs_length_s = cfg.obs_length_s;
  render_rfi_filterbank(draw_rfi_scenario(survey, cfg.obs_length_s, rng),
                        render, out.fb, rng);
  // Pin a hot channel on top of whatever the scenario painted, so the
  // estimated mask always excludes something.
  out.fb.inject_rfi_tone(40, 8.0, 0.0, cfg.obs_length_s);
  RfiMitigationParams rfi;
  rfi.policy = MitigationPolicy::kBoth;
  apply_rfi_mitigation(out.fb, rfi, out.mask);
  return out;
}

const DmGrid& masked_survey_grid() {
  static const DmGrid grid = DmGrid::ska_mid().prefix(30.0);
  return grid;
}

SinglePulseSearchParams masked_survey_params(const MaskedSurvey& survey,
                                             std::size_t threads) {
  SinglePulseSearchParams params;
  params.snr_threshold = SurveyConfig::ska_mid().snr_threshold;
  params.exec = ExecPolicy::local(threads);
  params.channel_mask = survey.mask;
  return params;
}

TEST(SubbandSweep, SurveyShapedMaskedInputMatchesOracleAtEveryThreadCount) {
  const MaskedSurvey survey = masked_survey(41);
  std::size_t masked = 0;
  for (std::uint8_t m : survey.mask) masked += m;
  ASSERT_GT(masked, 0u);
  ASSERT_LT(masked, survey.fb.num_channels());
  const DmGrid& grid = masked_survey_grid();
  const auto oracle =
      reference_sweep(survey.fb, grid, masked_survey_params(survey, 1));
  ASSERT_FALSE(oracle.empty());
  for (const std::size_t threads : {1u, 2u, 3u, 4u, 8u}) {
    const SinglePulseSearchParams params =
        masked_survey_params(survey, threads);
    EXPECT_TRUE(
        events_identical(single_pulse_search(survey.fb, grid, params), oracle))
        << "one-shot subband, threads=" << threads;
    StreamingSweep stream(survey.fb.config(), grid, params);
    stream.push(survey.fb, 0, survey.fb.num_samples());
    EXPECT_TRUE(events_identical(stream.finalize(), oracle))
        << "single-push stream, threads=" << threads;
  }
}

// --- the count-only group ladder --------------------------------------------

TEST(SubbandLadder, CountOnlyProbeMatchesFullDecompositionAndPicksSameG) {
  const MaskedSurvey survey = masked_survey(43);
  const Filterbank gbt = survey_filterbank(350.0, 100.0, 32, 23);
  struct Case {
    const Filterbank* fb;
    SweepPlan sweep;
  };
  const Case cases[] = {
      {&survey.fb, build_sweep_plan(survey.fb, masked_survey_grid(), 1,
                                    survey.mask)},
      {&gbt, build_sweep_plan(gbt, DmGrid::gbt350drift().prefix(8.0))},
  };
  for (const Case& c : cases) {
    const std::size_t channels = c.fb->num_channels();
    const std::size_t n = c.fb->num_samples();
    // The oracle: the ladder as full decompositions, scored with the
    // documented bytes-touched model, first minimum wins.
    std::size_t oracle_groups = 0;
    double oracle_cost = 0.0;
    for (const std::size_t groups : detail::kSubbandGroupLadder) {
      if (groups > channels) break;
      const SubbandPlan full = build_subband_plan(c.sweep, channels, n, groups);
      EXPECT_EQ(
          detail::count_subband_patterns(c.sweep, channels, n, groups),
          full.total_patterns)
          << "channels=" << channels << " groups=" << groups;
      double stage1 = 0.0;
      for (std::size_t g = 0; g < full.groups.size(); ++g) {
        stage1 += 20.0 * static_cast<double>(full.patterns[g].size()) *
                  static_cast<double>(full.groups[g].size());
      }
      const double cost =
          stage1 + static_cast<double>(full.num_plans) *
                       (8.0 * static_cast<double>(groups) + 16.0);
      if (oracle_groups == 0 || cost < oracle_cost) {
        oracle_cost = cost;
        oracle_groups = groups;
      }
    }
    const SubbandPlan chosen = build_subband_plan(c.sweep, channels, n);
    EXPECT_EQ(chosen.groups.size(), oracle_groups) << "channels=" << channels;
    const SubbandPlan direct =
        build_subband_plan(c.sweep, channels, n, oracle_groups);
    EXPECT_EQ(chosen.total_patterns, direct.total_patterns);
    EXPECT_EQ(chosen.max_residual, direct.max_residual);
  }
}

// --- the arena-budget block split -------------------------------------------

TEST(SubbandSweep, OverBudgetBlockSplitIsByteIdenticalToOneBlock) {
  const MaskedSurvey survey = masked_survey(47);
  const DmGrid& grid = masked_survey_grid();
  const std::size_t node_bytes = survey.fb.num_samples() * sizeof(double);
  auto& blocks = obs::global_counters().counter("dedisp.subband.blocks");
  for (const std::size_t threads : {1u, 3u}) {
    const SinglePulseSearchParams params =
        masked_survey_params(survey, threads);
    std::int64_t before = blocks.value();
    const auto one_block = detail::subband_single_pulse_search(
        survey.fb, grid, params, std::size_t{1} << 40);
    ASSERT_EQ(blocks.value() - before, 1);
    ASSERT_FALSE(one_block.empty());
    // A budget below one plan's G nodes still runs one plan per block; the
    // larger caps cut DM-contiguous blocks of several plans.
    for (const std::size_t budget_nodes : {1u, 7u, 40u, 150u}) {
      before = blocks.value();
      const auto split = detail::subband_single_pulse_search(
          survey.fb, grid, params, budget_nodes * node_bytes);
      EXPECT_GT(blocks.value() - before, 1)
          << "budget_nodes=" << budget_nodes;
      EXPECT_TRUE(events_identical(split, one_block))
          << "threads=" << threads << " budget_nodes=" << budget_nodes;
    }
  }
}

TEST(SubbandSweep, BudgetedSeamRejectsUnroutedMitigation) {
  const Filterbank fb = survey_filterbank(350.0, 100.0, 16, 29);
  SinglePulseSearchParams params;
  params.rfi.policy = MitigationPolicy::kZeroDm;
  EXPECT_THROW(detail::subband_single_pulse_search(
                   fb, DmGrid({{0.0, 5.0, 0.5}}), params, 1 << 20),
               std::invalid_argument);
}

// --- the engine against the reference, bit for bit -------------------------

/// One input shape for the reference-identity property: odd sample and
/// channel counts throughout, plus masking (channel 0 included, so a group
/// base is nonzero), a strided fine-step grid, and DMs whose shifts clamp
/// at the observation end. Channel gains span 2^-20..2^20, so the double
/// sums of float samples round and any change of summation order shows in
/// the bits (unit-gain noise sums exactly in double whatever the order).
struct ReferenceCase {
  const char* name;
  std::size_t channels;
  double obs_length_s;
  DmGrid grid;
  std::size_t dm_stride;
  std::vector<std::size_t> masked;
};

std::vector<SinglePulseEvent> stream_in_chunks(
    const Filterbank& fb, const DmGrid& grid,
    const SinglePulseSearchParams& params, std::size_t chunk) {
  StreamingSweep stream(fb.config(), grid, params);
  for (std::size_t begin = 0; begin < stream.total_samples(); begin += chunk) {
    stream.push(fb, begin, chunk);
  }
  return stream.finalize();
}

TEST(SubbandEngine, OneAndAllGroupsMatchReferenceBitForBit) {
  const ReferenceCase cases[] = {
      {"plain", 13, 3.002, DmGrid({{0.0, 30.0, 0.25}}), 1, {}},
      {"masked", 15, 2.998, DmGrid({{0.0, 40.0, 0.5}}), 1, {0, 6, 11}},
      {"strided", 11, 3.006, DmGrid({{0.0, 8.0, 0.002}}), 3, {}},
      {"clamped", 9, 0.25, DmGrid({{0.0, 500.0, 5.0}}), 1, {4}},
  };
  std::uint64_t seed = 51;
  for (const ReferenceCase& c : cases) {
    FilterbankConfig cfg;
    cfg.center_freq_mhz = 350.0;
    cfg.bandwidth_mhz = 100.0;
    cfg.num_channels = c.channels;
    cfg.sample_time_ms = 2.0;
    cfg.obs_length_s = c.obs_length_s;
    Filterbank fb(cfg);
    Rng rng(seed++);
    fb.add_noise(rng, 1.0);
    fb.inject_pulse(c.obs_length_s / 3.0, 12.0, 3.0, 20.0);
    fb.inject_broadband_impulse(c.obs_length_s * 0.75, 6.0);
    for (std::size_t ch = 0; ch < c.channels; ++ch) {
      const float gain =
          std::ldexp(1.0f, static_cast<int>((ch * 7) % 41) - 20);
      float* row = fb.channel_data(ch);
      for (std::size_t s = 0; s < fb.num_samples(); ++s) row[s] *= gain;
    }
    ASSERT_EQ(fb.num_samples() % 2, 1u) << c.name;

    SinglePulseSearchParams params;
    params.snr_threshold = 4.0;
    params.dm_stride = c.dm_stride;
    if (!c.masked.empty()) {
      params.channel_mask.assign(c.channels, 0);
      for (std::size_t m : c.masked) params.channel_mask[m] = 1;
    }
    const auto oracle = reference_sweep(fb, c.grid, params);
    ASSERT_FALSE(oracle.empty()) << c.name;
    for (const std::size_t groups : {std::size_t{1}, c.channels}) {
      for (const std::size_t threads : {1u, 3u}) {
        params.subband_groups = groups;
        params.exec.threads_per_worker = threads;
        const std::string where = std::string(c.name) +
                                  " groups=" + std::to_string(groups) +
                                  " threads=" + std::to_string(threads);
        EXPECT_TRUE(events_identical(single_pulse_search(fb, c.grid, params),
                                     oracle))
            << "one-shot " << where;
        for (const std::size_t chunk : {std::size_t{97}, fb.num_samples()}) {
          EXPECT_TRUE(events_identical(
              stream_in_chunks(fb, c.grid, params, chunk), oracle))
              << "streamed chunk=" << chunk << " " << where;
        }
      }
    }
  }
}

}  // namespace
}  // namespace drapid
