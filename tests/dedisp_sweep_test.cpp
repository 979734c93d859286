// The shift-plan DM sweep: dedup equivalence against per-trial dedispersion,
// tail-normalization edge cases, scratch reuse, cross-thread determinism,
// and the engine's counters and spans.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "dedisp/single_pulse_search.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "synth/dispersion.hpp"
#include "util/rng.hpp"

namespace drapid {
namespace {

FilterbankConfig small_config() {
  FilterbankConfig cfg;
  cfg.center_freq_mhz = 350.0;
  cfg.bandwidth_mhz = 100.0;
  cfg.num_channels = 32;
  cfg.sample_time_ms = 2.0;
  cfg.obs_length_s = 10.0;
  return cfg;
}

Filterbank noisy_filterbank(FilterbankConfig cfg, std::uint64_t seed) {
  Filterbank fb(cfg);
  Rng rng(seed);
  fb.add_noise(rng, 1.0);
  fb.inject_pulse(3.0, 40.0, 3.0, 20.0);
  return fb;
}

/// The pre-shift-plan reference: dedisperse sample-major with per-sample
/// contributor increments, exactly as the seed implementation did.
std::vector<double> dedisperse_reference(const Filterbank& fb, double dm) {
  const std::size_t n = fb.num_samples();
  const double dt_s = fb.config().sample_time_ms * 1e-3;
  std::vector<std::size_t> shifts(fb.num_channels());
  const double ref_delay = dispersion_delay_s(dm, fb.channel_freq_mhz(0));
  for (std::size_t c = 0; c < fb.num_channels(); ++c) {
    const double delay =
        dispersion_delay_s(dm, fb.channel_freq_mhz(c)) - ref_delay;
    shifts[c] = static_cast<std::size_t>(delay / dt_s + 0.5);
  }
  std::vector<double> series(n, 0.0);
  std::vector<std::uint32_t> contributors(n, 0);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t c = 0; c < fb.num_channels(); ++c) {
      const std::size_t idx = s + shifts[c];
      if (idx < n) {
        series[s] += fb.at(c, idx);
        ++contributors[s];
      }
    }
  }
  const double full = static_cast<double>(fb.num_channels());
  for (std::size_t s = 0; s < n; ++s) {
    if (contributors[s] > 0) {
      series[s] *= full / static_cast<double>(contributors[s]);
    }
  }
  return series;
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

TEST(ShiftPlan, MatchesReferenceDedispersion) {
  const Filterbank fb = noisy_filterbank(small_config(), 3);
  for (double dm : {0.0, 7.77, 40.0, 123.4}) {
    const auto series = dedisperse(fb, dm);
    const auto reference = dedisperse_reference(fb, dm);
    ASSERT_EQ(series.size(), reference.size());
    for (std::size_t s = 0; s < series.size(); ++s) {
      ASSERT_EQ(series[s], reference[s]) << "dm " << dm << " sample " << s;
    }
  }
}

TEST(ShiftPlan, ClampsShiftsBeyondObservation) {
  // A DM so large every channel but the reference shifts past the end.
  const Filterbank fb = noisy_filterbank(small_config(), 3);
  const auto shifts = dispersion_shifts(fb, 50000.0);
  EXPECT_EQ(shifts.front(), 0u);  // channel 0 is the delay reference
  for (std::size_t c = 1; c < shifts.size(); ++c) {
    EXPECT_LE(shifts[c], fb.num_samples());
  }
  EXPECT_EQ(shifts.back(), fb.num_samples());
  const auto series = dedisperse(fb, 50000.0);
  const auto reference = dedisperse_reference(fb, 50000.0);
  for (std::size_t s = 0; s < series.size(); ++s) {
    ASSERT_EQ(series[s], reference[s]) << "sample " << s;
  }
}

TEST(ShiftPlan, SingleChannelNeedsNoRenormalization) {
  FilterbankConfig cfg = small_config();
  cfg.num_channels = 1;
  Filterbank fb(cfg);
  Rng rng(5);
  fb.add_noise(rng, 1.0);
  // One channel: the series is the channel itself at any DM (shift 0 for the
  // reference channel), and contributors is never in (0, channels).
  const auto series = dedisperse(fb, 250.0);
  ASSERT_EQ(series.size(), fb.num_samples());
  for (std::size_t s = 0; s < series.size(); ++s) {
    ASSERT_EQ(series[s], static_cast<double>(fb.at(0, s)));
  }
}

TEST(SweepPlan, DedupsIdenticalShiftVectors) {
  const Filterbank fb = noisy_filterbank(small_config(), 3);
  // 0.002-step trials at 2 ms sampling: adjacent trials round to the same
  // shift vector, so unique plans must be well below the trial count.
  const DmGrid grid({{0.0, 5.0, 0.002}});
  const SweepPlan sweep = build_sweep_plan(fb, grid);
  EXPECT_EQ(sweep.num_trials, grid.size());
  EXPECT_LT(sweep.plans.size(), grid.size() / 2);
  // plan_of_trial and the per-plan trial lists are consistent partitions.
  ASSERT_EQ(sweep.plan_of_trial.size(), sweep.num_trials);
  std::size_t total = 0;
  for (std::size_t p = 0; p < sweep.plans.size(); ++p) {
    for (std::size_t trial : sweep.plans[p].trials) {
      ASSERT_EQ(sweep.plan_of_trial[trial], p);
    }
    total += sweep.plans[p].trials.size();
  }
  EXPECT_EQ(total, sweep.num_trials);
  for (const auto& plan : sweep.plans) {
    EXPECT_EQ(plan.max_shift,
              *std::max_element(plan.shifts.begin(), plan.shifts.end()));
  }
}

TEST(SweepPlan, DedupedSweepMatchesPerTrialSearch) {
  const Filterbank fb = noisy_filterbank(small_config(), 3);
  const DmGrid grid({{0.0, 10.0, 0.01}, {10.0, 20.0, 0.03}});
  const SinglePulseSearchParams params;
  const auto swept = single_pulse_search(fb, grid, params);

  // Reference: dedisperse + detect every trial independently, merge, sort.
  std::vector<SinglePulseEvent> reference;
  for (std::size_t t = 0; t < grid.size(); ++t) {
    const double dm = grid.dm_at(t);
    const auto series = dedisperse(fb, dm);
    const auto events =
        detect_events(series, dm, fb.config().sample_time_ms, params);
    reference.insert(reference.end(), events.begin(), events.end());
  }
  std::sort(reference.begin(), reference.end(),
            [](const SinglePulseEvent& a, const SinglePulseEvent& b) {
              if (a.dm != b.dm) return a.dm < b.dm;
              return a.time_s < b.time_s;
            });
  EXPECT_TRUE(events_identical(swept, reference));
}

TEST(DetectEvents, ScratchReuseMatchesFreshBuffers) {
  const Filterbank fb = noisy_filterbank(small_config(), 7);
  const SinglePulseSearchParams params;
  DetectScratch reused;
  for (double dm : {40.0, 3.0, 91.5}) {
    const auto series = dedisperse(fb, dm);
    const auto fresh =
        detect_events(series, dm, fb.config().sample_time_ms, params);
    std::vector<SinglePulseEvent> events;
    detect_events_into(series, dm, fb.config().sample_time_ms, params, reused,
                       events);
    EXPECT_TRUE(events_identical(events, fresh)) << "dm " << dm;
  }
}

TEST(SinglePulseSearch, DeterministicAcrossThreadCounts) {
  const Filterbank fb = noisy_filterbank(small_config(), 3);
  const DmGrid grid({{0.0, 30.0, 0.05}, {30.0, 60.0, 0.1}});
  SinglePulseSearchParams params;
  const auto serial = single_pulse_search(fb, grid, params);
  for (std::size_t threads : {2u, 8u}) {
    params.exec.threads_per_worker = threads;
    const auto parallel = single_pulse_search(fb, grid, params);
    EXPECT_TRUE(events_identical(serial, parallel))
        << "threads " << threads;
  }
}

TEST(SinglePulseSearch, StridedSweepUsesNominalTrialDms) {
  const Filterbank fb = noisy_filterbank(small_config(), 3);
  const DmGrid grid({{0.0, 40.0, 0.5}});
  SinglePulseSearchParams params;
  params.dm_stride = 7;
  const auto events = single_pulse_search(fb, grid, params);
  ASSERT_FALSE(events.empty());
  for (const auto& e : events) {
    // Every reported DM is one of the strided trials.
    const std::size_t index = grid.index_of(e.dm);
    EXPECT_EQ(index % 7, 0u);
    EXPECT_EQ(grid.dm_at(index), e.dm);
  }
}

TEST(SinglePulseSearch, EmitsCountersAndSpans) {
  const Filterbank fb = noisy_filterbank(small_config(), 3);
  const DmGrid grid({{0.0, 10.0, 0.01}});

  auto& counters = obs::global_counters();
  const auto snapshot = [&](const char* name) {
    for (const auto& [key, value] : counters.counters_snapshot()) {
      if (key == name) return value;
    }
    return std::int64_t{0};
  };
  const std::int64_t trials_before = snapshot("dedisp.trials");
  const std::int64_t plans_before = snapshot("dedisp.plans_unique");
  const std::int64_t hits_before = snapshot("dedisp.plan_dedup_hits");
  const std::int64_t blocks_before = snapshot("dedisp.subband.blocks");
  const std::int64_t selects_before = snapshot("dedisp.select.calls");
  const std::int64_t fallbacks_before = snapshot("dedisp.select.fallbacks");

  auto& tracer = obs::global_tracer();
  tracer.clear();
  tracer.enable(true);
  const auto events = single_pulse_search(fb, grid, {});
  tracer.enable(false);

  EXPECT_EQ(snapshot("dedisp.trials") - trials_before,
            static_cast<std::int64_t>(grid.size()));
  const std::int64_t unique = snapshot("dedisp.plans_unique") - plans_before;
  const std::int64_t hits = snapshot("dedisp.plan_dedup_hits") - hits_before;
  EXPECT_GT(unique, 0);
  EXPECT_EQ(unique + hits, static_cast<std::int64_t>(grid.size()));
  const std::int64_t blocks = snapshot("dedisp.subband.blocks") - blocks_before;
  EXPECT_GT(blocks, 0);
  // Two selections (median, MAD) per unique plan; bracket misses are a
  // subset of them.
  const std::int64_t selects = snapshot("dedisp.select.calls") - selects_before;
  EXPECT_EQ(selects, 2 * unique);
  const std::int64_t fallbacks =
      snapshot("dedisp.select.fallbacks") - fallbacks_before;
  EXPECT_GE(fallbacks, 0);
  EXPECT_LE(fallbacks, selects);

  // One engine span per sweep, one block span per stage-1 + stage-2 block.
  std::size_t sweep_spans = 0;
  std::size_t block_spans = 0;
  for (const auto& event : tracer.events()) {
    if (event.phase != obs::TraceEvent::Phase::kBegin) continue;
    if (event.name == "dedisp.sweep") {
      ++sweep_spans;
      EXPECT_EQ(event.category, "dedisp");
    }
    block_spans += event.name == "dedisp.subband.block";
  }
  EXPECT_EQ(sweep_spans, 1u);
  EXPECT_EQ(block_spans, static_cast<std::size_t>(blocks));
  EXPECT_EQ(tracer.open_spans(), 0u);
  tracer.clear();
  (void)events;
}

}  // namespace
}  // namespace drapid
