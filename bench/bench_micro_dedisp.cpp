// Microbenchmarks for the phase 1–3 substrate: dedispersion, matched-filter
// detection, FFT and folding.
#include <benchmark/benchmark.h>

#include "micro_support.hpp"

#include "dedisp/kernels.hpp"
#include "dedisp/periodicity.hpp"
#include "dedisp/single_pulse_search.hpp"
#include "synth/survey.hpp"
#include "util/rng.hpp"

namespace drapid {
namespace {

Filterbank bench_filterbank(std::size_t channels) {
  FilterbankConfig cfg;
  cfg.num_channels = channels;
  cfg.sample_time_ms = 2.0;
  cfg.obs_length_s = 10.0;
  Filterbank fb(cfg);
  Rng rng(1);
  fb.add_noise(rng, 1.0);
  fb.inject_pulse(3.0, 40.0, 3.0, 20.0);
  return fb;
}

void BM_Dedisperse(benchmark::State& state) {
  const auto fb = bench_filterbank(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dedisperse(fb, 40.0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fb.num_samples()) *
                          state.range(0));
}
BENCHMARK(BM_Dedisperse)->Arg(32)->Arg(128);

void BM_DetectEvents(benchmark::State& state) {
  const auto fb = bench_filterbank(32);
  const auto series = dedisperse(fb, 40.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(detect_events(series, 40.0, 2.0, {}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(series.size()));
}
BENCHMARK(BM_DetectEvents);

void BM_FullSinglePulseSearch(benchmark::State& state) {
  const auto fb = bench_filterbank(32);
  const DmGrid grid({{0.0, 100.0, 2.0}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(single_pulse_search(fb, grid, {}));
  }
}
BENCHMARK(BM_FullSinglePulseSearch);

/// The survey-shaped filterbank: 64 channels over the ska_mid band at 1 ms
/// for 10 s, with a bright dispersed pulse.
const Filterbank& survey_filterbank() {
  static const Filterbank fb = [] {
    FilterbankConfig cfg;
    cfg.center_freq_mhz = 1400.0;
    cfg.bandwidth_mhz = 800.0;
    cfg.num_channels = 64;
    cfg.sample_time_ms = 1.0;
    cfg.obs_length_s = 10.0;
    Filterbank out(cfg);
    Rng rng(3);
    out.add_noise(rng, 1.0);
    out.inject_pulse(4.0, 80.0, 0.8, 2.0);
    return out;
  }();
  return fb;
}

/// Three channels masked, as the mitigation stage leaves a survey band.
std::vector<std::uint8_t> survey_mask() {
  std::vector<std::uint8_t> mask(survey_filterbank().num_channels(), 0);
  mask[9] = mask[30] = mask[51] = 1;
  return mask;
}

/// 64 distinct dedispersed series of the masked survey sweep, spread over
/// its unique plans (DM 0-100). Detection benches cycle through them:
/// rerunning one series lets the branch predictor learn its data, which
/// flatters branchy selection code (see BM_KernelSelect).
const std::vector<std::vector<double>>& survey_series() {
  static const std::vector<std::vector<double>> series = [] {
    const Filterbank& fb = survey_filterbank();
    const SweepPlan sweep = build_sweep_plan(
        fb, DmGrid::ska_mid().prefix(100.0), 1, survey_mask());
    std::vector<std::vector<double>> out;
    DedispScratch scratch;
    const std::size_t count = 64;
    for (std::size_t i = 0; i < count; ++i) {
      dedisperse_plan(fb, sweep.plans[i * sweep.plans.size() / count],
                      scratch);
      out.push_back(scratch.series);
    }
    return out;
  }();
  return series;
}

void BM_DetectEventsScratch(benchmark::State& state) {
  const auto& inputs = survey_series();
  SinglePulseSearchParams params;
  params.snr_threshold = SurveyConfig::ska_mid().snr_threshold;
  DetectScratch scratch;
  std::vector<SinglePulseEvent> events;
  std::size_t next = 0;
  for (auto _ : state) {
    events.clear();
    detect_events_into(inputs[next], 40.0, 1.0, params, scratch, events);
    next = (next + 1) % inputs.size();
    benchmark::DoNotOptimize(events);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(inputs.front().size()));
  state.SetLabel(kernels::dispatch_name());
}
BENCHMARK(BM_DetectEventsScratch)->UseRealTime();

/// The median/MAD standardization alone, on the same series.
void BM_RobustStats(benchmark::State& state) {
  const auto& inputs = survey_series();
  std::vector<double> workspace, scratch;
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(robust_stats(inputs[next], workspace, scratch));
    next = (next + 1) % inputs.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(inputs.front().size()));
  state.SetLabel(kernels::dispatch_name());
}
BENCHMARK(BM_RobustStats)->UseRealTime();

/// The realistic fine-step slice of a survey plan: 0.01-spaced trials, where
/// shift-plan dedup and scratch reuse actually pay off.
const DmGrid& sweep_grid() {
  static const DmGrid grid = DmGrid::gbt350drift().prefix(10.0);
  return grid;
}

/// The production sweep (the two-stage subband engine, groups picked by the
/// cost model) over the fine-step workload.
void BM_DmSweepSubband(benchmark::State& state) {
  const auto fb = bench_filterbank(32);
  SinglePulseSearchParams params;
  params.exec.threads_per_worker = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(single_pulse_search(fb, sweep_grid(), params));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sweep_grid().size() *
                                                    fb.num_samples()));
}
BENCHMARK(BM_DmSweepSubband)->Arg(1)->Arg(2);

/// The survey-shaped subband sweep: 64 channels over the ska_mid band at
/// 1 ms with three channels masked, on 3 threads. What the threads buy is
/// wall time, so real time is the figure google-benchmark reports.
void BM_DmSweepSubbandMasked(benchmark::State& state) {
  const Filterbank& fb = survey_filterbank();
  static const DmGrid grid = DmGrid::ska_mid().prefix(100.0);
  SinglePulseSearchParams params;
  params.exec.threads_per_worker = static_cast<std::size_t>(state.range(0));
  params.channel_mask = survey_mask();
  for (auto _ : state) {
    benchmark::DoNotOptimize(single_pulse_search(fb, grid, params));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(grid.size() *
                                                    fb.num_samples()));
}
BENCHMARK(BM_DmSweepSubbandMasked)->Arg(3)->UseRealTime();

/// The dispatched accumulation kernel on a dedispersion-sized row — the
/// inner loop of stage 1 in both sweep drivers and of dedisperse().
void BM_KernelAccumulate(benchmark::State& state) {
  const std::size_t n = 5000;
  Rng rng(7);
  std::vector<float> in(n);
  for (auto& x : in) x = static_cast<float>(rng.normal());
  std::vector<double> out(n, 0.0);
  for (auto _ : state) {
    kernels::accumulate_f32(out.data(), in.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.SetLabel(kernels::dispatch_name());
}
BENCHMARK(BM_KernelAccumulate);

/// The selection kernel behind robust_stats, on fresh noise every iteration
/// — reusing one array would let the branch predictor memorize the data and
/// overstate std::nth_element by an order of magnitude.
void BM_KernelSelect(benchmark::State& state) {
  const std::size_t n = 5000;
  Rng rng(11);
  std::vector<std::vector<double>> inputs(64);
  for (auto& v : inputs) {
    v.resize(n);
    for (auto& x : v) x = rng.normal();
  }
  std::vector<double> work(n), scratch(n);
  std::size_t next = 0;
  for (auto _ : state) {
    std::copy(inputs[next].begin(), inputs[next].end(), work.begin());
    next = (next + 1) % inputs.size();
    benchmark::DoNotOptimize(
        kernels::select_kth(work.data(), scratch.data(), n, n / 2));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.SetLabel(kernels::dispatch_name());
}
BENCHMARK(BM_KernelSelect);

/// The pre-shift-plan formulation — every trial dedispersed and detected
/// independently — kept as the in-tree yardstick for the sweep speedup.
void BM_DmSweepPerTrial(benchmark::State& state) {
  const auto fb = bench_filterbank(32);
  const DmGrid& grid = sweep_grid();
  const SinglePulseSearchParams params;
  for (auto _ : state) {
    std::vector<SinglePulseEvent> events;
    for (std::size_t t = 0; t < grid.size(); ++t) {
      const double dm = grid.dm_at(t);
      const auto series = dedisperse(fb, dm);
      const auto found =
          detect_events(series, dm, fb.config().sample_time_ms, params);
      events.insert(events.end(), found.begin(), found.end());
    }
    benchmark::DoNotOptimize(events);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(grid.size() *
                                                    fb.num_samples()));
}
BENCHMARK(BM_DmSweepPerTrial);

void BM_Fft(benchmark::State& state) {
  Rng rng(2);
  std::vector<std::complex<double>> a(
      static_cast<std::size_t>(state.range(0)));
  for (auto& x : a) x = {rng.normal(), 0.0};
  for (auto _ : state) {
    auto copy = a;
    fft_inplace(copy);
    benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Fft)->Arg(1024)->Arg(16384);

void BM_PeriodicitySearch(benchmark::State& state) {
  Rng rng(3);
  std::vector<double> series(16384);
  for (std::size_t i = 0; i < series.size(); ++i) {
    const double t = static_cast<double>(i) * 1e-3;
    series[i] = 2.0 * std::exp(-0.5 * std::pow(
        (std::fmod(t, 0.5) - 0.25) / 0.01, 2.0)) + rng.normal();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(periodicity_search(series, 1.0));
  }
}
BENCHMARK(BM_PeriodicitySearch);

void BM_Fold(benchmark::State& state) {
  Rng rng(5);
  std::vector<double> series(16384);
  for (auto& v : series) v = rng.normal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fold(series, 1.0, 0.5, 64));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(series.size()));
}
BENCHMARK(BM_Fold);

}  // namespace
}  // namespace drapid

DRAPID_MICRO_MAIN("bench_micro_dedisp",
                  "Micro-benchmarks for the dedispersion layer: single-pulse search and periodicity folding.")
