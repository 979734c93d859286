// Microbenchmarks for the identification path: linear regression, Equation 1,
// Algorithm 1 over realistic cluster sizes, feature extraction, and the
// customized DBSCAN.
#include <benchmark/benchmark.h>

#include "micro_support.hpp"

#include "clustering/dbscan.hpp"
#include "rapid/features.hpp"
#include "rapid/search.hpp"
#include "synth/dispersion.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace drapid {
namespace {

std::vector<SinglePulseEvent> synthetic_cluster(std::size_t size,
                                                std::uint64_t seed) {
  Rng rng(seed);
  const double dm0 = 50.0;
  const double peak = 20.0;
  const double width = 5.0;
  const double half = dm_width_at_level(0.25, width, 350.0, 100.0);
  const double step = 2.5 * half / static_cast<double>(size);
  std::vector<SinglePulseEvent> events;
  for (double dm = dm0 - 1.2 * half; events.size() < size; dm += step) {
    SinglePulseEvent e;
    e.dm = dm;
    e.snr = std::max(5.0, peak * snr_degradation(dm - dm0, width, 350.0,
                                                 100.0) +
                              rng.normal(0.0, 0.3));
    e.time_s = 1.0 + rng.normal(0.0, 1e-3);
    events.push_back(e);
  }
  return events;
}

void BM_LinearRegression(benchmark::State& state) {
  Rng rng(1);
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = static_cast<double>(i);
    y[i] = rng.normal();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(linear_regression(x, y));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_LinearRegression)->Arg(8)->Arg(64)->Arg(1024);

void BM_ComputeBinSize(benchmark::State& state) {
  RapidParams params;
  std::size_t n = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_bin_size(n, params));
    n = (n * 7 + 3) % 5000 + 1;
  }
}
BENCHMARK(BM_ComputeBinSize);

void BM_RapidSearch(benchmark::State& state) {
  const auto events =
      synthetic_cluster(static_cast<std::size_t>(state.range(0)), 3);
  RapidParams params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rapid_search(events, params));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_RapidSearch)->Arg(19)->Arg(100)->Arg(500)->Arg(3500);

void BM_ExtractFeatures(benchmark::State& state) {
  const auto events =
      synthetic_cluster(static_cast<std::size_t>(state.range(0)), 5);
  const auto pulses = rapid_search(events, {});
  if (pulses.empty()) {
    state.SkipWithError("no pulse found");
    return;
  }
  ClusterRecord cluster;
  cluster.rank = 1;
  cluster.num_spes = static_cast<std::uint32_t>(events.size());
  const DmGrid grid = DmGrid::gbt350drift();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        extract_features(events, pulses[0], cluster, grid, 1));
  }
}
BENCHMARK(BM_ExtractFeatures)->Arg(100)->Arg(1000);

/// Sparse uniform events over 0–500 pc cm^-3 and 120 s, or — with
/// `dirty_column` — half of them in interference columns: 500 consecutive
/// DM trials at one sample each, the shape zero-DM leftovers and noise false
/// alarms leave after a sweep. A column makes a time-window scan across all
/// trials quadratic in its height.
void BM_Dbscan(benchmark::State& state, bool dirty_column) {
  Rng rng(7);
  ObservationData obs;
  obs.id.dataset = "BM";
  const auto n = static_cast<std::size_t>(state.range(0));
  const DmGrid grid = DmGrid::gbt350drift();
  constexpr std::size_t kColumnHeight = 500;
  while (obs.events.size() < n) {
    if (dirty_column && obs.events.size() % 2 == 0 &&
        n - obs.events.size() >= kColumnHeight) {
      const double t = rng.uniform(0.0, 120.0);
      const auto first = static_cast<std::size_t>(
          rng.below(grid.size() - kColumnHeight));
      for (std::size_t k = first; k < first + kColumnHeight; ++k) {
        SinglePulseEvent e;
        e.dm = grid.dm_at(k);
        e.snr = 5.0 + rng.exponential(1.0);
        e.time_s = t;
        obs.events.push_back(e);
      }
      continue;
    }
    SinglePulseEvent e;
    e.dm = rng.uniform(0.0, 500.0);
    e.snr = 5.0 + rng.exponential(1.0);
    e.time_s = rng.uniform(0.0, 120.0);
    obs.events.push_back(e);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(dbscan_cluster(obs, grid, {}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
void BM_Dbscan(benchmark::State& state) { BM_Dbscan(state, false); }
BENCHMARK(BM_Dbscan)->Arg(1000)->Arg(10000);
BENCHMARK_CAPTURE(BM_Dbscan, dirty_column, true)->Arg(10000);

void BM_SnrDegradation(benchmark::State& state) {
  double err = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(snr_degradation(err, 5.0, 1400.0, 300.0));
    err += 0.01;
    if (err > 50.0) err = 0.0;
  }
}
BENCHMARK(BM_SnrDegradation);

}  // namespace
}  // namespace drapid

DRAPID_MICRO_MAIN("bench_micro_rapid",
                  "Micro-benchmarks for the RAPID single-pulse search path: DBSCAN, peak search, feature extraction.")
