// Microbenchmarks for the cross-validation pipeline the figure benches are
// built from: the Figure 5 slice (stratified 5-fold CV per learner), the
// Figure 6 slice (filter-scored feature selection feeding the CV), SMOTE'd
// folds, and the batched prediction path behind testing-time measurements.
//
// Together with bench_micro_ml (single-train costs) this pins the ML
// regression surface: tools/bench_baseline.sh bundles both into the
// committed baseline that DRAPID_BENCH_CHECK diffs against.
#include <benchmark/benchmark.h>

#include "micro_support.hpp"

#include "ml/classifier.hpp"
#include "ml/cross_validation.hpp"
#include "ml/feature_selection.hpp"
#include "ml/smote.hpp"
#include "util/rng.hpp"

namespace drapid {
namespace ml {
namespace {

/// Mildly overlapping blobs (same generator as bench_micro_ml): positive
/// classes around distinct centers. `positive_fraction` < 1 thins every
/// class but 0 to produce the imbalance SMOTE exists for.
Dataset bench_dataset(std::size_t instances, std::size_t features,
                      std::size_t classes, double positive_fraction = 1.0) {
  std::vector<std::string> feature_names, class_names;
  for (std::size_t f = 0; f < features; ++f) {
    feature_names.push_back("f" + std::to_string(f));
  }
  for (std::size_t c = 0; c < classes; ++c) {
    class_names.push_back("c" + std::to_string(c));
  }
  Dataset d(std::move(feature_names), std::move(class_names));
  Rng rng(5);
  std::vector<double> x(features);
  for (std::size_t i = 0; i < instances; ++i) {
    auto y = static_cast<int>(rng.below(classes));
    if (y != 0 && positive_fraction < 1.0 && !rng.chance(positive_fraction)) {
      y = 0;
    }
    for (std::size_t f = 0; f < features; ++f) {
      const double center =
          static_cast<double>((static_cast<std::size_t>(y) * (f + 3)) % 7);
      x[f] = rng.normal(center, 1.2);
    }
    d.add(x, y);
  }
  return d;
}

// --- Figure 5 slice: stratified 5-fold CV per learner -----------------------

void cv_learner(benchmark::State& state, LearnerType type,
                std::size_t threads) {
  const auto d = bench_dataset(static_cast<std::size_t>(state.range(0)), 22,
                               static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    Rng rng(7);
    const auto result = cross_validate(
        d, 5, [type] { return make_classifier(type, 1); }, rng, nullptr,
        nullptr, CvOptions{.exec = ExecPolicy::local(threads)});
    benchmark::DoNotOptimize(result.pooled.total());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

void BM_Cv_J48(benchmark::State& state) {
  cv_learner(state, LearnerType::kJ48, 1);
}
BENCHMARK(BM_Cv_J48)->Args({600, 2})->Args({600, 8});

void BM_Cv_RF(benchmark::State& state) {
  cv_learner(state, LearnerType::kRandomForest, 1);
}
BENCHMARK(BM_Cv_RF)->Args({600, 2});

// Fold-parallel path: same folds on the work-stealing pool. Tracks the
// dispatch overhead on top of BM_Cv_J48 (wall-clock gains need >1 core).
void BM_Cv_J48_Threads4(benchmark::State& state) {
  cv_learner(state, LearnerType::kJ48, 4);
}
BENCHMARK(BM_Cv_J48_Threads4)->Args({600, 2});

// --- SMOTE'd training folds (the imbalance-treatment slice) ----------------

void BM_Cv_J48_Smote(benchmark::State& state) {
  const auto d = bench_dataset(800, 22, 2, 0.15);
  for (auto _ : state) {
    Rng rng(7);
    const auto result = cross_validate(
        d, 5, [] { return make_classifier(LearnerType::kJ48, 1); }, rng,
        [](const Dataset& train, Rng& fold_rng) {
          return apply_smote(train, SmoteParams{}, fold_rng);
        });
    benchmark::DoNotOptimize(result.total_transform_seconds);
  }
}
BENCHMARK(BM_Cv_J48_Smote);

// --- Figure 6 slice: filter-scored feature selection feeding the CV --------

void BM_Cv_J48_FilteredTop10(benchmark::State& state) {
  const auto d = bench_dataset(600, 22, 2);
  for (auto _ : state) {
    const auto top = top_k_features(d, FilterMethod::kInfoGain, 10);
    const Dataset selected = d.select_features(top);
    Rng rng(7);
    const auto result = cross_validate(
        selected, 5, [] { return make_classifier(LearnerType::kJ48, 1); },
        rng);
    benchmark::DoNotOptimize(result.pooled.total());
  }
}
BENCHMARK(BM_Cv_J48_FilteredTop10);

// --- Testing times: the batched prediction path ----------------------------

void predict_batch_learner(benchmark::State& state, LearnerType type) {
  const auto train = bench_dataset(600, 22, 2);
  const auto test = bench_dataset(2000, 22, 2);
  auto classifier = make_classifier(type, 1);
  classifier->train(train);
  for (auto _ : state) {
    benchmark::DoNotOptimize(classifier->predict_batch(test));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(test.num_instances()));
}

void BM_PredictBatch_J48(benchmark::State& state) {
  predict_batch_learner(state, LearnerType::kJ48);
}
BENCHMARK(BM_PredictBatch_J48);

void BM_PredictBatch_RF(benchmark::State& state) {
  predict_batch_learner(state, LearnerType::kRandomForest);
}
BENCHMARK(BM_PredictBatch_RF);

// Per-instance path for comparison (what predict_batch amortizes).
void BM_PredictSingle_RF(benchmark::State& state) {
  const auto train = bench_dataset(600, 22, 2);
  const auto test = bench_dataset(2000, 22, 2);
  auto classifier = make_classifier(LearnerType::kRandomForest, 1);
  classifier->train(train);
  for (auto _ : state) {
    int sink = 0;
    for (std::size_t i = 0; i < test.num_instances(); ++i) {
      sink += classifier->predict(test.instance(i));
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(test.num_instances()));
}
BENCHMARK(BM_PredictSingle_RF);

}  // namespace
}  // namespace ml
}  // namespace drapid

DRAPID_MICRO_MAIN("bench_micro_cv",
                  "Micro-benchmarks for the CV pipeline: stratified k-fold "
                  "CV, SMOTE'd folds, filtered CV, batched prediction.")
