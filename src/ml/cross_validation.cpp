#include "ml/cross_validation.hpp"

#include <stdexcept>

#include "obs/trace.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace drapid {
namespace ml {

std::vector<int> stratified_folds(const Dataset& data, int k, Rng& rng) {
  return stratified_folds(data.labels(), data.num_classes(), k, rng);
}

std::vector<int> stratified_folds(const std::vector<int>& labels,
                                  std::size_t num_classes, int k, Rng& rng) {
  if (k < 2) throw std::invalid_argument("need at least 2 folds");
  std::vector<int> folds(labels.size(), 0);
  // Shuffle within each class, then deal members round-robin across folds.
  // Each class starts dealing where the previous one stopped: dealing every
  // class from fold 0 hands every class's remainder to the low folds, which
  // systematically over-fills fold 0 (over-filling is what breaks the
  // stratified size guarantee |fold| ∈ {⌊n/k⌋, ⌈n/k⌉}).
  std::size_t start = 0;
  for (std::size_t c = 0; c < num_classes; ++c) {
    std::vector<std::size_t> members;
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (labels[i] == static_cast<int>(c)) members.push_back(i);
    }
    rng.shuffle(members);
    for (std::size_t m = 0; m < members.size(); ++m) {
      folds[members[m]] =
          static_cast<int>((start + m) % static_cast<std::size_t>(k));
    }
    start = (start + members.size()) % static_cast<std::size_t>(k);
  }
  return folds;
}

std::vector<std::size_t> rows_in_fold(const std::vector<int>& folds, int fold,
                                      bool in_fold) {
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < folds.size(); ++i) {
    if ((folds[i] == fold) == in_fold) rows.push_back(i);
  }
  return rows;
}

CvResult cross_validate(
    const Dataset& data, int k,
    const std::function<std::unique_ptr<Classifier>()>& factory, Rng& rng,
    const TrainTransform& transform, std::vector<int>* out_predictions,
    const CvOptions& options) {
  CvResult result;
  result.pooled = ConfusionMatrix(data.num_classes());
  if (out_predictions) out_predictions->assign(data.num_instances(), -1);
  const auto folds = stratified_folds(data, k, rng);
  // Per-fold RNG streams drawn up front: each fold's transform sees the
  // same stream whether folds run serially or on any number of workers.
  std::vector<Rng> fold_rngs;
  fold_rngs.reserve(static_cast<std::size_t>(k));
  for (int f = 0; f < k; ++f) fold_rngs.push_back(rng.split());

  result.folds.resize(static_cast<std::size_t>(k));
  const auto run_fold = [&](std::size_t fi) {
    const int f = static_cast<int>(fi);
    obs::ScopedSpan fold_span(obs::global_tracer(), "cv.fold",
                              std::to_string(f), "ml");
    FoldResult& fold_result = result.folds[fi];
    fold_result.confusion = ConfusionMatrix(data.num_classes());
    Dataset train = data.subset(rows_in_fold(folds, f, false));
    const auto test_rows = rows_in_fold(folds, f, true);
    const Dataset test = data.subset(test_rows);
    if (transform) {
      Stopwatch transform_watch;
      train = transform(train, fold_rngs[fi]);
      fold_result.transform_seconds = transform_watch.elapsed_seconds();
    }

    auto classifier = factory();
    Stopwatch train_watch;
    classifier->train(train);
    fold_result.train_seconds = train_watch.elapsed_seconds();

    Stopwatch test_watch;
    const std::vector<int> predicted = classifier->predict_batch(test);
    for (std::size_t i = 0; i < test.num_instances(); ++i) {
      fold_result.confusion.add(test.label(i), predicted[i]);
      // Test rows are disjoint across folds, so parallel folds write
      // disjoint slots.
      if (out_predictions) (*out_predictions)[test_rows[i]] = predicted[i];
    }
    fold_result.test_seconds = test_watch.elapsed_seconds();
    fold_span.arg("transform_seconds", fold_result.transform_seconds);
    fold_span.arg("train_seconds", fold_result.train_seconds);
    fold_span.arg("test_seconds", fold_result.test_seconds);
  };

  const std::size_t fold_threads = options.exec.threads_per_worker;
  if (fold_threads > 1 && k > 1) {
    ThreadPool pool(fold_threads);
    pool.parallel_for(static_cast<std::size_t>(k), run_fold);
  } else {
    for (std::size_t fi = 0; fi < static_cast<std::size_t>(k); ++fi) {
      run_fold(fi);
    }
  }

  // Reduce in fold order after the barrier: totals and the pooled matrix
  // come out identical for every thread count.
  for (const FoldResult& fold_result : result.folds) {
    result.pooled.merge(fold_result.confusion);
    result.total_train_seconds += fold_result.train_seconds;
    result.total_test_seconds += fold_result.test_seconds;
    result.total_transform_seconds += fold_result.transform_seconds;
  }
  return result;
}

}  // namespace ml
}  // namespace drapid
