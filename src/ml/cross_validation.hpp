// Stratified k-fold cross-validation (the paper's evaluation protocol).
//
// The paper divides each benchmark into six folds — one reserved for feature
// selection, the other five for 5-fold cross-validation (§6.2). Folds are
// stratified so each preserves the class distribution, which matters at the
// paper's 0.05 % positive rate.
//
// Folds are independent, so cross_validate can run them on a work-stealing
// thread pool (CvOptions::exec). Results are identical for every thread
// count: fold membership and each fold's transform RNG stream are drawn up
// front, folds write only fold-local state, and totals are reduced in fold
// order after all folds complete.
#pragma once

#include <cstdint>
#include <functional>

#include "ml/classifier.hpp"
#include "ml/eval.hpp"
#include "util/exec_policy.hpp"
#include "util/rng.hpp"

namespace drapid {
namespace ml {

/// Assigns every instance a fold in [0, k), stratified by class. The
/// starting fold rotates across classes, so the odd remainder members of
/// successive classes land on different folds instead of all piling onto
/// fold 0 (which systematically inflated fold 0 — and deflated fold k-1 —
/// on every class whose size is not a multiple of k).
std::vector<int> stratified_folds(const Dataset& data, int k, Rng& rng);

/// Same, over a bare label vector with `num_classes` classes — lets callers
/// stratify on a different label space than the dataset's (e.g. the binary
/// collapse, so fold membership stays identical across ALM schemes).
std::vector<int> stratified_folds(const std::vector<int>& labels,
                                  std::size_t num_classes, int k, Rng& rng);

/// Row indices belonging (or not) to fold `fold`.
std::vector<std::size_t> rows_in_fold(const std::vector<int>& folds, int fold,
                                      bool in_fold);

struct FoldResult {
  ConfusionMatrix confusion{1};
  double train_seconds = 0.0;
  double test_seconds = 0.0;
  /// Time spent in the TrainTransform hook (SMOTE), separated from training
  /// proper so imbalance-treatment cost is visible on its own.
  double transform_seconds = 0.0;
};

struct CvResult {
  std::vector<FoldResult> folds;
  /// Confusion across all folds.
  ConfusionMatrix pooled{1};
  double total_train_seconds = 0.0;
  double total_test_seconds = 0.0;
  double total_transform_seconds = 0.0;

  BinaryScores pooled_binary() const {
    return pooled.collapse_nonzero_positive();
  }
};

/// Optional hook applied to each training fold before fitting (the SMOTE
/// path); receives the fold dataset plus a fold-local RNG stream (drawn up
/// front from the CV RNG, so results do not depend on fold execution order)
/// and must return the dataset to train on.
using TrainTransform = std::function<Dataset(const Dataset&, Rng&)>;

struct CvOptions {
  /// Execution policy for fold evaluation. Folds always run in-process, so
  /// only threads_per_worker matters here (1 = serial); any value yields
  /// byte-identical results.
  ExecPolicy exec;
};

/// Runs k-fold CV with a fresh classifier per fold from `factory`; fold
/// scoring uses the classifier's batched predict path.
/// `out_predictions`, if non-null, receives each instance's predicted class
/// (every row is tested exactly once across the k folds) — the RQ4 analysis
/// of hard-to-classify instances builds on this.
CvResult cross_validate(const Dataset& data, int k,
                        const std::function<std::unique_ptr<Classifier>()>& factory,
                        Rng& rng, const TrainTransform& transform = nullptr,
                        std::vector<int>* out_predictions = nullptr,
                        const CvOptions& options = {});

}  // namespace ml
}  // namespace drapid
