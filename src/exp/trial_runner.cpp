#include "exp/trial_runner.hpp"

#include "ml/smote.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace drapid {

std::string TrialSpec::describe() const {
  std::string s = ml::learner_name(learner);
  s += " scheme=" + ml::alm_scheme_name(scheme);
  s += " fs=" + (filter ? ml::filter_abbreviation(*filter)
                        : std::string("None"));
  if (smote) s += " smote";
  return s;
}

TrialResult run_trial(const std::vector<LabeledPulse>& pulses,
                      const TrialSpec& spec) {
  TrialResult result;
  result.spec = spec;
  // One span per scheme×filter×learner×fold-seed combination; the cv.fold
  // spans recorded by ml::cross_validate nest inside it.
  obs::ScopedSpan trial_span(obs::global_tracer(), "trial", spec.describe(),
                             "exp");
  const ml::Dataset full = make_alm_dataset(pulses, spec.scheme);

  // Six stratified folds: fold 0 feeds feature selection, folds 1–5 the CV.
  // Stratification uses the *binary* collapse so the same instances land in
  // the same folds under every ALM scheme (required for the RQ4 analysis).
  Rng fold_rng(spec.seed);
  std::vector<int> binary_labels(full.num_instances());
  for (std::size_t i = 0; i < full.num_instances(); ++i) {
    binary_labels[i] = full.label(i) != 0 ? 1 : 0;
  }
  const auto folds = ml::stratified_folds(binary_labels, 2, 6, fold_rng);
  const ml::Dataset fs_data = full.subset(ml::rows_in_fold(folds, 0, true));
  ml::Dataset cv_data = full.subset(ml::rows_in_fold(folds, 0, false));
  if (spec.filter) {
    const auto top = ml::top_k_features(fs_data, *spec.filter, spec.top_k);
    cv_data = cv_data.select_features(top);
  }

  Rng cv_rng(spec.seed ^ 0x5f0f1e2d3c4b5a69ULL);
  ml::TrainTransform transform;
  if (spec.smote) {
    // SMOTE randomness comes from the fold's own stream (drawn up front by
    // cross_validate), so fold results don't depend on execution order.
    transform = [](const ml::Dataset& train, Rng& fold_rng) {
      return ml::apply_smote(train, ml::SmoteParams{}, fold_rng);
    };
  }
  std::vector<int> predictions;
  ml::CvOptions cv_options;
  cv_options.exec = ExecPolicy::local(spec.cv_threads);
  const auto cv = ml::cross_validate(
      cv_data, 5,
      [&spec] { return ml::make_classifier(spec.learner, spec.seed); },
      cv_rng, transform, &predictions, cv_options);

  const auto pooled = cv.pooled_binary();
  result.recall = pooled.recall();
  result.precision = pooled.precision();
  result.f_measure = pooled.f_measure();
  result.train_seconds = cv.total_train_seconds;
  result.test_seconds = cv.total_test_seconds;
  result.transform_seconds = cv.total_transform_seconds;
  for (const auto& fold : cv.folds) {
    result.fold_train_seconds.push_back(fold.train_seconds);
    result.fold_test_seconds.push_back(fold.test_seconds);
    const auto scores = fold.confusion.collapse_nonzero_positive();
    result.fold_recalls.push_back(scores.recall());
    result.fold_f_measures.push_back(scores.f_measure());
  }
  trial_span.arg("recall", result.recall);
  trial_span.arg("f_measure", result.f_measure);
  trial_span.arg("train_seconds", result.train_seconds);
  trial_span.arg("test_seconds", result.test_seconds);
  result.cv_labels = cv_data.labels();
  result.correct.resize(predictions.size());
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    // Collapsed correctness: positive instances count as correct when
    // predicted as *any* positive class (§5.2.4 comparison convention).
    const bool actual_positive = cv_data.label(i) != 0;
    const bool predicted_positive = predictions[i] != 0;
    result.correct[i] = actual_positive == predicted_positive;
  }
  return result;
}

}  // namespace drapid
