// Byte-identity tests for the presorted-column tree rewrite and the
// fold-parallel cross-validation, plus regression tests for the PR's
// satellite bugfixes (stratified fold rotation, SMOTE majority guard,
// transform timing, dataset views).
//
// `ReferenceTree` below is a frozen copy of the seed implementation's
// training loop (per-node row copies, std::sort per feature per node). The
// production DecisionTree must reproduce its trees *byte for byte* — same
// node array, same thresholds, same split-evaluation count — on adversarial
// inputs: heavily duplicated feature values, equal-gain ties under shuffled
// candidate order, and min_leaf boundary sizes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include "ml/cross_validation.hpp"
#include "ml/random_forest.hpp"
#include "ml/smote.hpp"
#include "ml/tree.hpp"
#include "util/rng.hpp"

namespace drapid {
namespace ml {
namespace {

// ---------------------------------------------------------------------------
// Frozen seed implementation (reference).
// ---------------------------------------------------------------------------

class ReferenceTree {
 public:
  using Node = DecisionTree::Node;

  explicit ReferenceTree(TreeParams params, std::uint64_t seed)
      : params_(params), seed_(seed) {}

  void train(const Dataset& data) {
    nodes_.clear();
    depth_ = 0;
    split_evaluations_ = 0;
    std::vector<std::size_t> rows(data.num_instances());
    std::iota(rows.begin(), rows.end(), std::size_t{0});
    Rng rng(seed_);
    root_ = build(data, rows, 0, rng);
  }

  const std::vector<Node>& nodes() const { return nodes_; }
  int root() const { return root_; }
  int depth() const { return depth_; }
  std::size_t split_evaluations() const { return split_evaluations_; }

 private:
  static double entropy(const std::vector<std::size_t>& counts,
                        std::size_t total) {
    if (total == 0) return 0.0;
    double h = 0.0;
    for (std::size_t c : counts) {
      if (c == 0) continue;
      const double p = static_cast<double>(c) / static_cast<double>(total);
      h -= p * std::log2(p);
    }
    return h;
  }

  int build(const Dataset& data, std::vector<std::size_t>& rows, int depth,
            Rng& rng) {
    depth_ = std::max(depth_, depth);
    std::vector<std::size_t> counts(data.num_classes(), 0);
    for (std::size_t r : rows) {
      ++counts[static_cast<std::size_t>(data.label(r))];
    }
    const std::size_t n = rows.size();
    const int node_index = static_cast<int>(nodes_.size());
    nodes_.push_back(Node{});
    nodes_.back().label = static_cast<int>(
        std::max_element(counts.begin(), counts.end()) - counts.begin());

    const bool pure = *std::max_element(counts.begin(), counts.end()) == n;
    if (pure || depth >= params_.max_depth || n < 2 * params_.min_leaf) {
      return node_index;
    }

    std::vector<std::size_t> features(data.num_features());
    std::iota(features.begin(), features.end(), std::size_t{0});
    if (params_.features_per_split > 0 &&
        params_.features_per_split < features.size()) {
      rng.shuffle(features);
      features.resize(params_.features_per_split);
    }

    const double parent_entropy = entropy(counts, n);
    int best_feature = -1;
    double best_threshold = 0.0;
    double best_score = 0.0;
    std::vector<std::pair<double, int>> sorted;
    sorted.reserve(n);
    std::vector<std::size_t> left_counts(data.num_classes());
    for (std::size_t f : features) {
      sorted.clear();
      for (std::size_t r : rows) {
        sorted.emplace_back(data.instance(r)[f], data.label(r));
      }
      std::sort(sorted.begin(), sorted.end());
      std::fill(left_counts.begin(), left_counts.end(), 0);
      for (std::size_t i = 0; i + 1 < n; ++i) {
        ++left_counts[static_cast<std::size_t>(sorted[i].second)];
        if (sorted[i].first == sorted[i + 1].first) continue;
        const std::size_t nl = i + 1;
        const std::size_t nr = n - nl;
        if (nl < params_.min_leaf || nr < params_.min_leaf) continue;
        ++split_evaluations_;
        double hl = 0.0, hr = 0.0;
        {
          double h = 0.0;
          for (std::size_t c = 0; c < counts.size(); ++c) {
            const std::size_t lc = left_counts[c];
            if (lc) {
              const double p =
                  static_cast<double>(lc) / static_cast<double>(nl);
              h -= p * std::log2(p);
            }
          }
          hl = h;
          h = 0.0;
          for (std::size_t c = 0; c < counts.size(); ++c) {
            const std::size_t rc = counts[c] - left_counts[c];
            if (rc) {
              const double p =
                  static_cast<double>(rc) / static_cast<double>(nr);
              h -= p * std::log2(p);
            }
          }
          hr = h;
        }
        const double dn = static_cast<double>(n);
        double gain = parent_entropy - (static_cast<double>(nl) / dn) * hl -
                      (static_cast<double>(nr) / dn) * hr;
        if (params_.use_gain_ratio) {
          const double pl = static_cast<double>(nl) / dn;
          const double split_info =
              -pl * std::log2(pl) - (1.0 - pl) * std::log2(1.0 - pl);
          gain = split_info > 1e-12 ? gain / split_info : 0.0;
        }
        if (gain > best_score) {
          best_score = gain;
          best_feature = static_cast<int>(f);
          best_threshold = 0.5 * (sorted[i].first + sorted[i + 1].first);
        }
      }
    }

    if (best_feature < 0 || best_score < params_.min_gain) {
      return node_index;
    }

    std::vector<std::size_t> left_rows, right_rows;
    for (std::size_t r : rows) {
      const double v = data.instance(r)[static_cast<std::size_t>(best_feature)];
      (v <= best_threshold ? left_rows : right_rows).push_back(r);
    }
    if (left_rows.empty() || right_rows.empty()) {
      return node_index;
    }
    rows.clear();
    rows.shrink_to_fit();

    nodes_[static_cast<std::size_t>(node_index)].feature = best_feature;
    nodes_[static_cast<std::size_t>(node_index)].threshold = best_threshold;
    const int left = build(data, left_rows, depth + 1, rng);
    nodes_[static_cast<std::size_t>(node_index)].left = left;
    const int right = build(data, right_rows, depth + 1, rng);
    nodes_[static_cast<std::size_t>(node_index)].right = right;
    return node_index;
  }

  TreeParams params_;
  std::uint64_t seed_;
  std::vector<Node> nodes_;
  int root_ = -1;
  int depth_ = 0;
  std::size_t split_evaluations_ = 0;
};

// Bitwise equality — EXPECT_DOUBLE_EQ would accept 4-ulp drift, which is
// exactly what these tests exist to rule out.
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_identical(const DecisionTree& got, const ReferenceTree& want,
                      const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(got.root(), want.root());
  EXPECT_EQ(got.depth(), want.depth());
  EXPECT_EQ(got.split_evaluations(), want.split_evaluations());
  ASSERT_EQ(got.nodes().size(), want.nodes().size());
  for (std::size_t i = 0; i < got.nodes().size(); ++i) {
    SCOPED_TRACE("node " + std::to_string(i));
    const auto& g = got.nodes()[i];
    const auto& w = want.nodes()[i];
    EXPECT_EQ(g.feature, w.feature);
    EXPECT_TRUE(same_bits(g.threshold, w.threshold))
        << g.threshold << " vs " << w.threshold;
    EXPECT_EQ(g.left, w.left);
    EXPECT_EQ(g.right, w.right);
    EXPECT_EQ(g.label, w.label);
  }
}

/// Gaussian class blobs with every value quantized to a coarse grid:
/// `levels` distinct values per feature forces long duplicate runs and
/// frequent equal-gain ties between features.
Dataset quantized_blobs(std::size_t n, std::size_t num_features,
                        std::size_t num_classes, int levels,
                        std::uint64_t seed) {
  std::vector<std::string> feature_names;
  for (std::size_t f = 0; f < num_features; ++f) {
    feature_names.push_back("f" + std::to_string(f));
  }
  std::vector<std::string> class_names;
  for (std::size_t c = 0; c < num_classes; ++c) {
    class_names.push_back("c" + std::to_string(c));
  }
  Dataset d(std::move(feature_names), std::move(class_names));
  Rng rng(seed);
  std::vector<double> x(num_features);
  for (std::size_t i = 0; i < n; ++i) {
    const int label = static_cast<int>(rng.below(num_classes));
    for (std::size_t f = 0; f < num_features; ++f) {
      const double raw = rng.normal(static_cast<double>(label), 1.5);
      x[f] = std::floor(raw * levels) / levels;
    }
    d.add(x, label);
  }
  return d;
}

// ---------------------------------------------------------------------------
// Tentpole (a): presorted training is byte-identical to the seed algorithm.
// ---------------------------------------------------------------------------

TEST(PresortedTree, J48MatchesReferenceOnDuplicateHeavyData) {
  // Coarse quantization (2–8 levels) makes duplicate runs and boundary ties
  // the common case rather than the exception.
  for (int levels : {2, 3, 8}) {
    for (std::size_t classes : {2u, 5u}) {
      const Dataset d = quantized_blobs(240, 6, classes, levels, 77);
      TreeParams params;  // J48 defaults: gain ratio, all features
      DecisionTree tree(params, 1);
      tree.train(d);
      ReferenceTree ref(params, 1);
      ref.train(d);
      expect_identical(tree, ref,
                       "levels=" + std::to_string(levels) +
                           " classes=" + std::to_string(classes));
    }
  }
}

TEST(PresortedTree, RandomTreeMatchesReferenceAcrossSeeds) {
  // features_per_split consumes the RNG (shuffle + resize) at every
  // splittable node; equality across seeds proves the rewrite draws the
  // stream at the same points and honours the shuffled candidate order in
  // the equal-gain tie-break.
  const Dataset d = quantized_blobs(300, 8, 3, 4, 31);
  TreeParams params;
  params.use_gain_ratio = false;  // plain IG (RandomTree behaviour)
  params.min_leaf = 1;
  params.features_per_split = 3;
  for (std::uint64_t seed : {1ull, 2ull, 9ull, 1234567ull}) {
    DecisionTree tree(params, seed);
    tree.train(d);
    ReferenceTree ref(params, seed);
    ref.train(d);
    expect_identical(tree, ref, "seed=" + std::to_string(seed));
  }
}

TEST(PresortedTree, MinLeafBoundariesMatchReference) {
  // Sizes straddling 2*min_leaf exercise the n < 2*min_leaf leaf check and
  // the per-candidate nl/nr >= min_leaf guards at their boundaries.
  for (std::size_t min_leaf : {1u, 2u, 5u, 20u}) {
    for (std::size_t n : {2 * min_leaf - 1, 2 * min_leaf, 2 * min_leaf + 3,
                          std::size_t{41}}) {
      if (n == 0) continue;
      const Dataset d = quantized_blobs(n, 3, 2, 3, 5 + min_leaf);
      TreeParams params;
      params.min_leaf = min_leaf;
      DecisionTree tree(params, 3);
      tree.train(d);
      ReferenceTree ref(params, 3);
      ref.train(d);
      expect_identical(tree, ref, "min_leaf=" + std::to_string(min_leaf) +
                                      " n=" + std::to_string(n));
    }
  }
}

TEST(PresortedTree, MaxDepthAndMinGainMatchReference) {
  const Dataset d = quantized_blobs(200, 5, 4, 4, 99);
  for (int max_depth : {1, 2, 4}) {
    TreeParams params;
    params.max_depth = max_depth;
    DecisionTree tree(params, 7);
    tree.train(d);
    ReferenceTree ref(params, 7);
    ref.train(d);
    expect_identical(tree, ref, "max_depth=" + std::to_string(max_depth));
  }
  TreeParams params;
  params.min_gain = 0.2;  // prunes most candidate splits
  DecisionTree tree(params, 7);
  tree.train(d);
  ReferenceTree ref(params, 7);
  ref.train(d);
  expect_identical(tree, ref, "min_gain=0.2");
}

TEST(PresortedTree, ConstantFeaturesAndSingleRowMatchReference) {
  // All-constant features: no candidate boundary anywhere, root stays leaf.
  Dataset d({"a", "b"}, {"x", "y"});
  for (int i = 0; i < 10; ++i) {
    d.add(std::vector<double>{1.0, 2.0}, i % 2);
  }
  TreeParams params;
  DecisionTree tree(params, 1);
  tree.train(d);
  ReferenceTree ref(params, 1);
  ref.train(d);
  expect_identical(tree, ref, "constant features");

  Dataset single({"a"}, {"x", "y"});
  single.add(std::vector<double>{0.5}, 1);
  DecisionTree tree1(params, 1);
  tree1.train(single);
  ReferenceTree ref1(params, 1);
  ref1.train(single);
  expect_identical(tree1, ref1, "single row");
}

TEST(PresortedTree, TrainBootstrapMatchesMaterializedSubset) {
  // train_bootstrap compresses the sample to (distinct row, multiplicity)
  // weights; it must still produce the tree of a plain train() over the
  // materialized duplicate-bearing subset.
  const Dataset d = quantized_blobs(150, 5, 3, 4, 13);
  const PresortedColumns presorted(d);
  Rng sample_rng(21);
  for (int round = 0; round < 3; ++round) {
    std::vector<std::size_t> sample(d.num_instances());
    for (auto& s : sample) s = sample_rng.below(d.num_instances());
    TreeParams params;
    params.use_gain_ratio = false;
    params.min_leaf = 1;
    params.features_per_split = 2;
    DecisionTree fast(params, 5);
    fast.train_bootstrap(d, presorted, sample);
    ReferenceTree ref(params, 5);
    ref.train(d.subset(sample));
    expect_identical(fast, ref, "bootstrap round " + std::to_string(round));
  }
}

TEST(PresortedTree, TrainingOnViewMatchesReference) {
  // Dataset views (the CV fold representation) must feed training the same
  // bytes as a materialized copy would.
  const Dataset full = quantized_blobs(200, 4, 2, 3, 57);
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < full.num_instances(); i += 2) rows.push_back(i);
  const Dataset view = full.subset(rows);
  ASSERT_TRUE(view.is_view());
  TreeParams params;
  DecisionTree tree(params, 11);
  tree.train(view);
  ReferenceTree ref(params, 11);
  ref.train(view);
  expect_identical(tree, ref, "view training");
}

TEST(PresortedTree, PredictBatchMatchesPredict) {
  const Dataset train = quantized_blobs(200, 5, 3, 4, 3);
  const Dataset test = quantized_blobs(80, 5, 3, 4, 4);
  DecisionTree tree(TreeParams{}, 1);
  tree.train(train);
  const auto batch = tree.predict_batch(test);
  ASSERT_EQ(batch.size(), test.num_instances());
  for (std::size_t i = 0; i < test.num_instances(); ++i) {
    EXPECT_EQ(batch[i], tree.predict(test.instance(i)));
  }

  RandomForest forest(ForestParams{}, 1);
  forest.train(train);
  const auto forest_batch = forest.predict_batch(test);
  ASSERT_EQ(forest_batch.size(), test.num_instances());
  for (std::size_t i = 0; i < test.num_instances(); ++i) {
    EXPECT_EQ(forest_batch[i], forest.predict(test.instance(i)));
  }
}

// ---------------------------------------------------------------------------
// Tentpole (b): fold-parallel CV is byte-identical for every thread count.
// ---------------------------------------------------------------------------

TEST(FoldParallelCv, IdenticalResultsForOneTwoAndEightThreads) {
  const Dataset d = quantized_blobs(260, 5, 2, 4, 101);
  const auto run = [&](std::size_t threads) {
    Rng rng(17);
    std::vector<int> predictions;
    const auto result = cross_validate(
        d, 5, [] { return std::make_unique<DecisionTree>(TreeParams{}, 1); },
        rng,
        // A transform drawing from the fold stream: catches any
        // thread-count-dependent RNG routing.
        [](const Dataset& train, Rng& fold_rng) {
          return apply_smote(train, SmoteParams{}, fold_rng);
        },
        &predictions, CvOptions{.exec = ExecPolicy::local(threads)});
    return std::make_pair(result, predictions);
  };

  const auto [serial, serial_pred] = run(1);
  for (std::size_t threads : {2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto [parallel, parallel_pred] = run(threads);
    EXPECT_EQ(parallel_pred, serial_pred);
    ASSERT_EQ(parallel.folds.size(), serial.folds.size());
    for (std::size_t f = 0; f < serial.folds.size(); ++f) {
      for (std::size_t a = 0; a < d.num_classes(); ++a) {
        for (std::size_t p = 0; p < d.num_classes(); ++p) {
          EXPECT_EQ(parallel.folds[f].confusion.count(static_cast<int>(a),
                                                      static_cast<int>(p)),
                    serial.folds[f].confusion.count(static_cast<int>(a),
                                                    static_cast<int>(p)))
              << "fold " << f << " cell (" << a << "," << p << ")";
        }
      }
    }
    EXPECT_EQ(parallel.pooled.total(), serial.pooled.total());
    EXPECT_EQ(parallel.pooled_binary().tp, serial.pooled_binary().tp);
    EXPECT_EQ(parallel.pooled_binary().fp, serial.pooled_binary().fp);
  }
}

TEST(FoldParallelCv, TimingFieldsArePopulated) {
  const Dataset d = quantized_blobs(150, 4, 2, 4, 7);
  Rng rng(3);
  const auto result = cross_validate(
      d, 3, [] { return std::make_unique<DecisionTree>(); }, rng,
      [](const Dataset& train, Rng&) { return train; });
  double train_sum = 0.0, test_sum = 0.0, transform_sum = 0.0;
  for (const auto& fold : result.folds) {
    EXPECT_GE(fold.train_seconds, 0.0);
    EXPECT_GE(fold.test_seconds, 0.0);
    EXPECT_GE(fold.transform_seconds, 0.0);
    train_sum += fold.train_seconds;
    test_sum += fold.test_seconds;
    transform_sum += fold.transform_seconds;
  }
  EXPECT_DOUBLE_EQ(result.total_train_seconds, train_sum);
  EXPECT_DOUBLE_EQ(result.total_test_seconds, test_sum);
  EXPECT_DOUBLE_EQ(result.total_transform_seconds, transform_sum);
}

TEST(FoldParallelCv, NoTransformMeansZeroTransformSeconds) {
  const Dataset d = quantized_blobs(120, 3, 2, 4, 9);
  Rng rng(5);
  const auto result =
      cross_validate(d, 3, [] { return std::make_unique<DecisionTree>(); },
                     rng);
  EXPECT_DOUBLE_EQ(result.total_transform_seconds, 0.0);
  for (const auto& fold : result.folds) {
    EXPECT_DOUBLE_EQ(fold.transform_seconds, 0.0);
  }
}

// ---------------------------------------------------------------------------
// Satellite 1: stratified fold sizes under per-class remainders.
// ---------------------------------------------------------------------------

TEST(StratifiedFolds, RemainderClassesSpreadAcrossFolds) {
  // Five classes of 7 instances over k=5: every class has remainder 2.
  // Before the rotation fix all remainders landed on folds 0–1, giving fold
  // sizes {10,10,5,5,5}; rotation restores |fold| ∈ {⌊n/k⌋, ⌈n/k⌉} = {7}.
  const int k = 5;
  std::vector<int> labels;
  for (int c = 0; c < 5; ++c) {
    for (int i = 0; i < 7; ++i) labels.push_back(c);
  }
  Rng rng(1);
  const auto folds = stratified_folds(labels, 5, k, rng);
  const std::size_t n = labels.size();
  for (int f = 0; f < k; ++f) {
    const auto rows = rows_in_fold(folds, f, true);
    EXPECT_GE(rows.size(), n / k) << "fold " << f;
    EXPECT_LE(rows.size(), n / k + 1) << "fold " << f;
    // Per-class spread within one member: the stratification guarantee.
    std::vector<std::size_t> per_class(5, 0);
    for (auto r : rows) ++per_class[static_cast<std::size_t>(labels[r])];
    for (std::size_t c = 0; c < 5; ++c) {
      EXPECT_GE(per_class[c], 7u / k) << "fold " << f << " class " << c;
      EXPECT_LE(per_class[c], 7u / k + 1) << "fold " << f << " class " << c;
    }
  }
}

TEST(StratifiedFolds, ManyRemainderClassesKeepFoldSizesTight) {
  // 13 classes of 11 instances, k=4 (remainder 3 per class): the worst case
  // for the old dealing, which put 13 extra members on each of folds 0–2
  // and none on fold 3. Fold sizes must stay within one of each other.
  const int k = 4;
  std::vector<int> labels;
  for (int c = 0; c < 13; ++c) {
    for (int i = 0; i < 11; ++i) labels.push_back(c);
  }
  Rng rng(42);
  const auto folds = stratified_folds(labels, 13, k, rng);
  std::vector<std::size_t> sizes(k, 0);
  for (int f : folds) ++sizes[static_cast<std::size_t>(f)];
  const auto [lo, hi] = std::minmax_element(sizes.begin(), sizes.end());
  EXPECT_LE(*hi - *lo, 1u) << "fold sizes must differ by at most one";
}

// ---------------------------------------------------------------------------
// Satellite 4: SMOTE majority guard and neighbour caching.
// ---------------------------------------------------------------------------

TEST(Smote, TargetRatioAboveOneLeavesMajorityAlone) {
  // target_ratio > 1 pushes the target above the majority size; the
  // majority class must not be oversampled toward its own inflated target.
  Dataset d({"x", "y"}, {"neg", "pos"});
  Rng data_rng(11);
  for (int i = 0; i < 100; ++i) {
    d.add(std::vector<double>{data_rng.normal(0, 1), data_rng.normal(0, 1)},
          0);
  }
  for (int i = 0; i < 10; ++i) {
    d.add(std::vector<double>{data_rng.normal(4, 0.5),
                              data_rng.normal(4, 0.5)},
          1);
  }
  SmoteParams params;
  params.target_ratio = 1.5;
  Rng rng(6);
  const Dataset out = apply_smote(d, params, rng);
  const auto counts = out.class_counts();
  EXPECT_EQ(counts[0], 100u) << "majority class must stay untouched";
  EXPECT_EQ(counts[1], 150u);  // ceil(1.5 * 100)
}

TEST(Smote, CachedNeighboursStillInterpolateWithinClass) {
  // Every synthetic point lies on a segment between two same-class members,
  // so it stays inside the class's bounding box — true only if the cached
  // neighbour lists belong to the right member.
  Dataset d({"x"}, {"neg", "pos"});
  Rng data_rng(23);
  for (int i = 0; i < 60; ++i) {
    d.add(std::vector<double>{data_rng.normal(0, 1)}, 0);
  }
  std::vector<double> pos_values;
  for (int i = 0; i < 6; ++i) {
    const double v = 10.0 + data_rng.uniform();
    pos_values.push_back(v);
    d.add(std::vector<double>{v}, 1);
  }
  const auto [lo, hi] =
      std::minmax_element(pos_values.begin(), pos_values.end());
  Rng rng(8);
  const Dataset out = apply_smote(d, {}, rng);
  EXPECT_EQ(out.class_counts()[1], 60u);
  for (std::size_t i = d.num_instances(); i < out.num_instances(); ++i) {
    ASSERT_EQ(out.label(i), 1);
    EXPECT_GE(out.instance(i)[0], *lo);
    EXPECT_LE(out.instance(i)[0], *hi);
  }
}

// ---------------------------------------------------------------------------
// Dataset views (the fold representation the parallel CV relies on).
// ---------------------------------------------------------------------------

TEST(DatasetViews, SubsetIsAViewAndComposesMappings) {
  const Dataset full = quantized_blobs(40, 2, 2, 4, 19);
  const Dataset view = full.subset({5, 1, 9, 30, 2});
  EXPECT_TRUE(view.is_view());
  EXPECT_FALSE(full.is_view());
  ASSERT_EQ(view.num_instances(), 5u);
  EXPECT_EQ(view.label(0), full.label(5));
  EXPECT_TRUE(same_bits(view.instance(3)[1], full.instance(30)[1]));

  const Dataset nested = view.subset({4, 0});
  ASSERT_EQ(nested.num_instances(), 2u);
  EXPECT_EQ(nested.label(0), full.label(2));
  EXPECT_EQ(nested.label(1), full.label(5));

  const Dataset empty = view.subset({});
  EXPECT_EQ(empty.num_instances(), 0u);
  EXPECT_TRUE(empty.labels().empty());
}

TEST(DatasetViews, AddCopiesOnWriteWithoutDisturbingTheOriginal) {
  Dataset full = quantized_blobs(20, 2, 2, 4, 29);
  Dataset view = full.subset({3, 7});
  const int label3 = full.label(3);
  view.add(std::vector<double>{1.0, 2.0}, 1);  // materializes the view
  EXPECT_FALSE(view.is_view());
  ASSERT_EQ(view.num_instances(), 3u);
  EXPECT_EQ(view.label(0), label3);
  EXPECT_EQ(view.label(2), 1);
  // Original unchanged.
  EXPECT_EQ(full.num_instances(), 20u);
  EXPECT_EQ(full.label(3), label3);

  // Shared (non-view) copies also detach on write.
  Dataset copy = full;
  copy.add(std::vector<double>{0.0, 0.0}, 0);
  EXPECT_EQ(copy.num_instances(), 21u);
  EXPECT_EQ(full.num_instances(), 20u);
}

}  // namespace
}  // namespace ml
}  // namespace drapid
