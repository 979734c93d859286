#include "dataflow/rdd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

#include "util/rng.hpp"

namespace drapid {
namespace {

using StrPair = std::pair<std::string, std::string>;

EngineConfig test_config(std::size_t executors = 4) {
  EngineConfig cfg;
  cfg.num_executors = executors;
  cfg.cores_per_executor = 2;
  cfg.exec.threads_per_worker = 2;
  cfg.partitions_per_core = 2;
  return cfg;
}

std::vector<StrPair> sample_pairs(std::size_t n, std::size_t distinct_keys) {
  std::vector<StrPair> pairs;
  for (std::size_t i = 0; i < n; ++i) {
    pairs.emplace_back("key" + std::to_string(i % distinct_keys),
                       "value" + std::to_string(i));
  }
  return pairs;
}

template <typename K, typename V>
std::multiset<std::pair<K, V>> as_multiset(const Rdd<K, V>& rdd) {
  const auto all = rdd.collect();
  return {all.begin(), all.end()};
}

TEST(StableHash, DeterministicAndSpread) {
  EXPECT_EQ(stable_hash(std::string("abc")), stable_hash(std::string("abc")));
  EXPECT_NE(stable_hash(std::string("abc")), stable_hash(std::string("abd")));
  EXPECT_EQ(stable_hash(42), stable_hash(42));
  EXPECT_NE(stable_hash(42), stable_hash(43));
}

TEST(HashPartitioner, SameSpecSameLayout) {
  HashPartitioner a{8};
  HashPartitioner b{8};
  HashPartitioner c{16};
  EXPECT_EQ(a.id(), b.id());
  EXPECT_NE(a.id(), c.id());
  EXPECT_NE(a.id(), 0u);
  for (int i = 0; i < 100; ++i) {
    const std::string key = "k" + std::to_string(i);
    EXPECT_EQ(a.of(key), b.of(key));
    EXPECT_LT(a.of(key), 8u);
  }
}

TEST(Parallelize, PreservesAllPairsAcrossRequestedPartitions) {
  Engine engine(test_config());
  auto pairs = sample_pairs(100, 10);
  const auto expected = std::multiset<StrPair>(pairs.begin(), pairs.end());
  const auto rdd = parallelize(engine, std::move(pairs), 7);
  EXPECT_EQ(rdd.num_partitions(), 7u);
  EXPECT_EQ(rdd.size(), 100u);
  EXPECT_EQ(as_multiset(rdd), expected);
  EXPECT_EQ(rdd.partitioner_id, 0u);
}

TEST(MapValues, TransformsAndPreservesPartitioning) {
  Engine engine(test_config());
  auto rdd = parallelize(engine, sample_pairs(50, 5), 4);
  HashPartitioner part{4};
  auto partitioned = partition_by(engine, rdd, part);
  auto lengths = map_values(engine, partitioned, [](const std::string& v) {
    return v.size();
  });
  EXPECT_EQ(lengths.partitioner_id, part.id());
  EXPECT_EQ(lengths.size(), 50u);
  for (const auto& [k, len] : lengths.collect()) {
    EXPECT_GE(len, 6u);  // "valueN"
  }
}

TEST(MapPairs, KeyChangeDropsPartitioner) {
  Engine engine(test_config());
  HashPartitioner part{4};
  auto rdd = partition_by(engine, parallelize(engine, sample_pairs(20, 4), 4),
                          part);
  auto renamed = map_pairs(engine, rdd, [](const StrPair& kv) {
    return std::make_pair(kv.first + "x", kv.second);
  });
  EXPECT_EQ(renamed.partitioner_id, 0u);
}

TEST(Filter, KeepsOnlyMatchingPairs) {
  Engine engine(test_config());
  auto rdd = parallelize(engine, sample_pairs(100, 10), 5);
  auto filtered = filter_pairs(engine, rdd, [](const StrPair& kv) {
    return kv.first == "key3";
  });
  EXPECT_EQ(filtered.size(), 10u);
  for (const auto& [k, v] : filtered.collect()) EXPECT_EQ(k, "key3");
}

TEST(PartitionBy, EveryKeyLandsOnItsHashPartition) {
  Engine engine(test_config());
  HashPartitioner part{6};
  auto rdd = partition_by(engine, parallelize(engine, sample_pairs(200, 37), 3),
                          part);
  EXPECT_EQ(rdd.num_partitions(), 6u);
  EXPECT_EQ(rdd.partitioner_id, part.id());
  EXPECT_EQ(rdd.size(), 200u);
  for (std::size_t p = 0; p < rdd.num_partitions(); ++p) {
    for (const auto& [k, v] : rdd.partitions[p]) {
      EXPECT_EQ(part.of(k), p);
    }
  }
}

TEST(PartitionBy, RecordsShuffleBytes) {
  Engine engine(test_config(/*executors=*/4));
  auto rdd = parallelize(engine, sample_pairs(500, 97), 8);
  engine.reset_metrics();
  partition_by(engine, rdd, HashPartitioner{8});
  ASSERT_EQ(engine.metrics().stages.size(), 1u);
  // With 97 keys hashed across 8 partitions on 4 executors, most records
  // move between executors.
  EXPECT_GT(engine.metrics().total_shuffle_bytes(), 0u);
}

TEST(PartitionBy, RejectsAPartitionerWithNoPartitions) {
  Engine engine(test_config());
  const auto rdd = parallelize(engine, sample_pairs(50, 7), 4);
  EXPECT_THROW(partition_by(engine, rdd, HashPartitioner{0}),
               std::invalid_argument);
}

TEST(PartitionBy, TargetsConcatenateSourceRunsInSourceOrder) {
  // Target t holds source 0's records for t in their order, then source
  // 1's, and so on — the layout both backends assemble.
  Engine engine(test_config());
  const auto rdd = parallelize(engine, sample_pairs(300, 41), 5);
  const HashPartitioner part{3};
  const auto out = partition_by(engine, rdd, part);
  ASSERT_EQ(out.num_partitions(), 3u);
  std::vector<std::vector<StrPair>> expected(3);
  for (const auto& source : rdd.partitions) {
    for (const auto& kv : source) expected[part.of(kv.first)].push_back(kv);
  }
  for (std::size_t t = 0; t < 3; ++t) EXPECT_EQ(out.partitions[t], expected[t]);
}

TEST(AggregateByKey, CountsMatchReference) {
  Engine engine(test_config());
  auto pairs = sample_pairs(300, 23);
  std::map<std::string, std::size_t> expected;
  for (const auto& [k, v] : pairs) ++expected[k];
  auto rdd = parallelize(engine, std::move(pairs), 5);
  auto counts = aggregate_by_key(
      engine, rdd, std::size_t{0},
      [](std::size_t& agg, const std::string&) { ++agg; },
      [](std::size_t& agg, std::size_t&& other) { agg += other; },
      HashPartitioner{4});
  std::map<std::string, std::size_t> actual;
  for (const auto& [k, c] : counts.collect()) actual[k] = c;
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(counts.partitioner_id, HashPartitioner{4}.id());
}

TEST(AggregateByKey, GroupValuesMatchesReferenceRegardlessOfOrder) {
  Engine engine(test_config());
  auto pairs = sample_pairs(120, 11);
  std::map<std::string, std::multiset<std::string>> expected;
  for (const auto& [k, v] : pairs) expected[k].insert(v);
  auto rdd = parallelize(engine, std::move(pairs), 6);
  auto grouped = aggregate_by_key(
      engine, rdd, std::vector<std::string>{},
      [](std::vector<std::string>& agg, const std::string& v) {
        agg.push_back(v);
      },
      [](std::vector<std::string>& agg, std::vector<std::string>&& other) {
        agg.insert(agg.end(), std::make_move_iterator(other.begin()),
                   std::make_move_iterator(other.end()));
      },
      HashPartitioner{4});
  std::map<std::string, std::multiset<std::string>> actual;
  for (const auto& [k, vs] : grouped.collect()) {
    actual[k] = {vs.begin(), vs.end()};
  }
  EXPECT_EQ(actual, expected);
}

TEST(AggregateByKey, PrePartitionedInputNeedsNoShuffle) {
  Engine engine(test_config());
  HashPartitioner part{4};
  auto rdd = partition_by(engine, parallelize(engine, sample_pairs(200, 13), 4),
                          part);
  engine.reset_metrics();
  aggregate_by_key(
      engine, rdd, std::size_t{0},
      [](std::size_t& agg, const std::string&) { ++agg; },
      [](std::size_t& agg, std::size_t&& other) { agg += other; }, part);
  EXPECT_EQ(engine.metrics().total_shuffle_bytes(), 0u);
}

TEST(ReduceByKey, MaxPerKey) {
  Engine engine(test_config());
  std::vector<std::pair<std::string, int>> pairs;
  Rng rng(3);
  std::map<std::string, int> expected;
  for (int i = 0; i < 200; ++i) {
    const std::string k = "k" + std::to_string(i % 17);
    const int v = static_cast<int>(rng.below(1000));
    pairs.emplace_back(k, v);
    auto it = expected.find(k);
    if (it == expected.end()) expected[k] = v;
    else it->second = std::max(it->second, v);
  }
  auto rdd = parallelize(engine, std::move(pairs), 5);
  auto maxed = reduce_by_key(
      engine, rdd, [](int a, int b) { return std::max(a, b); },
      HashPartitioner{4});
  std::map<std::string, int> actual;
  for (const auto& [k, v] : maxed.collect()) actual[k] = v;
  EXPECT_EQ(actual, expected);
}

TEST(ClosureRule, OnlyCapturelessLambdasQualify) {
  // Pool workers rebuild a transformation's closure as Fn{}, so the closure
  // trait must reject every capture mode and admit the captureless lambda.
  int offset = 3;
  int* ptr = &offset;
  auto by_pointer = [ptr](int x) { return x + *ptr; };
  auto by_reference = [&offset](int x) { return x + offset; };
  auto by_value = [offset](int x) { return x + offset; };
  auto captureless = [](int x) { return x + 3; };
  static_assert(!captureless_closure_v<decltype(by_pointer)>);
  static_assert(!captureless_closure_v<decltype(by_reference)>);
  static_assert(!captureless_closure_v<decltype(by_value)>);
  static_assert(captureless_closure_v<decltype(captureless)>);
  // The worker-side rebuild computes what the caller's object computes.
  EXPECT_EQ(decltype(captureless){}(1), captureless(1));
  EXPECT_EQ(by_pointer(1), by_value(1));
  EXPECT_EQ(by_reference(1), captureless(1));
}

TEST(LeftOuterJoin, MatchesReferenceSemantics) {
  Engine engine(test_config());
  std::vector<std::pair<std::string, int>> left_pairs{
      {"a", 1}, {"b", 2}, {"c", 3}, {"a", 4}};
  std::vector<std::pair<std::string, std::string>> right_pairs{
      {"a", "x"}, {"a", "y"}, {"b", "z"}};
  auto left = parallelize(engine, std::move(left_pairs), 3);
  auto right = parallelize(engine, std::move(right_pairs), 2);
  auto joined = left_outer_join(engine, left, right, HashPartitioner{4});
  // Reference: a:1 joins x and y; a:4 joins x and y; b:2 joins z; c:3 -> null.
  std::multiset<std::string> flat;
  for (const auto& [k, vw] : joined.collect()) {
    flat.insert(k + ":" + std::to_string(vw.first) + ":" +
                (vw.second ? *vw.second : "<null>"));
  }
  const std::multiset<std::string> expected{
      "a:1:x", "a:1:y", "a:4:x", "a:4:y", "b:2:z", "c:3:<null>"};
  EXPECT_EQ(flat, expected);
}

TEST(LeftOuterJoin, CopartitionedInputsShuffleNothing) {
  Engine engine(test_config());
  HashPartitioner part{8};
  auto left = partition_by(
      engine, parallelize(engine, sample_pairs(300, 29), 4), part);
  auto right = partition_by(
      engine, parallelize(engine, sample_pairs(150, 29), 4), part);
  engine.reset_metrics();
  auto joined = left_outer_join(engine, left, right, part);
  EXPECT_EQ(engine.metrics().total_shuffle_bytes(), 0u);
  EXPECT_EQ(joined.partitioner_id, part.id());
  EXPECT_GT(joined.size(), 0u);
}

TEST(LeftOuterJoin, UnpartitionedInputsDoShuffle) {
  Engine engine(test_config());
  auto left = parallelize(engine, sample_pairs(300, 29), 4);
  auto right = parallelize(engine, sample_pairs(150, 29), 4);
  engine.reset_metrics();
  left_outer_join(engine, left, right, HashPartitioner{8});
  EXPECT_GT(engine.metrics().total_shuffle_bytes(), 0u);
}

TEST(FlatMapMetered, EmitsManyAndAccumulatesCost) {
  Engine engine(test_config());
  auto rdd = parallelize(engine, sample_pairs(10, 10), 2);
  engine.reset_metrics();
  auto out = flat_map_metered(
      engine, rdd,
      [](const std::string& k, const std::string& v, std::size_t& cost) {
        cost = 7;
        std::vector<std::pair<std::string, std::string>> result;
        result.emplace_back(k, v + "-1");
        result.emplace_back(k, v + "-2");
        return result;
      });
  EXPECT_EQ(out.size(), 20u);
  EXPECT_EQ(engine.metrics().total_compute_cost(), 70u);
}

TEST(Metrics, SummaryMentionsEveryStage) {
  Engine engine(test_config());
  auto rdd = parallelize(engine, sample_pairs(10, 3), 2);
  partition_by(engine, rdd, HashPartitioner{2}, "my_shuffle");
  const std::string text = engine.metrics().summary();
  EXPECT_NE(text.find("parallelize"), std::string::npos);
  EXPECT_NE(text.find("my_shuffle"), std::string::npos);
}

// Determinism property: the full pipeline gives identical layouts across
// runs and worker-thread counts.
class PipelineDeterminism : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PipelineDeterminism, LayoutIndependentOfThreads) {
  const auto run = [&](std::size_t threads) {
    EngineConfig cfg = test_config();
    cfg.exec.threads_per_worker = threads;
    Engine engine(cfg);
    HashPartitioner part{8};
    auto rdd = partition_by(
        engine, parallelize(engine, sample_pairs(500, 41), 4), part);
    auto counts = aggregate_by_key(
        engine, rdd, std::size_t{0},
        [](std::size_t& agg, const std::string&) { ++agg; },
        [](std::size_t& agg, std::size_t&& other) { agg += other; }, part);
    // Sort within partitions for comparison (unordered_map iteration order
    // may differ, which is allowed; the *set* per partition must match).
    std::vector<std::vector<std::pair<std::string, std::size_t>>> parts;
    for (auto p : counts.partitions) {
      std::sort(p.begin(), p.end());
      parts.push_back(std::move(p));
    }
    return parts;
  };
  EXPECT_EQ(run(1), run(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Threads, PipelineDeterminism,
                         ::testing::Values(2, 3, 8));

}  // namespace
}  // namespace drapid
