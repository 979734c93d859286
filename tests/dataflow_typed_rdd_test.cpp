// The RDD templates with non-string key/value types: the engine is a
// general dataflow substrate, not a string-only pipeline.
#include <gtest/gtest.h>

#include <map>

#include "dataflow/rdd.hpp"
#include "util/rng.hpp"

namespace drapid {
namespace {

EngineConfig cfg() {
  EngineConfig c;
  c.num_executors = 3;
  c.exec.threads_per_worker = 2;
  return c;
}

TEST(TypedRdd, IntegerKeysPartitionAndReduce) {
  Engine engine(cfg());
  std::vector<std::pair<int, double>> pairs;
  Rng rng(5);
  std::map<int, double> expected;
  for (int i = 0; i < 500; ++i) {
    const int k = static_cast<int>(rng.below(40));
    const double v = rng.uniform(0, 10);
    pairs.emplace_back(k, v);
    expected[k] += v;
  }
  auto rdd = parallelize(engine, std::move(pairs), 6);
  const HashPartitioner part{8};
  auto sums = reduce_by_key(
      engine, rdd, [](double a, double b) { return a + b; }, part);
  std::map<int, double> actual;
  for (const auto& [k, v] : sums.collect()) actual[k] = v;
  ASSERT_EQ(actual.size(), expected.size());
  for (const auto& [k, v] : expected) {
    EXPECT_NEAR(actual[k], v, 1e-9) << "key " << k;
  }
}

TEST(TypedRdd, JoinWithStructValues) {
  struct Payload {
    double x = 0.0;
    int tag = 0;
  };
  Engine engine(cfg());
  std::vector<std::pair<int, Payload>> left_pairs{{1, {1.5, 7}}, {2, {2.5, 8}}};
  std::vector<std::pair<int, int>> right_pairs{{1, 100}};
  const HashPartitioner part{4};
  auto left = partition_by(engine, parallelize(engine, left_pairs, 2), part);
  auto right = partition_by(engine, parallelize(engine, right_pairs, 2), part);
  auto joined = left_outer_join(engine, left, right, part);
  std::map<int, std::pair<Payload, std::optional<int>>> by_key;
  for (const auto& [k, v] : joined.collect()) by_key[k] = v;
  ASSERT_EQ(by_key.size(), 2u);
  EXPECT_EQ(by_key[1].second.value(), 100);
  EXPECT_FALSE(by_key[2].second.has_value());
  EXPECT_EQ(by_key[2].first.tag, 8);
}

TEST(TypedRdd, ByteSizeCoversCommonTypes) {
  EXPECT_EQ(byte_size(3.5), sizeof(double));
  EXPECT_EQ(byte_size(42), sizeof(int));
  EXPECT_GE(byte_size(std::string("hello")), 5u);
  const std::vector<double> v{1, 2, 3};
  EXPECT_GE(byte_size(v), 3 * sizeof(double));
  const std::optional<double> some(1.0), none;
  EXPECT_GT(byte_size(some), byte_size(none));
  const std::pair<std::string, double> p{"ab", 1.0};
  EXPECT_GE(byte_size(p), 2 + sizeof(double));
}

TEST(TypedRdd, MapPairsChangesTypes) {
  Engine engine(cfg());
  std::vector<std::pair<int, int>> pairs{{1, 10}, {2, 20}};
  auto rdd = parallelize(engine, std::move(pairs), 2);
  auto strings = map_pairs(engine, rdd, [](const std::pair<int, int>& kv) {
    return std::make_pair(std::to_string(kv.first),
                          static_cast<double>(kv.second) / 2);
  });
  std::map<std::string, double> by_key;
  for (const auto& [k, v] : strings.collect()) by_key[k] = v;
  EXPECT_DOUBLE_EQ(by_key["1"], 5.0);
  EXPECT_DOUBLE_EQ(by_key["2"], 10.0);
}

TEST(TypedRdd, FilterOnNumericPredicate) {
  Engine engine(cfg());
  std::vector<std::pair<int, double>> pairs;
  for (int i = 0; i < 100; ++i) pairs.emplace_back(i, i * 0.5);
  auto rdd = parallelize(engine, std::move(pairs), 4);
  auto kept = filter_pairs(engine, rdd, [](const std::pair<int, double>& kv) {
    return kv.second >= 40.0;
  });
  EXPECT_EQ(kept.size(), 20u);
}

}  // namespace
}  // namespace drapid
