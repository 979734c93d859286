// FlatHashMap / FlatHashMultiMap unit tests, plus equivalence tests pinning
// the properties the RDD layer relied on when it swapped the containers in
// for std::unordered_map: aggregate_by_key and left_outer_join must produce
// the documented first-encounter / build-order layouts (verified against
// in-test reference implementations that use no hash table at all), and the
// stage metrics byte counts must equal a direct byte_size() walk of the
// inputs.
#include "util/flat_hash.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dataflow/rdd.hpp"

namespace drapid {
namespace {

using StrPair = std::pair<std::string, std::string>;

TEST(FlatHashMap, InsertFindAndDuplicateRejection) {
  FlatHashMap<std::string, int> map;
  auto [first, inserted] = map.try_emplace("a", 1);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(first->second, 1);
  auto [again, inserted_again] = map.try_emplace("a", 99);
  EXPECT_FALSE(inserted_again);
  EXPECT_EQ(again->second, 1);  // existing value untouched
  map.try_emplace("b", 2);
  EXPECT_EQ(map.size(), 2u);
  ASSERT_NE(map.find("a"), nullptr);
  EXPECT_EQ(*map.find("a"), 1);
  ASSERT_NE(map.find("b"), nullptr);
  EXPECT_EQ(*map.find("b"), 2);
}

TEST(FlatHashMap, FindOnEmptyAndMissingKeys) {
  FlatHashMap<std::string, int> map;
  EXPECT_EQ(map.find("nope"), nullptr);  // no index allocated yet
  map.try_emplace("present", 7);
  EXPECT_EQ(map.find("nope"), nullptr);
  const auto& cmap = map;
  EXPECT_EQ(cmap.find("nope"), nullptr);
  ASSERT_NE(cmap.find("present"), nullptr);
}

TEST(FlatHashMap, GrowthPreservesFirstEncounterOrder) {
  // 1000 insertions over 137 distinct keys force several index rebuilds;
  // the drained entries must still be exactly first-encounter order with
  // values folded in stream order.
  FlatHashMap<std::string, std::string> map;
  std::vector<std::pair<std::string, std::string>> reference;
  std::map<std::string, std::size_t> reference_index;
  for (int i = 0; i < 1000; ++i) {
    const std::string key = "k" + std::to_string(i % 137);
    const std::string value = "v" + std::to_string(i);
    auto [entry, inserted] = map.try_emplace(key, std::string{});
    entry->second += value;
    auto [it, fresh] = reference_index.try_emplace(key, reference.size());
    if (fresh) reference.emplace_back(key, std::string{});
    reference[it->second].second += value;
  }
  EXPECT_EQ(map.size(), 137u);
  const auto entries = map.take_entries();
  ASSERT_EQ(entries.size(), reference.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i], reference[i]) << "position " << i;
  }
  EXPECT_TRUE(map.empty());  // drained
}

TEST(FlatHashMap, ReserveThenBuildMatchesUnreservedLayout) {
  const auto build = [](bool reserve) {
    FlatHashMap<int, int> map;
    if (reserve) map.reserve(500);
    for (int i = 0; i < 500; ++i) map.try_emplace(i * 7919, i);
    return map.take_entries();
  };
  EXPECT_EQ(build(true), build(false));
}

TEST(FlatHashMultiMap, PerKeyInsertionOrderAndMissingKey) {
  FlatHashMultiMap<std::string, int> map;
  map.emplace("a", 1);
  map.emplace("b", 10);
  map.emplace("a", 2);
  map.emplace("a", 3);
  EXPECT_EQ(map.size(), 4u);
  std::vector<int> seen;
  EXPECT_TRUE(map.for_each("a", [&](int v) { seen.push_back(v); }));
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3}));
  seen.clear();
  EXPECT_TRUE(map.for_each("b", [&](int v) { seen.push_back(v); }));
  EXPECT_EQ(seen, (std::vector<int>{10}));
  EXPECT_FALSE(map.for_each("missing", [&](int) { FAIL(); }));
}

// --- Equivalence against hash-free references ------------------------------

EngineConfig test_config(std::size_t threads = 2) {
  EngineConfig cfg;
  cfg.num_executors = 4;
  cfg.cores_per_executor = 2;
  cfg.exec.threads_per_worker = threads;
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
std::size_t bytes_of(const std::vector<std::pair<K, V>>& records) {
  std::size_t total = 0;
  for (const auto& kv : records) total += byte_size(kv);
  return total;
}

TEST(FlatHashEquivalence, AggregateByKeyMatchesFirstEncounterReference) {
  const HashPartitioner part{8};
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    Engine engine(test_config(threads));
    const auto input = partition_by(
        engine, parallelize(engine, sample_pairs(400, 37), 5), part);
    const auto agg = aggregate_by_key(
        engine, input, std::string{},
        [](std::string& acc, const std::string& v) { acc += v; },
        [](std::string& acc, std::string&& other) { acc += other; }, part);

    ASSERT_EQ(agg.num_partitions(), input.num_partitions());
    for (std::size_t p = 0; p < input.num_partitions(); ++p) {
      // Reference: fold in stream order into a dense vector laid out by
      // first encounter of each key — no hash table involved.
      std::vector<StrPair> expected;
      std::map<std::string, std::size_t> index;
      for (const auto& kv : input.partitions[p]) {
        auto [it, fresh] = index.try_emplace(kv.first, expected.size());
        if (fresh) expected.emplace_back(kv.first, std::string{});
        expected[it->second].second += kv.second;
      }
      EXPECT_EQ(agg.partitions[p], expected)
          << "partition " << p << " threads " << threads;
    }

    // The combine stage's byte accounting must equal a direct byte_size()
    // walk of its input partitions.
    std::size_t expected_bytes = 0;
    for (const auto& partition : input.partitions) {
      expected_bytes += bytes_of(partition);
    }
    bool found = false;
    for (const auto& stage : engine.metrics().stages) {
      if (stage.name != "aggregate_by_key:combine") continue;
      found = true;
      EXPECT_EQ(stage.total_records_in(), 400u);
      EXPECT_EQ(stage.total_bytes_in(), expected_bytes);
    }
    EXPECT_TRUE(found);
  }
}

TEST(FlatHashEquivalence, LeftOuterJoinMatchesScanReference) {
  const HashPartitioner part{8};
  Engine engine(test_config());
  const auto lhs = partition_by(
      engine, parallelize(engine, sample_pairs(200, 23), 4), part);
  // Right side with duplicate keys, so per-key match order matters.
  std::vector<StrPair> right_pairs;
  for (std::size_t i = 0; i < 60; ++i) {
    right_pairs.emplace_back("key" + std::to_string(i % 17),
                             "right" + std::to_string(i));
  }
  const auto rhs = partition_by(
      engine, parallelize(engine, std::move(right_pairs), 3), part);

  const auto joined = left_outer_join(engine, lhs, rhs, part);

  using Joined = std::pair<std::string,
                           std::pair<std::string, std::optional<std::string>>>;
  ASSERT_EQ(joined.num_partitions(), part.num_partitions);
  for (std::size_t p = 0; p < part.num_partitions; ++p) {
    // Reference: for each left record in partition order, scan the right
    // partition in order and emit one row per match (or one nullopt row).
    std::vector<Joined> expected;
    for (const auto& kv : lhs.partitions[p]) {
      bool matched = false;
      for (const auto& rv : rhs.partitions[p]) {
        if (rv.first != kv.first) continue;
        matched = true;
        expected.emplace_back(kv.first,
                              std::make_pair(kv.second, rv.second));
      }
      if (!matched) {
        expected.emplace_back(kv.first,
                              std::make_pair(kv.second, std::nullopt));
      }
    }
    EXPECT_EQ(joined.partitions[p], expected) << "partition " << p;
  }

  // Join-stage accounting: records_in and bytes_in cover both sides.
  std::size_t expected_records = 0;
  std::size_t expected_bytes = 0;
  for (std::size_t p = 0; p < part.num_partitions; ++p) {
    expected_records += lhs.partitions[p].size() + rhs.partitions[p].size();
    expected_bytes += bytes_of(lhs.partitions[p]) + bytes_of(rhs.partitions[p]);
  }
  bool found = false;
  for (const auto& stage : engine.metrics().stages) {
    if (stage.name != "left_outer_join") continue;
    found = true;
    EXPECT_EQ(stage.total_records_in(), expected_records);
    EXPECT_EQ(stage.total_bytes_in(), expected_bytes);
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace drapid
