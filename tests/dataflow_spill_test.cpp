#include "dataflow/spill.hpp"

#include <gtest/gtest.h>

namespace drapid {
namespace {

using StringRdd = Rdd<std::string, std::string>;

StringRdd make_rdd(Engine& engine, std::size_t pairs, std::size_t value_size) {
  std::vector<std::pair<std::string, std::string>> data;
  for (std::size_t i = 0; i < pairs; ++i) {
    data.emplace_back("key" + std::to_string(i),
                      std::string(value_size, static_cast<char>('a' + i % 26)));
  }
  return parallelize(engine, std::move(data), 4);
}

EngineConfig config_with_budget(std::size_t bytes) {
  EngineConfig cfg;
  cfg.num_executors = 1;
  cfg.executor_memory_bytes = bytes;
  cfg.exec.threads_per_worker = 2;
  return cfg;
}

TEST(Spill, SmallDatasetStaysInMemory) {
  Engine engine(config_with_budget(10u << 20));
  auto rdd = make_rdd(engine, 100, 50);
  const auto expected = rdd.collect();
  CachedStringRdd cached(engine, std::move(rdd), "test");
  EXPECT_FALSE(cached.spilled());
  EXPECT_EQ(cached.materialize().collect(), expected);
  EXPECT_EQ(engine.metrics().total_spill_bytes(), 0u);
}

TEST(Spill, OversizedDatasetSpillsAndRoundTrips) {
  Engine engine(config_with_budget(1024));  // 1 KB budget forces the spill
  auto rdd = make_rdd(engine, 200, 100);
  rdd.partitioner_id = 1234;
  const auto expected = rdd.collect();
  CachedStringRdd cached(engine, std::move(rdd), "big");
  EXPECT_TRUE(cached.spilled());
  EXPECT_GT(engine.metrics().total_spill_bytes(), 0u);
  const auto back = cached.materialize();
  EXPECT_EQ(back.collect(), expected);
  EXPECT_EQ(back.partitioner_id, 1234u);  // layout metadata survives
}

TEST(Spill, MaterializeRecordsReadBytes) {
  Engine engine(config_with_budget(1024));
  CachedStringRdd cached(engine, make_rdd(engine, 100, 64), "s");
  ASSERT_TRUE(cached.spilled());
  const std::size_t after_write = engine.metrics().total_spill_bytes();
  cached.materialize();
  EXPECT_GT(engine.metrics().total_spill_bytes(), after_write)
      << "read-back must add spill traffic";
}

TEST(Spill, RepeatedMaterializeIsConsistent) {
  Engine engine(config_with_budget(512));
  auto rdd = make_rdd(engine, 50, 40);
  const auto expected = rdd.collect();
  CachedStringRdd cached(engine, std::move(rdd), "r");
  EXPECT_EQ(cached.materialize().collect(), expected);
  EXPECT_EQ(cached.materialize().collect(), expected);
}

TEST(Spill, HandlesEmptyValuesAndKeys) {
  Engine engine(config_with_budget(1));
  std::vector<std::pair<std::string, std::string>> data{
      {"", ""}, {"k", ""}, {"", "v"}};
  auto rdd = parallelize(engine, std::move(data), 2);
  const auto expected = rdd.collect();
  CachedStringRdd cached(engine, std::move(rdd), "edge");
  ASSERT_TRUE(cached.spilled());
  EXPECT_EQ(cached.materialize().collect(), expected);
}

TEST(Spill, BudgetScalesWithExecutorCount) {
  // The same dataset that spills on 1 executor fits on 8 — the Figure 4
  // mechanism.
  const auto run = [](std::size_t executors) {
    EngineConfig cfg;
    cfg.num_executors = executors;
    cfg.executor_memory_bytes = 4096;
    cfg.exec.threads_per_worker = 2;
    Engine engine(cfg);
    auto rdd = make_rdd(engine, 150, 80);
    CachedStringRdd cached(engine, std::move(rdd), "scale");
    return cached.spilled();
  };
  EXPECT_TRUE(run(1));
  EXPECT_FALSE(run(8));
}

}  // namespace
}  // namespace drapid
