#include "dataflow/spill.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <utility>

#include "util/checksum.hpp"

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


// ------------------------------------------------- spill file bytes + damage

namespace fs = std::filesystem;

/// Every spill file the engine has written so far, by path.
std::vector<fs::path> spill_files(Engine& engine) {
  const fs::path dir = fs::path(engine.next_spill_path()).parent_path();
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string file_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void overwrite(const fs::path& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::uint64_t digest_of(const std::string& bytes) {
  Checksum sum;
  sum.update(bytes.data(), bytes.size());
  return sum.digest();
}

/// A fixed dataset: empty fields, embedded NULs and high bytes included.
std::vector<std::pair<std::string, std::string>> fixed_pairs() {
  return {{"alpha", "one"},
          {"", "empty key"},
          {"empty value", ""},
          {std::string("nul\0key", 7), std::string("\xff\x00\x7f", 3)},
          {"PALFA|56000.01|213.77|15.22|3", std::string(40, 'z')}};
}

TEST(SpillFile, BytesMatchPinnedDigests) {
  // The spill file layout is an on-disk format: the magic, the count, each
  // length-prefixed key and value, and the checksum trailer. These sizes
  // and digests were recorded from the writer that predates the shared
  // sealed-file container; a change here changes every spill file.
  Engine engine(config_with_budget(1));
  CachedStringRdd cached(engine, parallelize(engine, fixed_pairs(), 2),
                         "pinned");
  ASSERT_TRUE(cached.spilled());
  std::vector<std::pair<std::size_t, std::uint64_t>> got;
  for (const auto& path : spill_files(engine)) {
    const std::string bytes = file_bytes(path);
    got.emplace_back(bytes.size(), digest_of(bytes));
  }
  std::sort(got.begin(), got.end());
  const std::vector<std::pair<std::size_t, std::uint64_t>> want = {
      {100, 0x24608C6DC591A686ULL}, {135, 0x3527BD5E15534301ULL}};
  EXPECT_EQ(got, want);
  EXPECT_EQ(cached.materialize().collect(),
            parallelize(engine, fixed_pairs(), 2).collect());
}

/// One spilled partition with no producer, and the path of its file.
struct OneSpillFile {
  Engine engine{config_with_budget(1)};
  CachedStringRdd cached{engine, parallelize(engine, fixed_pairs(), 1),
                         "damaged"};
  fs::path path;
  std::string good;
  OneSpillFile() {
    const auto files = spill_files(engine);
    if (files.size() == 1) {
      path = files[0];
      good = file_bytes(path);
    }
  }
};

void expect_spill_error(CachedStringRdd& cached, const std::string& what) {
  try {
    cached.materialize();
    ADD_FAILURE() << what << ": damaged spill file materialized";
  } catch (const SpillError& e) {
    EXPECT_NE(std::string(e.what()).find("spill file"), std::string::npos)
        << what << ": " << e.what();
  }
}

TEST(SpillFile, DetectsEveryFlippedByte) {
  OneSpillFile spill;
  ASSERT_TRUE(spill.cached.spilled());
  ASSERT_FALSE(spill.good.empty());
  for (std::size_t i = 0; i < spill.good.size(); ++i) {
    std::string bad = spill.good;
    bad[i] = static_cast<char>(bad[i] ^ 0x5a);
    overwrite(spill.path, bad);
    expect_spill_error(spill.cached, "byte " + std::to_string(i));
  }
  overwrite(spill.path, spill.good);
  EXPECT_EQ(spill.cached.materialize().collect(), fixed_pairs());
}

TEST(SpillFile, RejectsTruncationAtEveryLength) {
  OneSpillFile spill;
  ASSERT_TRUE(spill.cached.spilled());
  ASSERT_FALSE(spill.good.empty());
  for (std::size_t keep = 0; keep < spill.good.size(); ++keep) {
    overwrite(spill.path, spill.good.substr(0, keep));
    expect_spill_error(spill.cached, "kept " + std::to_string(keep));
  }
}

}  // namespace
}  // namespace drapid
