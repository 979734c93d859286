#include "dataflow/engine.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <stdexcept>

namespace drapid {
namespace {

TEST(EngineConfig, DerivedQuantities) {
  EngineConfig cfg;
  cfg.num_executors = 5;
  cfg.cores_per_executor = 2;
  cfg.partitions_per_core = 32;
  cfg.executor_memory_bytes = 100;
  EXPECT_EQ(cfg.total_cores(), 10u);
  EXPECT_EQ(cfg.default_partitions(), 320u);  // the paper's 32-per-core scheme
  EXPECT_EQ(cfg.total_memory_bytes(), 500u);
}

TEST(Engine, RejectsAModeledClusterWithNoPartitions) {
  // Each zero makes default_partitions() 0, which used to reach a
  // partitioner over no targets and crash the first shuffle.
  for (int field = 0; field < 3; ++field) {
    EngineConfig cfg;
    cfg.exec.threads_per_worker = 1;
    if (field == 0) cfg.num_executors = 0;
    if (field == 1) cfg.cores_per_executor = 0;
    if (field == 2) cfg.partitions_per_core = 0;
    EXPECT_THROW(Engine{cfg}, std::invalid_argument) << "field " << field;
  }
}

TEST(Engine, BeginStageAllocatesTaskSlots) {
  EngineConfig cfg;
  cfg.exec.threads_per_worker = 1;
  Engine engine(cfg);
  auto& stage = engine.begin_stage("s1", 4);
  EXPECT_EQ(stage.name, "s1");
  ASSERT_EQ(stage.tasks.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(stage.tasks[i].partition, i);
    EXPECT_EQ(stage.tasks[i].records_in, 0u);
  }
  EXPECT_EQ(engine.metrics().stages.size(), 1u);
}

TEST(Engine, ResetMetricsClearsStages) {
  EngineConfig cfg;
  cfg.exec.threads_per_worker = 1;
  Engine engine(cfg);
  engine.begin_stage("a", 1);
  engine.begin_stage("b", 1);
  EXPECT_EQ(engine.metrics().stages.size(), 2u);
  engine.reset_metrics();
  EXPECT_TRUE(engine.metrics().stages.empty());
}

TEST(Engine, SpillPathsAreUniqueAndInsideTheEngineDir) {
  EngineConfig cfg;
  cfg.exec.threads_per_worker = 1;
  Engine engine(cfg);
  std::set<std::string> paths;
  for (int i = 0; i < 50; ++i) {
    const auto path = engine.next_spill_path();
    EXPECT_TRUE(paths.insert(path).second) << "duplicate " << path;
    EXPECT_NE(path.find("drapid_spill"), std::string::npos);
  }
}

TEST(Engine, SpillDirectoryIsRemovedOnDestruction) {
  std::string dir;
  {
    EngineConfig cfg;
    cfg.exec.threads_per_worker = 1;
    Engine engine(cfg);
    const auto path = engine.next_spill_path();
    dir = std::filesystem::path(path).parent_path().string();
    EXPECT_TRUE(std::filesystem::exists(dir));
  }
  EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(Engine, TwoEnginesUseSeparateSpillDirs) {
  EngineConfig cfg;
  cfg.exec.threads_per_worker = 1;
  Engine a(cfg), b(cfg);
  const auto pa = std::filesystem::path(a.next_spill_path()).parent_path();
  const auto pb = std::filesystem::path(b.next_spill_path()).parent_path();
  EXPECT_NE(pa, pb);
}

// Regression: stages used to live in a std::vector, so a begin_stage nested
// inside a running stage (lineage recomputation does exactly this) could
// reallocate and invalidate the outer stage reference. Stages now live in a
// deque; references stay valid for the engine's lifetime.
TEST(Engine, StageReferenceSurvivesNestedStages) {
  EngineConfig cfg;
  cfg.exec.threads_per_worker = 1;
  Engine engine(cfg);
  auto& outer = engine.begin_stage("outer", 2);
  outer.tasks[0].records_in = 42;
  // Enough nested stages to force a vector to reallocate several times.
  for (int i = 0; i < 100; ++i) {
    engine.begin_stage("nested" + std::to_string(i), 3);
  }
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.tasks[0].records_in, 42u);
  EXPECT_EQ(&outer, &engine.metrics().stages.front());
  EXPECT_EQ(engine.metrics().stages.size(), 101u);
}

TEST(StageMetrics, TotalsSumOverTasks) {
  StageMetrics stage;
  stage.name = "t";
  for (std::size_t i = 0; i < 3; ++i) {
    TaskMetrics task;
    task.records_in = 10 * (i + 1);
    task.bytes_in = 100;
    task.shuffle_bytes = 5;
    task.spill_bytes = 7;
    task.compute_cost = 2;
    stage.tasks.push_back(task);
  }
  EXPECT_EQ(stage.total_records_in(), 60u);
  EXPECT_EQ(stage.total_bytes_in(), 300u);
  EXPECT_EQ(stage.total_shuffle_bytes(), 15u);
  EXPECT_EQ(stage.total_spill_bytes(), 21u);
  EXPECT_EQ(stage.total_compute_cost(), 6u);
}

}  // namespace
}  // namespace drapid
