// Fault-injection suite: the engine must absorb injected task kills, spill
// corruption/loss, and dead block-store nodes without changing the job's
// output — recovery is priced, never lossy.
#include "dataflow/fault.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "dataflow/block_store.hpp"
#include "dataflow/cluster_model.hpp"
#include "dataflow/spill.hpp"
#include "drapid/driver.hpp"
#include "drapid/pipeline.hpp"

namespace drapid {
namespace {

using StringRdd = Rdd<std::string, std::string>;

// ---------------------------------------------------------------- injector

TEST(FaultInjector, DisabledPlanInjectsNothing) {
  FaultInjector inj;
  EXPECT_FALSE(inj.enabled());
  for (std::size_t p = 0; p < 50; ++p) {
    EXPECT_FALSE(inj.fail_task("stage", p, 0));
    EXPECT_EQ(inj.spill_fault("cache", p), SpillFault::kNone);
  }
  EXPECT_TRUE(inj.dead_nodes(15).empty());
}

TEST(FaultInjector, DecisionsAreDeterministic) {
  FaultPlan plan;
  plan.seed = 99;
  plan.task_failure_rate = 0.3;
  plan.spill_fault_rate = 0.3;
  plan.node_fault_rate = 0.3;
  const FaultInjector a(plan), b(plan);
  for (std::size_t p = 0; p < 100; ++p) {
    EXPECT_EQ(a.fail_task("s", p, 0), b.fail_task("s", p, 0));
    EXPECT_EQ(a.spill_fault("c", p), b.spill_fault("c", p));
  }
  EXPECT_EQ(a.dead_nodes(15), b.dead_nodes(15));
}

TEST(FaultInjector, FaultSetGrowsMonotonicallyWithRate) {
  // A fault injected at rate r must also be injected at every r' > r —
  // the property that makes recovery overhead monotone in the rate.
  FaultPlan lo_plan, hi_plan;
  lo_plan.seed = hi_plan.seed = 7;
  lo_plan.task_failure_rate = 0.1;
  hi_plan.task_failure_rate = 0.4;
  const FaultInjector lo(lo_plan), hi(hi_plan);
  std::size_t lo_kills = 0, hi_kills = 0;
  for (std::size_t p = 0; p < 500; ++p) {
    const bool lo_fails = lo.fail_task("s", p, 0);
    lo_kills += lo_fails;
    hi_kills += hi.fail_task("s", p, 0);
    if (lo_fails) {
      EXPECT_TRUE(hi.fail_task("s", p, 0));
    }
  }
  EXPECT_GT(lo_kills, 0u);
  EXPECT_GT(hi_kills, lo_kills);
}

TEST(FaultInjector, FailOnceStagesKillExactlyTheFirstAttempt) {
  FaultPlan plan;
  plan.fail_once_stages = {"search"};
  const FaultInjector inj(plan);
  for (std::size_t p = 0; p < 10; ++p) {
    EXPECT_TRUE(inj.fail_task("search", p, 0));
    EXPECT_FALSE(inj.fail_task("search", p, 1));
    EXPECT_FALSE(inj.fail_task("load:x", p, 0));  // prefix does not match
  }
}

TEST(FaultInjector, RateKillsRespectPerTaskBudget) {
  FaultPlan plan;
  plan.task_failure_rate = 1.0;  // every attempt 0 dies...
  plan.max_injected_failures_per_task = 1;
  const FaultInjector inj(plan);
  EXPECT_TRUE(inj.fail_task("s", 3, 0));
  EXPECT_FALSE(inj.fail_task("s", 3, 1));  // ...but attempt 1 survives
}

TEST(FaultInjector, ExplicitSpillListsOverrideRates) {
  FaultPlan plan;
  plan.corrupt_spill_partitions = {2};
  plan.lose_spill_partitions = {5};
  const FaultInjector inj(plan);
  EXPECT_EQ(inj.spill_fault("data", 2), SpillFault::kCorrupt);
  EXPECT_EQ(inj.spill_fault("data", 5), SpillFault::kLose);
  EXPECT_EQ(inj.spill_fault("data", 0), SpillFault::kNone);
}

TEST(FaultInjector, DeadNodesAreSortedUniqueAndBounded) {
  FaultPlan plan;
  plan.dead_nodes = {9, 2, 9, 40, -1};  // 40 and -1 exceed a 15-node cluster
  const FaultInjector inj(plan);
  EXPECT_EQ(inj.dead_nodes(15), (std::vector<int>{2, 9}));
}

// ------------------------------------------------------------- task retry

EngineConfig small_engine() {
  EngineConfig cfg;
  cfg.num_executors = 1;
  cfg.exec.threads_per_worker = 2;
  cfg.partitions_per_core = 4;
  return cfg;
}

TEST(TaskRetry, KilledAttemptsAreRetriedAndCounted) {
  EngineConfig cfg = small_engine();
  cfg.faults.fail_once_stages = {"work"};
  Engine engine(cfg);
  auto& stage = engine.begin_stage("work", 4);
  std::vector<std::atomic<int>> runs(4);
  engine.run_stage(stage, [&](TaskContext& ctx) {
    ctx.metrics().compute_cost = 10;
    runs[ctx.partition()].fetch_add(1);
  });
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_EQ(runs[p].load(), 1) << "a body must run at most once";
    EXPECT_EQ(stage.tasks[p].attempts, 2u);
    EXPECT_EQ(stage.tasks[p].retry_cost, 10u);
  }
  EXPECT_EQ(stage.total_retries(), 4u);
}

TEST(TaskRetry, ExhaustedAttemptBudgetThrowsTaskFailure) {
  EngineConfig cfg = small_engine();
  cfg.max_task_attempts = 3;
  cfg.faults.task_failure_rate = 1.0;
  cfg.faults.max_injected_failures_per_task = 100;  // kill every attempt
  Engine engine(cfg);
  auto& stage = engine.begin_stage("doomed", 2);
  EXPECT_THROW(engine.run_stage(stage, [](TaskContext&) {}), TaskFailure);
}

TEST(TaskRetry, GenuineExceptionsAreNotRetried) {
  Engine engine(small_engine());
  auto& stage = engine.begin_stage("buggy", 2);
  std::atomic<int> calls{0};
  EXPECT_THROW(engine.run_stage(stage,
                                [&](TaskContext& ctx) {
                                  calls.fetch_add(1);
                                  if (ctx.partition() == 1) {
                                    throw std::logic_error("bug");
                                  }
                                }),
               std::logic_error);
  EXPECT_LE(calls.load(), 2);  // no re-execution of the faulting body
}

// ---------------------------------------------------- spill damage + lineage

StringRdd make_rdd(Engine& engine, std::size_t pairs) {
  std::vector<std::pair<std::string, std::string>> data;
  for (std::size_t i = 0; i < pairs; ++i) {
    data.emplace_back("key" + std::to_string(i),
                      "value-" + std::to_string(i * 31));
  }
  return parallelize(engine, std::move(data), 4);
}

/// A producer that recomputes lost partitions as copies of `original`.
CachedStringRdd::Producer replay(
    std::vector<std::vector<StringRdd::Pair>> original) {
  return [original = std::move(original)](
             const std::vector<std::size_t>& lost) {
    std::vector<std::vector<StringRdd::Pair>> out;
    for (const std::size_t p : lost) out.push_back(original.at(p));
    return out;
  };
}

EngineConfig spilling_engine() {
  EngineConfig cfg = small_engine();
  cfg.executor_memory_bytes = 64;  // force every cache to spill
  return cfg;
}

TEST(SpillFaults, CorruptFileWithoutProducerThrowsDescriptiveError) {
  EngineConfig cfg = spilling_engine();
  cfg.faults.corrupt_spill_partitions = {1};
  Engine engine(cfg);
  CachedStringRdd cached(engine, make_rdd(engine, 60), "data");
  ASSERT_TRUE(cached.spilled());
  try {
    cached.materialize();
    FAIL() << "corrupted partition must not materialize silently";
  } catch (const SpillError& e) {
    EXPECT_NE(std::string(e.what()).find("spill file"), std::string::npos);
  }
}

TEST(SpillFaults, LostFileWithoutProducerThrows) {
  EngineConfig cfg = spilling_engine();
  cfg.faults.lose_spill_partitions = {0};
  Engine engine(cfg);
  CachedStringRdd cached(engine, make_rdd(engine, 60), "data");
  ASSERT_TRUE(cached.spilled());
  EXPECT_THROW(cached.materialize(), SpillError);
}

TEST(SpillFaults, ProducerRecomputesLostPartitionsByteIdentically) {
  const auto run = [](FaultPlan faults) {
    EngineConfig cfg = spilling_engine();
    cfg.faults = std::move(faults);
    Engine engine(cfg);
    auto rdd = make_rdd(engine, 80);
    auto original = rdd.partitions;
    CachedStringRdd cached(engine, std::move(rdd), "data",
                           replay(std::move(original)));
    EXPECT_TRUE(cached.spilled());
    auto collected = cached.materialize().collect();
    return std::make_pair(std::move(collected), cached.partitions_recovered());
  };
  const auto [clean, clean_recovered] = run({});
  FaultPlan faults;
  faults.corrupt_spill_partitions = {1};
  faults.lose_spill_partitions = {3};
  const auto [faulty, faulty_recovered] = run(std::move(faults));
  EXPECT_EQ(clean_recovered, 0u);
  EXPECT_EQ(faulty_recovered, 2u);
  EXPECT_EQ(clean, faulty) << "lineage recovery must be lossless";
}

TEST(SpillFaults, RecoveryReSpillsSoLaterReadsAreHealthy) {
  EngineConfig cfg = spilling_engine();
  cfg.faults.corrupt_spill_partitions = {2};
  Engine engine(cfg);
  auto rdd = make_rdd(engine, 80);
  auto original = rdd.partitions;
  CachedStringRdd cached(engine, std::move(rdd), "data",
                         replay(std::move(original)));
  const auto first = cached.materialize().collect();
  EXPECT_EQ(cached.partitions_recovered(), 1u);
  const auto second = cached.materialize().collect();
  EXPECT_EQ(cached.partitions_recovered(), 1u)
      << "the re-spilled file must validate; no second recovery";
  EXPECT_EQ(first, second);
}

TEST(SpillFaults, TruncatedFileIsRejectedWithContext) {
  Engine engine(spilling_engine());
  CachedStringRdd cached(engine, make_rdd(engine, 60), "data");
  ASSERT_TRUE(cached.spilled());
  // Truncate one spill file behind the cache's back.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(engine.next_spill_path()).parent_path();
  bool truncated = false;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!truncated && fs::file_size(entry.path()) > 16) {
      fs::resize_file(entry.path(), 16);
      truncated = true;
    }
  }
  ASSERT_TRUE(truncated);
  EXPECT_THROW(cached.materialize(), SpillError);
}

// --------------------------------------------------------- replica failover

TEST(BlockStoreFaults, ReadsFailOverToSurvivingReplicas) {
  BlockStore store(5, /*block_size=*/64, /*replication=*/3);
  std::string contents;
  for (int i = 0; i < 40; ++i) {
    contents += "line-" + std::to_string(i) + "\n";
  }
  store.put("f", contents);
  const auto chunks_before = store.line_chunks("f");
  // Kill the primary replica of every block: one dead node cannot make any
  // block unreadable at replication 3.
  store.mark_node_dead(store.blocks("f")[0].replicas[0]);
  EXPECT_EQ(store.line_chunks("f"), chunks_before);
  EXPECT_GT(store.replica_failovers(), 0u);
  EXPECT_EQ(store.read_block("f", 0),
            contents.substr(0, store.blocks("f")[0].size));
}

TEST(BlockStoreFaults, AllReplicasDeadIsADescriptiveError) {
  BlockStore store(3, /*block_size=*/64, /*replication=*/2);
  store.put("f", std::string(200, 'x'));
  for (const int node : store.blocks("f")[0].replicas) {
    store.mark_node_dead(node);
  }
  try {
    store.read_block("f", 0);
    FAIL() << "read must not succeed with every replica dead";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("all replicas"), std::string::npos);
  }
}

TEST(BlockStoreFaults, OutOfRangeDeadNodeIsIgnored) {
  BlockStore store(4);
  store.mark_node_dead(-3);
  store.mark_node_dead(99);
  EXPECT_EQ(store.num_dead_nodes(), 0u);
}

// ------------------------------------------------------ retry cost pricing

TEST(ClusterModelFaults, RetriesRaiseTheModeledMakespan) {
  JobMetrics clean;
  StageMetrics stage;
  stage.name = "s";
  for (std::size_t i = 0; i < 8; ++i) {
    TaskMetrics t;
    t.partition = i;
    t.compute_cost = 100000;
    t.attempts = 1;
    stage.tasks.push_back(t);
  }
  clean.stages.push_back(stage);
  JobMetrics faulty = clean;
  faulty.stages.front().tasks[2].attempts = 3;
  faulty.stages.front().tasks[2].retry_cost = 200000;
  const ClusterSpec spec = ClusterSpec::paper_beowulf(1);
  EXPECT_GT(simulate_cluster(faulty, spec).total_seconds,
            simulate_cluster(clean, spec).total_seconds);
}

// ------------------------------------------------------------- end to end

PipelineConfig fault_pipeline() {
  PipelineConfig cfg;
  cfg.survey = SurveyConfig::gbt350drift();
  cfg.survey.obs_length_s = 60.0;
  cfg.survey.noise_events_per_second = 10.0;
  cfg.num_observations = 4;
  cfg.visibility = 0.08;
  cfg.seed = 71;
  return cfg;
}

/// The fault_pipeline job on one 2-core executor whose 8-partition data
/// cache spills for real; returns the ML file and the run's result.
std::pair<std::string, DrapidResult> run_spilling_drapid(
    const PipelineData& data, FaultPlan faults) {
  BlockStore store(15);
  store.put("d.csv", data.data_csv);
  store.put("c.csv", data.cluster_csv);
  EngineConfig engine_cfg;
  engine_cfg.num_executors = 1;
  engine_cfg.cores_per_executor = 2;
  engine_cfg.exec.threads_per_worker = 2;
  engine_cfg.partitions_per_core = 4;
  engine_cfg.executor_memory_bytes = 64 << 10;  // spill for real
  engine_cfg.faults = std::move(faults);
  Engine engine(engine_cfg);
  auto result = run_drapid(engine, store, "d.csv", "c.csv", "ml",
                           *fault_pipeline().survey.grid, {});
  return std::make_pair(store.get("ml"), std::move(result));
}

TEST(DrapidFaults, JobSurvivesKillsCorruptionAndDeadNodeByteIdentically) {
  const auto data = prepare_pipeline_data(fault_pipeline());
  const auto run = [&](FaultPlan faults) {
    return run_spilling_drapid(data, std::move(faults));
  };

  const auto [clean_ml, clean] = run({});
  ASSERT_GT(clean.records.size(), 0u);
  ASSERT_GT(clean.metrics.total_spill_bytes(), 0u);
  EXPECT_EQ(clean.metrics.total_retries(), 0u);

  // The deterministic havoc plan of the acceptance criteria: kill each
  // join and search task once, corrupt one spill file, drop one data node.
  FaultPlan havoc;
  havoc.fail_once_stages = {"join:clusters+data", "search"};
  havoc.corrupt_spill_partitions = {1};
  havoc.dead_nodes = {4};
  const auto [faulty_ml, faulty] = run(std::move(havoc));

  EXPECT_EQ(faulty_ml, clean_ml) << "output must be byte-identical";
  EXPECT_EQ(faulty.partitions_recovered, 1u);
  EXPECT_GT(faulty.replica_failovers, 0u);

  // Every join and search task retried exactly once; nothing else did
  // (the recompute stages record the materialize recovery separately).
  for (const auto& stage : faulty.metrics.stages) {
    const bool killed = stage.name == "join:clusters+data" ||
                        stage.name == "search";
    if (killed) {
      for (const auto& task : stage.tasks) {
        EXPECT_EQ(task.attempts, 2u) << stage.name;
      }
      EXPECT_EQ(stage.total_retries(), stage.tasks.size()) << stage.name;
    } else if (stage.name != "data:materialize") {
      EXPECT_EQ(stage.total_retries(), 0u) << stage.name;
    }
  }
  EXPECT_GT(faulty.metrics.total_retry_cost(), 0u);
}

TEST(DrapidFaults, LostSpillPartitionsShareOneRecomputeChain) {
  const auto data = prepare_pipeline_data(fault_pipeline());
  const auto [clean_ml, clean] = run_spilling_drapid(data, {});
  FaultPlan lose;
  lose.lose_spill_partitions = {0, 3, 5};
  const auto [faulty_ml, faulty] = run_spilling_drapid(data, lose);
  EXPECT_EQ(faulty_ml, clean_ml) << "output must be byte-identical";
  EXPECT_EQ(faulty.partitions_recovered, 3u);
  std::size_t loads = 0;
  for (const auto& stage : faulty.metrics.stages) {
    loads += stage.name == "recompute:load:d.csv";
  }
  EXPECT_EQ(loads, 1u) << "three lost partitions, one run of the chain";
}

TEST(DrapidFaults, RateBasedFaultsStillProduceIdenticalResults) {
  const auto cfg = fault_pipeline();
  const auto data = prepare_pipeline_data(cfg);
  const auto run = [&](double rate) {
    BlockStore store(15);
    store.put("d.csv", data.data_csv);
    store.put("c.csv", data.cluster_csv);
    EngineConfig engine_cfg;
    engine_cfg.num_executors = 1;
    engine_cfg.cores_per_executor = 2;
    engine_cfg.exec.threads_per_worker = 2;
    engine_cfg.partitions_per_core = 4;
    engine_cfg.executor_memory_bytes = 64 << 10;
    engine_cfg.faults.seed = 13;
    engine_cfg.faults.task_failure_rate = rate;
    engine_cfg.faults.spill_fault_rate = rate;
    Engine engine(engine_cfg);
    auto result = run_drapid(engine, store, "d.csv", "c.csv", "ml",
                             *cfg.survey.grid, {});
    return std::make_pair(store.get("ml"), std::move(result));
  };
  const auto [clean_ml, clean] = run(0.0);
  const auto [faulty_ml, faulty] = run(0.3);
  EXPECT_EQ(faulty_ml, clean_ml);
  EXPECT_GT(faulty.metrics.total_retries(), clean.metrics.total_retries());
}

}  // namespace
}  // namespace drapid
