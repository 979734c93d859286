#include "drapid/driver.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "dataflow/engine.hpp"
#include "drapid/pipeline.hpp"
#include "obs/counters.hpp"
#include "rapid/multithreaded.hpp"

namespace drapid {
namespace {

EngineConfig engine_config(std::size_t executors = 4) {
  EngineConfig cfg;
  cfg.num_executors = executors;
  cfg.cores_per_executor = 2;
  cfg.exec.threads_per_worker = 2;
  cfg.partitions_per_core = 4;
  cfg.executor_memory_bytes = 64ull << 20;
  return cfg;
}

PipelineConfig small_pipeline(std::uint64_t seed = 5) {
  PipelineConfig cfg;
  cfg.survey = SurveyConfig::gbt350drift();
  cfg.survey.obs_length_s = 60.0;
  cfg.survey.noise_events_per_second = 10.0;
  cfg.num_observations = 4;
  cfg.visibility = 0.08;
  cfg.seed = seed;
  return cfg;
}

TEST(DrapidDriver, EndToEndProducesLabeledPulses) {
  Engine engine(engine_config());
  BlockStore store(15);
  const auto run = run_full_pipeline(engine, store, small_pipeline());
  ASSERT_GT(run.data.total_spes, 1000u);
  ASSERT_GT(run.data.clusters.size(), 10u);
  EXPECT_GT(run.result.records.size(), 0u);
  EXPECT_EQ(run.result.clusters_searched, run.data.clusters.size());
  EXPECT_GT(run.result.spes_scanned, 0u);
  // The ML file landed in the store.
  EXPECT_TRUE(store.exists("GBT350Drift.ml.csv"));
}

TEST(DrapidDriver, MatchesMultithreadedRapidResults) {
  // RQ2 ground truth: D-RAPID and the multithreaded baseline implement the
  // same search; on the same input they must find pulses in the same
  // clusters with matching peak features.
  Engine engine(engine_config());
  BlockStore store(15);
  const auto cfg = small_pipeline(11);
  const auto run = run_full_pipeline(engine, store, cfg);

  // Multithreaded baseline over the same observations.
  std::vector<IdentifiedPulse> baseline;
  for (const auto& obs : run.data.observations) {
    const auto clustering =
        dbscan_cluster(obs.data, *cfg.survey.grid, cfg.dbscan);
    const auto items = make_work_items(obs.data, clustering);
    const auto found =
        run_rapid_multithreaded(items, cfg.drapid.rapid, *cfg.survey.grid, 2);
    baseline.insert(baseline.end(), found.begin(), found.end());
  }
  ASSERT_GT(baseline.size(), 0u);
  // Every baseline pulse has a D-RAPID record with the same peak DM.
  // (The distributed path selects cluster SPEs by bounding box rather than
  // exact membership, so allow a small mismatch count from overlaps.)
  std::size_t matched = 0;
  for (const auto& bp : baseline) {
    for (const auto& rec : run.result.records) {
      if (rec.obs == bp.cluster.obs && rec.cluster_id == bp.cluster.cluster_id &&
          std::abs(rec.features[kSnrPeakDm] - bp.features[kSnrPeakDm]) < 1e-6) {
        ++matched;
        break;
      }
    }
  }
  EXPECT_GE(matched, baseline.size() * 9 / 10)
      << matched << " of " << baseline.size();
}

TEST(DrapidDriver, RecordsAreDeterministicAcrossRuns) {
  const auto once = [](std::size_t threads) {
    EngineConfig cfg = engine_config();
    cfg.exec.threads_per_worker = threads;
    Engine engine(cfg);
    BlockStore store(15);
    return run_full_pipeline(engine, store, small_pipeline(21)).result.records;
  };
  const auto a = once(1);
  const auto b = once(3);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].obs, b[i].obs);
    EXPECT_EQ(a[i].cluster_id, b[i].cluster_id);
    EXPECT_EQ(a[i].pulse_index, b[i].pulse_index);
    EXPECT_DOUBLE_EQ(a[i].features[kSnrPeakDm], b[i].features[kSnrPeakDm]);
  }
}

TEST(DrapidDriver, CopartitioningEliminatesJoinShuffle) {
  BlockStore store(15);
  const auto cfg = small_pipeline(31);
  const auto data = prepare_pipeline_data(cfg);
  store.put("d.csv", data.data_csv);
  store.put("c.csv", data.cluster_csv);

  // Shuffle traffic attributable to the join itself (the internal
  // shuffleL/shuffleR stages the join inserts for non-conforming inputs).
  const auto join_shuffle_bytes = [](const JobMetrics& m) {
    std::size_t bytes = 0;
    for (const auto& s : m.stages) {
      if (s.name.rfind("join:clusters+data:shuffle", 0) == 0) {
        bytes += s.total_shuffle_bytes();
      }
    }
    return bytes;
  };

  Engine engine(engine_config());
  DrapidConfig with;
  auto r_with = run_drapid(engine, store, "d.csv", "c.csv", "", *cfg.survey.grid, with);
  DrapidConfig without;
  without.copartition = false;
  auto r_without =
      run_drapid(engine, store, "d.csv", "c.csv", "", *cfg.survey.grid, without);

  // Same results either way...
  ASSERT_EQ(r_with.records.size(), r_without.records.size());
  // ...but only the co-partitioned plan performs the join with zero
  // shuffle — the paper's "matching keys are naturally colocated" claim.
  EXPECT_EQ(join_shuffle_bytes(r_with.metrics), 0u);
  EXPECT_GT(join_shuffle_bytes(r_without.metrics), 0u);
}

TEST(DrapidDriver, SkippingAggregationInflatesJoinOutput) {
  BlockStore store(15);
  const auto cfg = small_pipeline(41);
  const auto data = prepare_pipeline_data(cfg);
  store.put("d.csv", data.data_csv);
  store.put("c.csv", data.cluster_csv);

  const auto join_bytes_out = [](const JobMetrics& m) {
    std::size_t bytes = 0;
    for (const auto& s : m.stages) {
      if (s.name == "join:clusters+data") {
        for (const auto& t : s.tasks) bytes += t.bytes_out;
      }
    }
    return bytes;
  };

  Engine engine(engine_config());
  DrapidConfig with;
  auto r_with = run_drapid(engine, store, "d.csv", "c.csv", "", *cfg.survey.grid, with);
  DrapidConfig without;
  without.aggregate_before_join = false;
  auto r_without =
      run_drapid(engine, store, "d.csv", "c.csv", "", *cfg.survey.grid, without);

  ASSERT_EQ(r_with.records.size(), r_without.records.size());
  // Duplicate cluster keys each drag a copy of the observation's SPE blob
  // through the join: output bytes inflate by roughly the cluster count.
  EXPECT_GT(join_bytes_out(r_without.metrics),
            2 * join_bytes_out(r_with.metrics));
}

TEST(DrapidDriver, TruthLabelsMarkInjectedPulses) {
  Engine engine(engine_config());
  BlockStore store(15);
  auto cfg = small_pipeline(51);
  cfg.visibility = 0.15;  // more pulsars in beam
  const auto run = run_full_pipeline(engine, store, cfg);
  std::size_t labeled = 0;
  for (const auto& rec : run.result.records) {
    labeled += !rec.truth_label.empty();
  }
  std::size_t truth_pulses = 0;
  for (const auto& obs : run.data.observations) {
    truth_pulses += obs.truth.size();
  }
  if (truth_pulses == 0) GTEST_SKIP() << "no injections at this seed";
  EXPECT_GT(labeled, 0u);
  EXPECT_LT(labeled, run.result.records.size());  // noise exists too
}

TEST(DrapidDriver, SpillsWhenExecutorMemoryTooSmall) {
  BlockStore store(15);
  const auto cfg = small_pipeline(61);
  const auto data = prepare_pipeline_data(cfg);
  store.put("d.csv", data.data_csv);
  store.put("c.csv", data.cluster_csv);

  EngineConfig small = engine_config(/*executors=*/1);
  small.executor_memory_bytes = 64 << 10;  // 64 KB: cannot hold the dataset
  Engine engine(small);
  const auto r = run_drapid(engine, store, "d.csv", "c.csv", "",
                            *cfg.survey.grid, {});
  EXPECT_GT(r.metrics.total_spill_bytes(), 0u);

  EngineConfig big = engine_config(/*executors=*/8);
  Engine engine2(big);
  const auto r2 = run_drapid(engine2, store, "d.csv", "c.csv", "",
                             *cfg.survey.grid, {});
  EXPECT_EQ(r2.metrics.total_spill_bytes(), 0u);
  EXPECT_EQ(r.records.size(), r2.records.size());
}

// The cached SPE RDD of a pooled run stays in the workers: sizing it for the
// memory budget reads the producing tasks' estimates instead of pulling the
// partitions back, and the estimate is the local backend's to the byte.
struct PooledCacheRun {
  DrapidResult result;
  std::string ml;
  std::int64_t unstaged_ipc = 0;  ///< engine.ipc_bytes outside any stage
};

PooledCacheRun run_cached(BlockStore& store, const PipelineConfig& cfg,
                          EngineConfig engine_cfg) {
  auto& ipc = obs::global_counters().counter("engine.ipc_bytes");
  const std::int64_t before = ipc.value();
  PooledCacheRun run;
  {
    Engine engine(engine_cfg);
    run.result = run_drapid(engine, store, "d.csv", "c.csv", "ml.csv",
                            *cfg.survey.grid, {});
  }
  run.ml = store.get("ml.csv");
  run.unstaged_ipc = ipc.value() - before;
  for (const auto& stage : run.result.metrics.stages) {
    run.unstaged_ipc -= static_cast<std::int64_t>(stage.ipc_bytes);
  }
  return run;
}

TEST(DrapidPooledCache, EstimateAndSpillDecisionMatchLocal) {
  if (!process_executor_supported()) GTEST_SKIP() << "no fork backend";
  BlockStore store(15);
  const auto cfg = small_pipeline(71);
  const auto data = prepare_pipeline_data(cfg);
  store.put("d.csv", data.data_csv);
  store.put("c.csv", data.cluster_csv);

  EngineConfig local = engine_config(/*executors=*/1);
  EngineConfig pooled = local;
  pooled.exec = ExecPolicy::process(3, 1);
  const PooledCacheRun l = run_cached(store, cfg, local);
  const PooledCacheRun p = run_cached(store, cfg, pooled);
  ASSERT_FALSE(l.result.cache_spilled);
  ASSERT_GT(l.result.cache_bytes, 0u);
  EXPECT_EQ(p.result.cache_bytes, l.result.cache_bytes);
  EXPECT_FALSE(p.result.cache_spilled);
  EXPECT_EQ(p.ml, l.ml);
  // Outside the stages only the ML rows' collect and the release and
  // shutdown frames cross the sockets. The cached SPE set, which sizing used
  // to pull back whole, is several times larger than all of them.
  EXPECT_GT(p.unstaged_ipc, 0);
  EXPECT_LT(static_cast<std::size_t>(p.unstaged_ipc),
            l.result.cache_bytes / 2);

  // A budget of exactly the estimate holds the dataset; one byte less
  // spills it. Both backends decide alike on both sides of the edge.
  for (const std::size_t budget :
       {l.result.cache_bytes, l.result.cache_bytes - 1}) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    local.executor_memory_bytes = budget;
    pooled.executor_memory_bytes = budget;
    const PooledCacheRun lb = run_cached(store, cfg, local);
    const PooledCacheRun pb = run_cached(store, cfg, pooled);
    EXPECT_EQ(lb.result.cache_spilled, budget < l.result.cache_bytes);
    EXPECT_EQ(pb.result.cache_spilled, lb.result.cache_spilled);
    EXPECT_EQ(pb.result.cache_bytes, lb.result.cache_bytes);
    EXPECT_EQ(pb.ml, l.ml) << "a spilled pooled cache must not change the ML";
    EXPECT_EQ(pb.result.metrics.total_spill_bytes(),
              lb.result.metrics.total_spill_bytes());
  }
}

}  // namespace
}  // namespace drapid
