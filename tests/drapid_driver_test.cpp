#include "drapid/driver.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "drapid/pipeline.hpp"
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

}  // namespace
}  // namespace drapid
