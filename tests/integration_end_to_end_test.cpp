// Integration tests spanning every subsystem: survey simulation through
// D-RAPID search through ALM classification, plus failure injection on the
// file formats the driver consumes.
#include <gtest/gtest.h>

#include <sstream>

#include "drapid/pipeline.hpp"
#include "exp/trial_runner.hpp"
#include "ml/random_forest.hpp"

namespace drapid {
namespace {

EngineConfig small_engine() {
  EngineConfig cfg;
  cfg.num_executors = 3;
  cfg.exec.threads_per_worker = 2;
  cfg.partitions_per_core = 2;
  return cfg;
}

TEST(Integration, SurveyToClassificationRoundTrip) {
  // Stages 1-3: simulate, cluster, search — via the distributed driver.
  Engine engine(small_engine());
  BlockStore store(15);
  PipelineConfig pipeline;
  pipeline.survey = SurveyConfig::gbt350drift();
  pipeline.survey.obs_length_s = 50.0;
  pipeline.num_observations = 6;
  pipeline.visibility = 0.12;
  pipeline.seed = 404;
  const auto run = run_full_pipeline(engine, store, pipeline);
  ASSERT_GT(run.result.records.size(), 50u);

  // Stage 4: train on the driver's own labeled output.
  std::vector<LabeledPulse> pulses;
  for (const auto& rec : run.result.records) {
    LabeledPulse lp;
    lp.features = rec.features;
    lp.is_pulsar = !rec.truth_label.empty();
    lp.is_rrat = rec.truth_label == "rrat";
    pulses.push_back(lp);
  }
  std::size_t positives = 0;
  for (const auto& p : pulses) positives += p.is_pulsar;
  if (positives < 30) GTEST_SKIP() << "seed produced too few positives";

  TrialSpec spec;
  spec.scheme = ml::AlmScheme::kBinary;
  spec.learner = ml::LearnerType::kRandomForest;
  const auto result = run_trial(pulses, spec);
  EXPECT_GT(result.recall, 0.5);
  EXPECT_GT(result.f_measure, 0.5);
}

TEST(Integration, MlFileOnStoreParsesBackToSameRecords) {
  Engine engine(small_engine());
  BlockStore store(15);
  PipelineConfig pipeline;
  pipeline.survey = SurveyConfig::gbt350drift();
  pipeline.survey.obs_length_s = 40.0;
  pipeline.num_observations = 3;
  pipeline.seed = 11;
  const auto run = run_full_pipeline(engine, store, pipeline);
  std::istringstream in(store.get("GBT350Drift.ml.csv"));
  const auto parsed = read_ml_file(in);
  ASSERT_EQ(parsed.size(), run.result.records.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].obs, run.result.records[i].obs);
    EXPECT_EQ(parsed[i].cluster_id, run.result.records[i].cluster_id);
    EXPECT_DOUBLE_EQ(parsed[i].features[kSnrMax],
                     run.result.records[i].features[kSnrMax]);
  }
}

TEST(Integration, DriverRejectsMalformedDataFile) {
  Engine engine(small_engine());
  BlockStore store(4);
  store.put("bad.csv", "header\nnot,enough,fields\n");
  store.put("clusters.csv", std::string(kClusterFileHeader) + "\n");
  const DmGrid grid = DmGrid::gbt350drift();
  EXPECT_THROW(
      run_drapid(engine, store, "bad.csv", "clusters.csv", "", grid, {}),
      std::runtime_error);
}

TEST(Integration, DriverRejectsMissingInputFile) {
  Engine engine(small_engine());
  BlockStore store(4);
  const DmGrid grid = DmGrid::gbt350drift();
  EXPECT_THROW(run_drapid(engine, store, "absent.csv", "also-absent.csv", "",
                          grid, {}),
               std::runtime_error);
}

TEST(Integration, DriverRejectsCorruptNumericField) {
  Engine engine(small_engine());
  BlockStore store(4);
  store.put("d.csv", std::string(kDataFileHeader) +
                         "\nGBT,56000,1,2,0,abc,6.0,1.0,100,2\n");
  store.put("c.csv",
            std::string(kClusterFileHeader) +
                "\nGBT,56000,1,2,0,0,3,10,11,0.9,1.1,8.0,1\n");
  const DmGrid grid = DmGrid::gbt350drift();
  EXPECT_THROW(run_drapid(engine, store, "d.csv", "c.csv", "", grid, {}),
               std::runtime_error);
}

TEST(Integration, EmptyInputsProduceEmptyOutput) {
  Engine engine(small_engine());
  BlockStore store(4);
  store.put("d.csv", std::string(kDataFileHeader) + "\n");
  store.put("c.csv", std::string(kClusterFileHeader) + "\n");
  const DmGrid grid = DmGrid::gbt350drift();
  const auto result =
      run_drapid(engine, store, "d.csv", "c.csv", "out.csv", grid, {});
  EXPECT_TRUE(result.records.empty());
  EXPECT_TRUE(store.exists("out.csv"));
}

TEST(Integration, ClustersWithoutDataAreHandled) {
  // Left outer join semantics: a cluster whose observation has no SPE rows
  // yields null and is skipped by the search.
  Engine engine(small_engine());
  BlockStore store(4);
  store.put("d.csv", std::string(kDataFileHeader) + "\n");
  ClusterRecord rec;
  rec.obs.dataset = "X";
  rec.cluster_id = 1;
  rec.num_spes = 5;
  std::ostringstream clusters;
  write_cluster_file(clusters, {rec});
  store.put("c.csv", clusters.str());
  const DmGrid grid = DmGrid::gbt350drift();
  const auto result = run_drapid(engine, store, "d.csv", "c.csv", "", grid, {});
  EXPECT_TRUE(result.records.empty());
  EXPECT_EQ(result.clusters_searched, 1u);
}

TEST(Integration, ParallelForestMatchesSerialForest) {
  // The future-work extension: tree-parallel training must be bit-identical
  // to serial training.
  Engine engine(small_engine());
  BlockStore store(15);
  PipelineConfig pipeline;
  pipeline.survey = SurveyConfig::gbt350drift();
  pipeline.survey.obs_length_s = 40.0;
  pipeline.num_observations = 4;
  pipeline.visibility = 0.12;
  pipeline.seed = 77;
  const auto run = run_full_pipeline(engine, store, pipeline);
  std::vector<LabeledPulse> pulses;
  for (const auto& rec : run.result.records) {
    LabeledPulse lp;
    lp.features = rec.features;
    lp.is_pulsar = !rec.truth_label.empty();
    pulses.push_back(lp);
  }
  const auto data = make_alm_dataset(pulses, ml::AlmScheme::kBinary);
  ml::ForestParams serial;
  serial.num_trees = 8;
  ml::ForestParams parallel = serial;
  parallel.training_threads = 4;
  ml::RandomForest a(serial, 5), b(parallel, 5);
  a.train(data);
  b.train(data);
  EXPECT_EQ(a.total_nodes(), b.total_nodes());
  for (std::size_t i = 0; i < data.num_instances(); i += 7) {
    ASSERT_EQ(a.predict(data.instance(i)), b.predict(data.instance(i)));
  }
}

}  // namespace
}  // namespace drapid
