// The §4 PALFA labeling path: crossmatching identified pulses against a
// known-source catalogue by sky position + DM, compared against the exact
// simulator ground truth.
#include <gtest/gtest.h>

#include "drapid/pipeline.hpp"

namespace drapid {
namespace {

TEST(CatalogFromPopulation, CarriesEveryField) {
  PopulationConfig cfg;
  cfg.num_pulsars = 5;
  cfg.num_rrats = 2;
  Rng rng(3);
  const auto sources = draw_population(cfg, rng);
  const auto catalog = catalog_from_population(sources);
  ASSERT_EQ(catalog.size(), 7u);
  for (const auto& src : sources) {
    const auto hit = catalog.find(src.name);
    ASSERT_TRUE(hit.has_value()) << src.name;
    EXPECT_DOUBLE_EQ(hit->ra_deg, src.ra_deg);
    EXPECT_DOUBLE_EQ(hit->dm, src.dm);
    EXPECT_EQ(hit->is_rrat, src.type == SourceType::kRrat);
  }
}

TEST(CatalogLabeling, AgreesWithGroundTruthLabels) {
  EngineConfig engine_config;
  engine_config.num_executors = 3;
  engine_config.exec.threads_per_worker = 2;
  engine_config.partitions_per_core = 2;
  Engine engine(engine_config);
  BlockStore store(15);
  PipelineConfig pipeline;
  pipeline.survey = SurveyConfig::gbt350drift();
  pipeline.survey.obs_length_s = 50.0;
  pipeline.num_observations = 6;
  pipeline.visibility = 0.10;
  pipeline.seed = 2020;
  const auto run = run_full_pipeline(engine, store, pipeline);
  ASSERT_GT(run.result.records.size(), 50u);

  // Label a copy via the catalogue instead of the simulator truth.
  auto by_catalog = run.result.records;
  const auto catalog = catalog_from_population(run.data.sources);
  label_records_by_catalog(by_catalog, catalog);

  std::size_t truth_pos = 0, catalog_pos = 0, agree = 0;
  for (std::size_t i = 0; i < by_catalog.size(); ++i) {
    const bool t = !run.result.records[i].truth_label.empty();
    const bool c = !by_catalog[i].truth_label.empty();
    truth_pos += t;
    catalog_pos += c;
    agree += (t == c);
  }
  if (truth_pos < 10) GTEST_SKIP() << "seed produced too few positives";
  // Catalogue labeling has no time information, so it can only be a
  // superset-ish approximation of the per-pulse truth — but the two must
  // agree on the vast majority of records.
  EXPECT_GE(agree, by_catalog.size() * 85 / 100)
      << agree << " of " << by_catalog.size() << " (truth " << truth_pos
      << ", catalog " << catalog_pos << ")";
  EXPECT_GT(catalog_pos, 0u);
}

TEST(CatalogLabeling, BlankSkyMatchesNothing) {
  std::vector<MlRecord> records(1);
  records[0].obs.ra_deg = 10.0;
  records[0].obs.dec_deg = 10.0;
  records[0].features.values[kSnrPeakDm] = 50.0;
  SourceCatalog catalog;
  catalog.add({"far-away", 200.0, -20.0, 50.0, 1.0, false});
  label_records_by_catalog(records, catalog);
  EXPECT_TRUE(records[0].truth_label.empty());
}

TEST(CatalogLabeling, RratsGetTheirOwnLabel) {
  std::vector<MlRecord> records(1);
  records[0].obs.ra_deg = 100.0;
  records[0].obs.dec_deg = 5.0;
  records[0].features.values[kSnrPeakDm] = 120.0;
  SourceCatalog catalog;
  catalog.add({"R0001+00", 100.05, 5.02, 121.0, 0.0, true});
  label_records_by_catalog(records, catalog);
  EXPECT_EQ(records[0].truth_label, "rrat");
}

}  // namespace
}  // namespace drapid
