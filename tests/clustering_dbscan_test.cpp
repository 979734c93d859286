#include "clustering/dbscan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <stdexcept>

#include "synth/survey.hpp"
#include "util/rng.hpp"

namespace drapid {
namespace {

ObservationData make_obs(std::vector<SinglePulseEvent> events) {
  ObservationData obs;
  obs.id.dataset = "TEST";
  obs.events = std::move(events);
  return obs;
}

SinglePulseEvent spe(double dm, double t, double snr = 6.0) {
  SinglePulseEvent e;
  e.dm = dm;
  e.time_s = t;
  e.snr = snr;
  return e;
}

DmGrid fine_grid() { return DmGrid({{0.0, 100.0, 0.1}}); }

TEST(Dbscan, EmptyObservationYieldsNothing) {
  const auto obs = make_obs({});
  const auto result = dbscan_cluster(obs, fine_grid(), {});
  EXPECT_TRUE(result.clusters.empty());
  EXPECT_TRUE(result.labels.empty());
}

TEST(Dbscan, IsolatedPointsAreNoise) {
  const auto obs = make_obs({spe(10.0, 1.0), spe(50.0, 50.0), spe(90.0, 99.0)});
  const auto result = dbscan_cluster(obs, fine_grid(), {});
  EXPECT_TRUE(result.clusters.empty());
  for (int label : result.labels) EXPECT_EQ(label, -1);
}

TEST(Dbscan, TightGroupFormsOneCluster) {
  std::vector<SinglePulseEvent> events;
  for (int i = 0; i < 10; ++i) events.push_back(spe(10.0 + 0.1 * i, 1.0));
  const auto obs = make_obs(events);
  const auto result = dbscan_cluster(obs, fine_grid(), {});
  ASSERT_EQ(result.clusters.size(), 1u);
  EXPECT_EQ(result.clusters[0].members.size(), 10u);
  for (int label : result.labels) EXPECT_EQ(label, 0);
}

TEST(Dbscan, GroupsFarApartInTimeAreSeparate) {
  std::vector<SinglePulseEvent> events;
  for (int i = 0; i < 8; ++i) events.push_back(spe(10.0 + 0.1 * i, 1.0));
  for (int i = 0; i < 8; ++i) events.push_back(spe(10.0 + 0.1 * i, 50.0));
  const auto obs = make_obs(events);
  DbscanParams params;
  params.merge_time_gap_s = 0.1;
  const auto result = dbscan_cluster(obs, fine_grid(), params);
  EXPECT_EQ(result.clusters.size(), 2u);
}

TEST(Dbscan, MergePassRejoinsFragmentsSplitAlongDm) {
  // One pulse whose middle trials dipped below threshold: two fragments
  // separated by a small DM gap at the same time.
  std::vector<SinglePulseEvent> events;
  for (int i = 0; i < 6; ++i) events.push_back(spe(10.0 + 0.1 * i, 1.0));
  for (int i = 0; i < 6; ++i) events.push_back(spe(11.3 + 0.1 * i, 1.0));
  const auto obs = make_obs(events);
  DbscanParams merged;
  merged.eps_dm_trials = 3.0;  // gap of 7 trials splits the fragments
  const auto with_merge = dbscan_cluster(obs, fine_grid(), merged);
  EXPECT_EQ(with_merge.clusters.size(), 1u);

  DbscanParams unmerged = merged;
  unmerged.merge_fragments = false;
  const auto without = dbscan_cluster(obs, fine_grid(), unmerged);
  EXPECT_EQ(without.clusters.size(), 2u);
}

TEST(Dbscan, LabelsAndMembersAreConsistent) {
  Rng rng(5);
  std::vector<SinglePulseEvent> events;
  for (int g = 0; g < 5; ++g) {
    const double t = g * 10.0;
    const double dm = 10.0 + g * 5.0;
    for (int i = 0; i < 12; ++i) {
      events.push_back(spe(dm + 0.1 * i, t + rng.uniform(-0.01, 0.01)));
    }
  }
  for (int i = 0; i < 20; ++i) {
    events.push_back(spe(rng.uniform(0.0, 99.0), rng.uniform(100.0, 200.0)));
  }
  const auto obs = make_obs(events);
  const auto result = dbscan_cluster(obs, fine_grid(), {});
  ASSERT_EQ(result.labels.size(), obs.events.size());
  std::size_t labelled = 0;
  for (const auto& cluster : result.clusters) {
    std::set<std::size_t> seen;
    for (std::size_t e : cluster.members) {
      ASSERT_LT(e, obs.events.size());
      ASSERT_EQ(result.labels[e], cluster.id);
      ASSERT_TRUE(seen.insert(e).second) << "duplicate member";
    }
    labelled += cluster.members.size();
  }
  // Every non-noise label corresponds to exactly one membership.
  std::size_t non_noise = 0;
  for (int label : result.labels) non_noise += (label >= 0);
  EXPECT_EQ(labelled, non_noise);
  EXPECT_EQ(result.clusters.size(), 5u);
}

TEST(Dbscan, DmSpacingAwareNeighbourhoodClustersCoarseGridPulse) {
  // At high DM the trial spacing is 2.0; a pulse spanning 10 trials covers
  // 20 pc cm^-3. Index-space clustering must still see them as neighbours.
  DmGrid grid({{0.0, 100.0, 0.1}, {100.0, 2000.0, 2.0}});
  std::vector<SinglePulseEvent> events;
  for (int i = 0; i < 10; ++i) events.push_back(spe(1500.0 + 2.0 * i, 3.0));
  const auto obs = make_obs(events);
  const auto result = dbscan_cluster(obs, grid, {});
  ASSERT_EQ(result.clusters.size(), 1u);
  EXPECT_EQ(result.clusters[0].members.size(), 10u);
}

// Invalid neighbourhoods are rejected up front, even for an empty
// observation, instead of silently labelling everything noise.
void expect_rejected(const DbscanParams& params) {
  const auto obs = make_obs({spe(10.0, 1.0), spe(10.1, 1.0), spe(10.2, 1.0)});
  EXPECT_THROW(dbscan_cluster(obs, fine_grid(), params), std::invalid_argument);
  EXPECT_THROW(dbscan_cluster(make_obs({}), fine_grid(), params),
               std::invalid_argument);
}

DbscanParams with_eps_time(double eps) {
  DbscanParams params;
  params.eps_time_s = eps;
  return params;
}

DbscanParams with_eps_dm(double eps) {
  DbscanParams params;
  params.eps_dm_trials = eps;
  return params;
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(DbscanParamsValidation, RejectsZeroEpsTime) {
  expect_rejected(with_eps_time(0.0));
}
TEST(DbscanParamsValidation, RejectsNegativeEpsTime) {
  expect_rejected(with_eps_time(-0.05));
}
TEST(DbscanParamsValidation, RejectsNaNEpsTime) {
  expect_rejected(with_eps_time(kNaN));
}
TEST(DbscanParamsValidation, RejectsInfiniteEpsTime) {
  expect_rejected(with_eps_time(kInf));
}
TEST(DbscanParamsValidation, RejectsZeroEpsDm) {
  expect_rejected(with_eps_dm(0.0));
}
TEST(DbscanParamsValidation, RejectsNegativeEpsDm) {
  expect_rejected(with_eps_dm(-6.0));
}
TEST(DbscanParamsValidation, RejectsNaNEpsDm) {
  expect_rejected(with_eps_dm(kNaN));
}
TEST(DbscanParamsValidation, RejectsInfiniteEpsDm) {
  expect_rejected(with_eps_dm(kInf));
}
TEST(DbscanParamsValidation, RejectsZeroMinPts) {
  DbscanParams params;
  params.min_pts = 0;
  expect_rejected(params);
}

TEST(DbscanParamsValidation, AcceptsTinyPositiveEps) {
  // The smallest valid neighbourhood: only the point itself, so min_pts 1
  // makes every event its own cluster.
  DbscanParams params;
  params.eps_time_s = 1e-300;
  params.eps_dm_trials = 1e-300;
  params.min_pts = 1;
  params.merge_fragments = false;
  const auto obs = make_obs({spe(10.0, 1.0), spe(10.1, 1.0), spe(10.2, 1.0)});
  EXPECT_EQ(dbscan_cluster(obs, fine_grid(), params).clusters.size(), 3u);
}

TEST(ClusterRecords, BoundingBoxAndRank) {
  std::vector<SinglePulseEvent> events;
  for (int i = 0; i < 6; ++i) events.push_back(spe(10.0 + 0.1 * i, 1.0, 6.0));
  for (int i = 0; i < 6; ++i) events.push_back(spe(40.0 + 0.1 * i, 9.0, 15.0));
  const auto obs = make_obs(events);
  const auto result = dbscan_cluster(obs, fine_grid(), {});
  ASSERT_EQ(result.clusters.size(), 2u);
  const auto records = make_cluster_records(obs, result);
  ASSERT_EQ(records.size(), 2u);
  const auto& faint = records[0];
  const auto& bright = records[1];
  EXPECT_NEAR(faint.dm_min, 10.0, 1e-9);
  EXPECT_NEAR(faint.dm_max, 10.5, 1e-9);
  EXPECT_EQ(faint.num_spes, 6u);
  EXPECT_EQ(bright.rank, 1);  // brighter cluster ranks first
  EXPECT_EQ(faint.rank, 2);
  EXPECT_NEAR(bright.snr_max, 15.0, 1e-9);
}

TEST(ClusterEvents, SortedByDm) {
  std::vector<SinglePulseEvent> events{spe(12.0, 1.0), spe(10.0, 1.0),
                                       spe(11.0, 1.0), spe(10.5, 1.0),
                                       spe(11.5, 1.0)};
  const auto obs = make_obs(events);
  const auto result = dbscan_cluster(obs, fine_grid(), {});
  ASSERT_EQ(result.clusters.size(), 1u);
  const auto sorted = cluster_events(obs, result.clusters[0]);
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    ASSERT_LE(sorted[i - 1].dm, sorted[i].dm);
  }
}

TEST(Dbscan, SimulatedPulsarPulsesBecomeClusters) {
  SurveySimulator sim(SurveyConfig::gbt350drift(), 101);
  SyntheticSource src;
  src.name = "T";
  src.dm = 40.0;
  src.period_s = 10.0;
  src.width_ms = 10.0;
  src.median_snr = 25.0;
  src.snr_sigma = 0.1;
  src.emission_rate = 1.0;
  ObservationId id;
  id.dataset = "GBT350Drift";
  const auto obs = sim.simulate(id, {src});
  ASSERT_GT(obs.truth.size(), 5u);
  const auto result = dbscan_cluster(obs.data, *sim.config().grid, {});
  // Each bright injected pulse should be recoverable as (at least) one
  // cluster whose time span covers it.
  std::size_t found = 0;
  for (const auto& gt : obs.truth) {
    if (gt.peak_snr < 10.0) continue;
    bool hit = false;
    for (const auto& rec : make_cluster_records(obs.data, result)) {
      if (gt.time_s >= rec.time_min - 0.1 && gt.time_s <= rec.time_max + 0.1 &&
          gt.dm >= rec.dm_min - 1.0 && gt.dm <= rec.dm_max + 1.0) {
        hit = true;
        break;
      }
    }
    found += hit;
  }
  std::size_t bright = 0;
  for (const auto& gt : obs.truth) bright += (gt.peak_snr >= 10.0);
  EXPECT_GE(found, bright * 9 / 10) << "bright=" << bright;
}

}  // namespace
}  // namespace drapid
