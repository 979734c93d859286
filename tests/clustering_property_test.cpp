// Property tests for the clustering substrate: invariances that must hold
// for any input the simulator can produce.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "clustering/dbscan.hpp"
#include "dbscan_reference.hpp"
#include "util/rng.hpp"

namespace drapid {
namespace {

ObservationData random_observation(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  ObservationData obs;
  obs.id.dataset = "PROP";
  for (std::size_t i = 0; i < n; ++i) {
    SinglePulseEvent e;
    // Mixture: half clumped, half scattered.
    if (rng.chance(0.5)) {
      const double c_dm = rng.uniform(10.0, 90.0);
      const double c_t = rng.uniform(0.0, 50.0);
      e.dm = c_dm + rng.normal(0.0, 0.3);
      e.time_s = c_t + rng.normal(0.0, 0.01);
    } else {
      e.dm = rng.uniform(0.0, 100.0);
      e.time_s = rng.uniform(0.0, 50.0);
    }
    e.snr = 5.0 + rng.exponential(1.0);
    obs.events.push_back(e);
  }
  return obs;
}

/// Canonical form of a clustering: the set of member-index sets.
std::set<std::set<std::size_t>> canonical(const ClusteringResult& result) {
  std::set<std::set<std::size_t>> out;
  for (const auto& c : result.clusters) {
    out.insert(std::set<std::size_t>(c.members.begin(), c.members.end()));
  }
  return out;
}

class DbscanProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DbscanProperties, EveryEventIsNoiseOrInExactlyOneCluster) {
  const auto obs = random_observation(GetParam(), 400);
  const DmGrid grid({{0.0, 100.0, 0.1}});
  const auto result = dbscan_cluster(obs, grid, {});
  std::map<std::size_t, int> memberships;
  for (const auto& c : result.clusters) {
    for (std::size_t m : c.members) ++memberships[m];
  }
  for (const auto& [event, count] : memberships) {
    EXPECT_EQ(count, 1) << "event " << event << " in " << count << " clusters";
  }
  for (std::size_t i = 0; i < obs.events.size(); ++i) {
    const bool member = memberships.count(i) > 0;
    EXPECT_EQ(member, result.labels[i] >= 0);
  }
}

TEST_P(DbscanProperties, InvariantUnderEventPermutation) {
  auto obs = random_observation(GetParam(), 300);
  const DmGrid grid({{0.0, 100.0, 0.1}});
  const auto base = dbscan_cluster(obs, grid, {});

  // Permute events; map results back through the permutation.
  Rng rng(GetParam() ^ 0xabcdef);
  std::vector<std::size_t> perm(obs.events.size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  rng.shuffle(perm);
  ObservationData shuffled;
  shuffled.id = obs.id;
  shuffled.events.resize(obs.events.size());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    shuffled.events[i] = obs.events[perm[i]];
  }
  const auto permuted = dbscan_cluster(shuffled, grid, {});

  // Canonicalize the permuted result back into original indices.
  std::set<std::set<std::size_t>> remapped;
  for (const auto& c : permuted.clusters) {
    std::set<std::size_t> members;
    for (std::size_t m : c.members) members.insert(perm[m]);
    remapped.insert(std::move(members));
  }
  EXPECT_EQ(remapped, canonical(base));
}

TEST_P(DbscanProperties, MergePassNeverSplitsClusters) {
  // Merging can only coarsen the partition: every unmerged cluster must be
  // wholly contained in some merged cluster.
  const auto obs = random_observation(GetParam(), 400);
  const DmGrid grid({{0.0, 100.0, 0.1}});
  DbscanParams merged_params;
  DbscanParams unmerged_params;
  unmerged_params.merge_fragments = false;
  const auto merged = dbscan_cluster(obs, grid, merged_params);
  const auto unmerged = dbscan_cluster(obs, grid, unmerged_params);
  EXPECT_LE(merged.clusters.size(), unmerged.clusters.size());
  for (const auto& fragment : unmerged.clusters) {
    ASSERT_FALSE(fragment.members.empty());
    const int target = merged.labels[fragment.members.front()];
    for (std::size_t m : fragment.members) {
      EXPECT_EQ(merged.labels[m], target)
          << "fragment split across merged clusters";
    }
  }
}

TEST_P(DbscanProperties, RecordsMatchMembership) {
  const auto obs = random_observation(GetParam(), 350);
  const DmGrid grid({{0.0, 100.0, 0.1}});
  const auto result = dbscan_cluster(obs, grid, {});
  const auto records = make_cluster_records(obs, result);
  ASSERT_EQ(records.size(), result.clusters.size());
  std::set<int> ranks;
  for (std::size_t c = 0; c < records.size(); ++c) {
    EXPECT_EQ(records[c].num_spes, result.clusters[c].members.size());
    for (std::size_t m : result.clusters[c].members) {
      const auto& e = obs.events[m];
      EXPECT_GE(e.dm, records[c].dm_min);
      EXPECT_LE(e.dm, records[c].dm_max);
      EXPECT_GE(e.time_s, records[c].time_min);
      EXPECT_LE(e.time_s, records[c].time_max);
      EXPECT_LE(e.snr, records[c].snr_max);
    }
    ranks.insert(records[c].rank);
  }
  // Ranks are a permutation of 1..k.
  EXPECT_EQ(ranks.size(), records.size());
  if (!records.empty()) {
    EXPECT_EQ(*ranks.begin(), 1);
    EXPECT_EQ(*ranks.rbegin(), static_cast<int>(records.size()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DbscanProperties,
                         ::testing::Values(1, 7, 42, 99, 1234));

// --- Exact equality with the time-window-scan reference --------------------

/// Interference columns: bursts of events at one sample across runs of
/// consecutive DM trials (what zero-DM leftovers and noise false alarms
/// look like after the sweep), over a scattered background.
ObservationData column_observation(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  ObservationData obs;
  obs.id.dataset = "COLUMN";
  while (obs.events.size() < n) {
    const double t = 0.001 * static_cast<double>(rng.below(50000));
    if (rng.chance(0.3)) {
      SinglePulseEvent e;
      e.dm = rng.uniform(0.0, 100.0);
      e.time_s = t;
      e.snr = 5.0 + rng.exponential(1.0);
      obs.events.push_back(e);
      continue;
    }
    const auto first = rng.below(900);
    const auto height = 1 + rng.below(150);
    for (std::uint64_t k = first; k < first + height && obs.events.size() < n;
         ++k) {
      if (rng.chance(0.1)) continue;  // holes split the column
      SinglePulseEvent e;
      e.dm = 0.1 * static_cast<double>(k);
      e.time_s = t + (rng.chance(0.2) ? 0.001 : 0.0);
      e.snr = 5.0 + rng.exponential(1.0);
      obs.events.push_back(e);
    }
  }
  return obs;
}

/// Many events sharing each time value: times on a coarse 10 ms grid.
ObservationData tied_observation(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  ObservationData obs = random_observation(seed ^ 0x71e5, n);
  for (auto& e : obs.events) {
    e.time_s = 0.01 * static_cast<double>(rng.below(400));
  }
  return obs;
}

void expect_same_clustering(const ClusteringResult& got,
                            const ClusteringResult& want,
                            const std::string& context) {
  ASSERT_EQ(got.labels, want.labels) << context;
  ASSERT_EQ(got.clusters.size(), want.clusters.size()) << context;
  for (std::size_t c = 0; c < want.clusters.size(); ++c) {
    EXPECT_EQ(got.clusters[c].id, want.clusters[c].id) << context;
    EXPECT_EQ(got.clusters[c].members, want.clusters[c].members) << context;
  }
}

class DbscanOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DbscanOracle, MatchesTimeWindowScanExactly) {
  const std::uint64_t seed = GetParam();
  const DmGrid grid({{0.0, 100.0, 0.1}});
  const std::vector<std::pair<std::string, ObservationData>> inputs = {
      {"columns", column_observation(seed, 3000)},
      {"mixture", random_observation(seed, 1500)},
      {"tied", tied_observation(seed, 1500)},
  };
  std::vector<DbscanParams> variants(8);
  variants[1].eps_dm_trials = 2.5;
  variants[2].eps_dm_trials = 0.7;
  variants[3].eps_dm_trials = 1e-3;
  variants[4].eps_dm_trials = 1e-12;
  variants[5].eps_dm_trials = 13.0 / 3.0;
  variants[5].eps_time_s = 0.0123;
  variants[6].min_pts = 1;
  variants[6].merge_fragments = false;
  variants[7].min_pts = 8;
  variants[7].eps_time_s = 0.002;
  for (const auto& [name, obs] : inputs) {
    for (std::size_t v = 0; v < variants.size(); ++v) {
      expect_same_clustering(
          dbscan_cluster(obs, grid, variants[v]),
          reference_dbscan(obs, grid, variants[v]),
          name + " seed " + std::to_string(seed) + " variant " +
              std::to_string(v));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DbscanOracle,
                         ::testing::Values(1, 2, 3, 17, 42, 99, 1234, 5150));

}  // namespace
}  // namespace drapid
