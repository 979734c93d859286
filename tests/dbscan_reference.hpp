// Test-only reference DBSCAN: the plain time-window scan that
// dbscan_cluster's banded neighbour index must reproduce exactly — same
// labels, same cluster ids, same member order. Every query scans all points
// within ±eps_time_s across every DM trial, and the BFS queues every
// neighbour of every core point, skipping claimed ones when popped.
#pragma once

#include <algorithm>
#include <cmath>
#include <deque>
#include <numeric>
#include <vector>

#include "clustering/dbscan.hpp"

namespace drapid {

inline ClusteringResult reference_dbscan(const ObservationData& obs,
                                         const DmGrid& grid,
                                         const DbscanParams& params) {
  struct Point {
    double time = 0.0;
    double trial = 0.0;
    std::size_t event_index = 0;
  };
  ClusteringResult result;
  result.labels.assign(obs.events.size(), -1);
  if (obs.events.empty()) return result;
  std::vector<Point> pts;
  for (std::size_t i = 0; i < obs.events.size(); ++i) {
    pts.push_back(Point{obs.events[i].time_s,
                        static_cast<double>(grid.index_of(obs.events[i].dm)),
                        i});
  }
  std::sort(pts.begin(), pts.end(),
            [](const Point& a, const Point& b) { return a.time < b.time; });
  const auto neighbours_of = [&](std::size_t i) {
    std::vector<std::size_t> out;
    const Point& p = pts[i];
    auto it = std::lower_bound(
        pts.begin(), pts.end(), p.time - params.eps_time_s,
        [](const Point& a, double t) { return a.time < t; });
    for (; it != pts.end() && it->time <= p.time + params.eps_time_s; ++it) {
      const double dt = (it->time - p.time) / params.eps_time_s;
      const double dd = (it->trial - p.trial) / params.eps_dm_trials;
      if (dt * dt + dd * dd <= 1.0) {
        out.push_back(static_cast<std::size_t>(it - pts.begin()));
      }
    }
    return out;
  };

  struct Fragment {
    std::vector<std::size_t> members;
    double trial_min = 0.0, trial_max = 0.0, time_centroid = 0.0;
  };
  std::vector<int> label(pts.size(), -2);
  std::vector<Fragment> fragments;
  int next_cluster = 0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (label[i] != -2) continue;
    const auto seed = neighbours_of(i);
    if (seed.size() < params.min_pts) {
      label[i] = -1;
      continue;
    }
    const int cid = next_cluster++;
    label[i] = cid;
    std::deque<std::size_t> queue(seed.begin(), seed.end());
    Fragment frag;
    frag.members.push_back(pts[i].event_index);
    double time_sum = pts[i].time;
    frag.trial_min = frag.trial_max = pts[i].trial;
    while (!queue.empty()) {
      const std::size_t j = queue.front();
      queue.pop_front();
      if (label[j] == -1) label[j] = cid;  // border point adopted
      if (label[j] != -2) continue;
      label[j] = cid;
      frag.members.push_back(pts[j].event_index);
      time_sum += pts[j].time;
      frag.trial_min = std::min(frag.trial_min, pts[j].trial);
      frag.trial_max = std::max(frag.trial_max, pts[j].trial);
      const auto expansion = neighbours_of(j);
      if (expansion.size() >= params.min_pts) {
        queue.insert(queue.end(), expansion.begin(), expansion.end());
      }
    }
    frag.time_centroid = time_sum / static_cast<double>(frag.members.size());
    fragments.push_back(std::move(frag));
  }

  // Merge pass over all fragment pairs, then dense ids in order of first
  // appearance.
  std::vector<std::size_t> parent(fragments.size());
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  const auto find = [&](std::size_t x) {
    while (parent[x] != x) x = parent[x];
    return x;
  };
  for (std::size_t a = 0; params.merge_fragments && a < fragments.size(); ++a) {
    for (std::size_t b = a + 1; b < fragments.size(); ++b) {
      const Fragment& fa = fragments[a];
      const Fragment& fb = fragments[b];
      if (std::abs(fa.time_centroid - fb.time_centroid) >
          params.merge_time_gap_s) {
        continue;
      }
      const double gap = std::max(fa.trial_min, fb.trial_min) -
                         std::min(fa.trial_max, fb.trial_max);
      if (gap <= params.merge_dm_gap_trials) parent[find(a)] = find(b);
    }
  }
  std::vector<int> root_to_cluster(fragments.size(), -1);
  for (std::size_t f = 0; f < fragments.size(); ++f) {
    const std::size_t root = find(f);
    if (root_to_cluster[root] == -1) {
      root_to_cluster[root] = static_cast<int>(result.clusters.size());
      result.clusters.push_back(SpeCluster{root_to_cluster[root], {}});
    }
    auto& members =
        result.clusters[static_cast<std::size_t>(root_to_cluster[root])]
            .members;
    members.insert(members.end(), fragments[f].members.begin(),
                   fragments[f].members.end());
  }
  for (auto& cluster : result.clusters) {
    std::sort(cluster.members.begin(), cluster.members.end());
    for (std::size_t e : cluster.members) result.labels[e] = cluster.id;
  }
  return result;
}

}  // namespace drapid
