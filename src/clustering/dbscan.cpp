#include "clustering/dbscan.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace drapid {

namespace {

/// Point view of one SPE in clustering space.
struct Point {
  double time = 0.0;
  double trial = 0.0;  // DM position in trial-index units
  std::size_t event_index = 0;
};

/// Neighbour finder over points sorted by time, with a DM-band index on top
/// of that order.
///
/// The time sort fixes everything downstream: point order, cluster ids in
/// first-seed order, member order and the summation order of each
/// fragment's time centroid. The band index only narrows where a query
/// looks. Bands are `eps_dm_trials` wide along the trial axis (one trial
/// wide for ε < 1: trials are integers, so narrower bands would only add
/// empty ones); each band lists its points (time, trial, index into
/// points()) in that same time order, all bands in one flat CSR array. A
/// query visits only the bands
/// overlapping [trial - ε, trial + ε], binary-searches each band's time
/// window, and merges the hits by index — so the neighbour list is exactly
/// what a scan of the whole time window across every trial would produce,
/// in the same ascending order, without that scan's cost on interference
/// columns (thousands of events at one sample across many trials).
class NeighbourIndex {
 public:
  NeighbourIndex(std::vector<Point> points, const DbscanParams& params)
      : points_(std::move(points)),
        eps_time_(params.eps_time_s),
        eps_dm_(params.eps_dm_trials),
        band_width_(std::max(params.eps_dm_trials, 1.0)) {
    std::sort(points_.begin(), points_.end(),
              [](const Point& a, const Point& b) { return a.time < b.time; });
    double max_trial = 0.0;
    for (const Point& p : points_) max_trial = std::max(max_trial, p.trial);
    last_band_ = std::floor(max_trial / band_width_);
    // Counting sort of the time-ordered points into their bands.
    band_start_.assign(static_cast<std::size_t>(last_band_) + 2, 0);
    for (const Point& p : points_) ++band_start_[band_of(p.trial) + 1];
    for (std::size_t b = 1; b < band_start_.size(); ++b) {
      band_start_[b] += band_start_[b - 1];
    }
    entries_.resize(points_.size());
    std::vector<std::size_t> fill(band_start_.begin(), band_start_.end() - 1);
    for (std::size_t i = 0; i < points_.size(); ++i) {
      const Point& p = points_[i];
      entries_[fill[band_of(p.trial)]++] = Entry{p.time, p.trial, i};
    }
  }

  const std::vector<Point>& points() const { return points_; }

  /// Indices (into points()) within the ε-neighbourhood of points()[i],
  /// including i itself, in ascending order.
  void neighbours_of(std::size_t i, std::vector<std::size_t>& out) {
    out.clear();
    const Point& p = points_[i];
    const double t_lo = p.time - eps_time_;
    const double t_hi = p.time + eps_time_;
    // Trials are integer grid indices, so a point passes the test below
    // only if its trial lies in [trial - ε, trial + ε] exactly. Both ends go
    // through band_of, the function that placed the points, and it is
    // monotone, so every such trial sits in a band between the two — for
    // any ε, integer or not.
    const std::size_t first = band_of(p.trial - eps_dm_);
    const std::size_t last = band_of(p.trial + eps_dm_);
    cursors_.clear();
    for (std::size_t b = first; b <= last; ++b) {
      const auto begin = entries_.begin() + band_start_[b];
      const auto end = entries_.begin() + band_start_[b + 1];
      const auto lo = std::lower_bound(
          begin, end, t_lo, [](const Entry& e, double t) { return e.time < t; });
      if (lo != end && lo->time <= t_hi) cursors_.push_back({lo, end});
    }
    // k-way merge by index over the bands visited: three or fewer, barring
    // rounding at a band edge.
    while (!cursors_.empty()) {
      std::size_t best = 0;
      for (std::size_t c = 1; c < cursors_.size(); ++c) {
        if (cursors_[c].at->index < cursors_[best].at->index) best = c;
      }
      Cursor& cur = cursors_[best];
      const Entry& e = *cur.at;
      const double dt = (e.time - p.time) / eps_time_;
      const double dd = (e.trial - p.trial) / eps_dm_;
      if (dt * dt + dd * dd <= 1.0) out.push_back(e.index);
      if (++cur.at == cur.end || cur.at->time > t_hi) {
        cur = cursors_.back();
        cursors_.pop_back();
      }
    }
  }

 private:
  struct Entry {
    double time;
    double trial;
    std::size_t index;  // into points_
  };
  using EntryIt = std::vector<Entry>::const_iterator;
  struct Cursor {
    EntryIt at, end;
  };

  /// floor(trial / band width), clamped to the bands that exist; monotone.
  std::size_t band_of(double trial) const {
    const double band = std::floor(trial / band_width_);
    if (!(band > 0.0)) return 0;
    return static_cast<std::size_t>(std::min(band, last_band_));
  }

  std::vector<Point> points_;
  double eps_time_;
  double eps_dm_;
  double band_width_;
  double last_band_ = 0.0;
  std::vector<std::size_t> band_start_;  // CSR offsets into entries_
  std::vector<Entry> entries_;           // per band, in time order
  std::vector<Cursor> cursors_;          // merge state, reused per query
};

struct Fragment {
  std::vector<std::size_t> event_indices;
  double trial_min = 0.0, trial_max = 0.0;
  double time_centroid = 0.0;
};

/// Union-find for the fragment merge pass.
class DisjointSets {
 public:
  explicit DisjointSets(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace

ClusteringResult dbscan_cluster(const ObservationData& obs, const DmGrid& grid,
                                const DbscanParams& params) {
  // A zero or non-finite ε would make every neighbourhood test NaN and
  // report the whole observation as noise; min_pts 0 makes every point core.
  if (!std::isfinite(params.eps_time_s) || params.eps_time_s <= 0.0 ||
      !std::isfinite(params.eps_dm_trials) || params.eps_dm_trials <= 0.0) {
    throw std::invalid_argument(
        "dbscan_cluster: eps_time_s and eps_dm_trials must be finite and > 0");
  }
  if (params.min_pts == 0) {
    throw std::invalid_argument("dbscan_cluster: min_pts must be at least 1");
  }
  ClusteringResult result;
  result.labels.assign(obs.events.size(), -1);
  if (obs.events.empty()) return result;

  std::vector<Point> points;
  points.reserve(obs.events.size());
  for (std::size_t i = 0; i < obs.events.size(); ++i) {
    points.push_back(Point{obs.events[i].time_s,
                           static_cast<double>(grid.index_of(obs.events[i].dm)),
                           i});
  }
  NeighbourIndex index(std::move(points), params);
  const auto& pts = index.points();

  // Standard DBSCAN: -2 = unvisited, -1 = noise, >=0 = cluster id. A point
  // is claimed when first queued, so each enters the queue once and joins
  // the fragment in first-reached (breadth-first) order. A point already
  // labelled noise — a seed that failed the core test — stays noise even
  // when a later core point reaches it.
  std::vector<int> label(pts.size(), -2);
  std::vector<std::size_t> neighbours, queue;
  int next_cluster = 0;
  std::vector<Fragment> fragments;

  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (label[i] != -2) continue;
    index.neighbours_of(i, neighbours);
    if (neighbours.size() < params.min_pts) {
      label[i] = -1;
      continue;
    }
    const int cid = next_cluster++;
    label[i] = cid;
    queue.clear();
    const auto claim = [&](const std::vector<std::size_t>& found) {
      for (const std::size_t j : found) {
        if (label[j] == -2) {
          label[j] = cid;
          queue.push_back(j);
        }
      }
    };
    claim(neighbours);
    Fragment frag;
    frag.event_indices.push_back(pts[i].event_index);
    double time_sum = pts[i].time;
    frag.trial_min = frag.trial_max = pts[i].trial;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const std::size_t j = queue[head];
      frag.event_indices.push_back(pts[j].event_index);
      time_sum += pts[j].time;
      frag.trial_min = std::min(frag.trial_min, pts[j].trial);
      frag.trial_max = std::max(frag.trial_max, pts[j].trial);
      index.neighbours_of(j, neighbours);
      if (neighbours.size() >= params.min_pts) claim(neighbours);
    }
    frag.time_centroid =
        time_sum / static_cast<double>(frag.event_indices.size());
    fragments.push_back(std::move(frag));
  }

  // Merge pass: rejoin fragments split by processing artifacts — close in
  // time, with only a small gap along the DM grid.
  DisjointSets sets(fragments.size());
  if (params.merge_fragments) {
    for (std::size_t a = 0; a < fragments.size(); ++a) {
      for (std::size_t b = a + 1; b < fragments.size(); ++b) {
        const Fragment& fa = fragments[a];
        const Fragment& fb = fragments[b];
        if (std::abs(fa.time_centroid - fb.time_centroid) >
            params.merge_time_gap_s) {
          continue;
        }
        const double gap = std::max(fa.trial_min, fb.trial_min) -
                           std::min(fa.trial_max, fb.trial_max);
        if (gap <= params.merge_dm_gap_trials) sets.unite(a, b);
      }
    }
  }

  // Emit merged clusters with dense ids, in order of first appearance.
  std::vector<int> root_to_cluster(fragments.size(), -1);
  for (std::size_t f = 0; f < fragments.size(); ++f) {
    const std::size_t root = sets.find(f);
    if (root_to_cluster[root] == -1) {
      root_to_cluster[root] = static_cast<int>(result.clusters.size());
      result.clusters.push_back(SpeCluster{root_to_cluster[root], {}});
    }
    auto& members =
        result.clusters[static_cast<std::size_t>(root_to_cluster[root])]
            .members;
    members.insert(members.end(), fragments[f].event_indices.begin(),
                   fragments[f].event_indices.end());
  }
  for (auto& cluster : result.clusters) {
    std::sort(cluster.members.begin(), cluster.members.end());
    for (std::size_t e : cluster.members) result.labels[e] = cluster.id;
  }
  return result;
}

std::vector<ClusterRecord> make_cluster_records(
    const ObservationData& obs, const ClusteringResult& result) {
  std::vector<ClusterRecord> records;
  records.reserve(result.clusters.size());
  for (const auto& cluster : result.clusters) {
    ClusterRecord rec;
    rec.obs = obs.id;
    rec.cluster_id = cluster.id;
    rec.num_spes = static_cast<std::uint32_t>(cluster.members.size());
    bool first = true;
    for (std::size_t e : cluster.members) {
      const auto& spe = obs.events[e];
      if (first) {
        rec.dm_min = rec.dm_max = spe.dm;
        rec.time_min = rec.time_max = spe.time_s;
        rec.snr_max = spe.snr;
        first = false;
      } else {
        rec.dm_min = std::min(rec.dm_min, spe.dm);
        rec.dm_max = std::max(rec.dm_max, spe.dm);
        rec.time_min = std::min(rec.time_min, spe.time_s);
        rec.time_max = std::max(rec.time_max, spe.time_s);
        rec.snr_max = std::max(rec.snr_max, spe.snr);
      }
    }
    records.push_back(rec);
  }
  // ClusterRank: 1 = brightest by SNR max (Table 1).
  std::vector<std::size_t> order(records.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return records[a].snr_max > records[b].snr_max;
  });
  for (std::size_t r = 0; r < order.size(); ++r) {
    records[order[r]].rank = static_cast<int>(r + 1);
  }
  return records;
}

std::vector<SinglePulseEvent> cluster_events(const ObservationData& obs,
                                             const SpeCluster& cluster) {
  std::vector<SinglePulseEvent> events;
  events.reserve(cluster.members.size());
  for (std::size_t e : cluster.members) events.push_back(obs.events[e]);
  std::sort(events.begin(), events.end(),
            [](const SinglePulseEvent& a, const SinglePulseEvent& b) {
              if (a.dm != b.dm) return a.dm < b.dm;
              return a.time_s < b.time_s;
            });
  return events;
}

}  // namespace drapid
