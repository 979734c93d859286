#include "spe/dm_grid.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace drapid {

DmGrid::DmGrid(std::vector<DmPlanSegment> plan) : plan_(std::move(plan)) {
  if (plan_.empty()) throw std::invalid_argument("empty dedispersion plan");
  double expected_begin = plan_.front().dm_begin;
  for (const auto& seg : plan_) {
    if (seg.step <= 0.0) {
      throw std::invalid_argument("dedispersion plan step must be positive");
    }
    if (seg.dm_end <= seg.dm_begin) {
      throw std::invalid_argument("dedispersion plan segment must ascend");
    }
    if (std::abs(seg.dm_begin - expected_begin) > 1e-9) {
      throw std::invalid_argument("dedispersion plan segments must be contiguous");
    }
    expected_begin = seg.dm_end;
  }
  for (const auto& seg : plan_) {
    segment_first_index_.push_back(trials_.size());
    // Use an integer counter rather than repeated addition so long fine-step
    // segments do not accumulate floating-point drift.
    const auto count = static_cast<std::size_t>(
        std::ceil((seg.dm_end - seg.dm_begin) / seg.step - 1e-9));
    for (std::size_t i = 0; i < count; ++i) {
      trials_.push_back(seg.dm_begin + static_cast<double>(i) * seg.step);
    }
  }
  if (trials_.empty()) throw std::invalid_argument("dedispersion plan has no trials");
}

std::size_t DmGrid::index_of(double dm) const {
  if (!(dm > trials_.front())) return 0;  // NaN included
  if (dm > trials_.back()) return trials_.size() - 1;
  // `hi` becomes the first trial >= dm, exactly as lower_bound over trials_
  // would find it: segment arithmetic lands within a trial or two, and the
  // walk over the materialized trials settles the rest.
  std::size_t seg = 0;
  while (seg + 1 < plan_.size() && dm >= plan_[seg + 1].dm_begin) ++seg;
  const std::size_t first = segment_first_index_[seg];
  const std::size_t end = seg + 1 < plan_.size()
                              ? segment_first_index_[seg + 1]
                              : trials_.size();
  const double steps =
      std::ceil((dm - plan_[seg].dm_begin) / plan_[seg].step);
  std::size_t hi = first + static_cast<std::size_t>(std::clamp(
                               steps, 0.0, static_cast<double>(end - first)));
  while (hi > 0 && trials_[hi - 1] >= dm) --hi;
  while (hi < trials_.size() && trials_[hi] < dm) ++hi;
  const std::size_t lo = hi - 1;  // trials_.front() < dm <= trials_.back()
  return (dm - trials_[lo] <= trials_[hi] - dm) ? lo : hi;
}

DmGrid DmGrid::prefix(double dm_end) const {
  // Slice the materialized trial list directly instead of re-deriving
  // per-segment counts through the ceil(… - 1e-9) formula: when dm_end lands
  // within that epsilon of a trial value (e.g. exactly one ulp above the
  // trial, as happens when a caller computes an edge from dm_at()), the
  // re-derived count dropped the last trial strictly below dm_end — an
  // off-by-one at the clip edge. lower_bound on the trial values themselves
  // makes "every trial < dm_end" exact by construction.
  const auto cut = std::lower_bound(trials_.begin(), trials_.end(), dm_end);
  const auto count = static_cast<std::size_t>(cut - trials_.begin());
  if (count == 0) {
    throw std::invalid_argument("dedispersion plan prefix is empty");
  }
  DmGrid out(*this);
  out.trials_.resize(count);
  out.plan_.clear();
  out.segment_first_index_.clear();
  for (std::size_t seg = 0;
       seg < plan_.size() && segment_first_index_[seg] < count; ++seg) {
    DmPlanSegment part = plan_[seg];
    part.dm_end = std::min(part.dm_end, dm_end);
    out.plan_.push_back(part);
    out.segment_first_index_.push_back(segment_first_index_[seg]);
  }
  return out;
}

double DmGrid::spacing_at(double dm) const {
  for (const auto& seg : plan_) {
    if (dm < seg.dm_end) return seg.step;
  }
  return plan_.back().step;
}

DmGrid DmGrid::gbt350drift() {
  // 350 MHz drift scan: sensitive to nearby pulsars, searched to DM ~ 1000.
  return DmGrid({
      {0.0, 30.0, 0.01},
      {30.0, 100.0, 0.03},
      {100.0, 300.0, 0.10},
      {300.0, 500.0, 0.30},
      {500.0, 700.0, 0.50},
      {700.0, 1000.0, 2.00},
  });
}

DmGrid DmGrid::palfa() {
  // 1.4 GHz Galactic-plane survey: deeper DM range, same spacing envelope.
  return DmGrid({
      {0.0, 25.0, 0.01},
      {25.0, 120.0, 0.05},
      {120.0, 330.0, 0.10},
      {330.0, 600.0, 0.30},
      {600.0, 1200.0, 1.00},
      {1200.0, 2400.0, 2.00},
  });
}

DmGrid DmGrid::fast_crafts() {
  // FAST/CRAFTS drift scan (1.05–1.45 GHz): the 19-beam receiver's
  // single-pulse backend searches nearby and Galactic sources with fine
  // steps, out to 1500 where extragalactic bursts live.
  return DmGrid({
      {0.0, 30.0, 0.01},
      {30.0, 100.0, 0.05},
      {100.0, 500.0, 0.10},
      {500.0, 1000.0, 0.50},
      {1000.0, 1500.0, 1.00},
  });
}

DmGrid DmGrid::ska_mid() {
  // SKA-Mid band 2: widest band and deepest DM range of the presets;
  // coarse 2.0 steps carry the top half where smearing dominates anyway.
  return DmGrid({
      {0.0, 40.0, 0.01},
      {40.0, 150.0, 0.05},
      {150.0, 600.0, 0.20},
      {600.0, 1500.0, 0.50},
      {1500.0, 3000.0, 2.00},
  });
}

}  // namespace drapid
