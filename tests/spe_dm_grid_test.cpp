#include "spe/dm_grid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace drapid {
namespace {

TEST(DmGrid, RejectsMalformedPlans) {
  EXPECT_THROW(DmGrid({}), std::invalid_argument);
  EXPECT_THROW(DmGrid({{0.0, 10.0, -0.1}}), std::invalid_argument);
  EXPECT_THROW(DmGrid({{0.0, 10.0, 0.0}}), std::invalid_argument);
  EXPECT_THROW(DmGrid({{10.0, 5.0, 0.1}}), std::invalid_argument);
  // Gap between segments.
  EXPECT_THROW(DmGrid({{0.0, 10.0, 0.1}, {20.0, 30.0, 0.1}}),
               std::invalid_argument);
}

TEST(DmGrid, TrialsAreStrictlyIncreasing) {
  const DmGrid grid = DmGrid::gbt350drift();
  for (std::size_t i = 1; i < grid.size(); ++i) {
    ASSERT_LT(grid.dm_at(i - 1), grid.dm_at(i)) << "at index " << i;
  }
}

TEST(DmGrid, IndexOfFindsNearestTrial) {
  const DmGrid grid({{0.0, 1.0, 0.1}});
  EXPECT_EQ(grid.index_of(0.0), 0u);
  EXPECT_EQ(grid.index_of(0.34), 3u);
  EXPECT_EQ(grid.index_of(0.36), 4u);
  // Clamped at the ends.
  EXPECT_EQ(grid.index_of(-5.0), 0u);
  EXPECT_EQ(grid.index_of(99.0), grid.size() - 1);
}

/// Nearest trial by binary search over the materialized trials.
std::size_t reference_index_of(const DmGrid& grid, double dm) {
  const auto& trials = grid.trials();
  const auto it = std::lower_bound(trials.begin(), trials.end(), dm);
  if (it == trials.begin()) return 0;
  if (it == trials.end()) return trials.size() - 1;
  const auto hi = static_cast<std::size_t>(it - trials.begin());
  return (dm - trials[hi - 1] <= trials[hi] - dm) ? hi - 1 : hi;
}

TEST(DmGrid, IndexOfMatchesBinarySearchEverywhere) {
  const DmGrid uneven({{0.0, 1.0, 0.3}, {1.0, 2.05, 0.07}, {2.05, 9.0, 1.1}});
  const std::vector<DmGrid> grids = {
      DmGrid::gbt350drift(), DmGrid::palfa(),  DmGrid::fast_crafts(),
      DmGrid::ska_mid(),     uneven,           DmGrid::ska_mid().prefix(31.0),
      uneven.prefix(1.5)};
  Rng rng(11);
  for (const DmGrid& grid : grids) {
    std::vector<double> probes = {
        -1.0, -0.0, std::nextafter(grid.max_dm(), 1e9), grid.max_dm() + 5.0,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()};
    for (const auto& seg : grid.plan()) {
      probes.push_back(seg.dm_begin);
      probes.push_back(std::nextafter(seg.dm_begin, -1e9));
      probes.push_back(seg.dm_end);
    }
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const double dm = grid.dm_at(i);
      probes.push_back(dm);
      probes.push_back(std::nextafter(dm, -1e9));
      probes.push_back(std::nextafter(dm, 1e9));
      if (i + 1 < grid.size()) probes.push_back(0.5 * (dm + grid.dm_at(i + 1)));
    }
    for (int k = 0; k < 20000; ++k) {
      probes.push_back(rng.uniform(-10.0, grid.max_dm() + 10.0));
    }
    for (const double dm : probes) {
      ASSERT_EQ(grid.index_of(dm), reference_index_of(grid, dm)) << "dm=" << dm;
    }
  }
}

TEST(DmGrid, SpacingMatchesPaperEnvelope) {
  // §5.1.3: "increases from 0.01 for low DM values to 2.00 for very high DM".
  for (const DmGrid& grid : {DmGrid::gbt350drift(), DmGrid::palfa()}) {
    EXPECT_DOUBLE_EQ(grid.spacing_at(1.0), 0.01);
    EXPECT_DOUBLE_EQ(grid.spacing_at(grid.max_dm()), 2.00);
  }
}

TEST(DmGrid, SpacingIsMonotoneNonDecreasingInDm) {
  const DmGrid grid = DmGrid::palfa();
  double prev = 0.0;
  for (double dm = 0.0; dm < grid.max_dm(); dm += 10.0) {
    const double s = grid.spacing_at(dm);
    ASSERT_GE(s, prev);
    prev = s;
  }
}

TEST(DmGrid, IndexAndDmAtAreConsistent) {
  const DmGrid grid = DmGrid::gbt350drift();
  for (std::size_t i = 0; i < grid.size(); i += 97) {
    EXPECT_EQ(grid.index_of(grid.dm_at(i)), i);
  }
}

TEST(DmGrid, SurveysCoverExpectedRanges) {
  const DmGrid gbt = DmGrid::gbt350drift();
  EXPECT_DOUBLE_EQ(gbt.min_dm(), 0.0);
  EXPECT_GT(gbt.max_dm(), 900.0);
  const DmGrid palfa = DmGrid::palfa();
  EXPECT_GT(palfa.max_dm(), 2000.0);
  EXPECT_GT(palfa.size(), 5000u);
}

TEST(DmGridPrefix, IsExactTrialPrefix) {
  const DmGrid grid = DmGrid::gbt350drift();
  const DmGrid cut = grid.prefix(150.0);
  ASSERT_LT(cut.size(), grid.size());
  for (std::size_t i = 0; i < cut.size(); ++i) {
    ASSERT_EQ(cut.dm_at(i), grid.dm_at(i)) << "trial " << i;
  }
  EXPECT_LT(cut.max_dm(), 150.0);
  // The next trial of the full grid is at/above the clip edge.
  EXPECT_GE(grid.dm_at(cut.size()), 150.0);
}

TEST(DmGridPrefix, KeepsTrialLandingExactlyOnClipEdge) {
  // The off-by-one this pins: when dm_end sits exactly on (or within one
  // ulp above) a trial value, re-deriving the count from segment arithmetic
  // with a 1e-9 slack dropped that last trial. The prefix must be resolved
  // against the materialized trials: every trial strictly below dm_end
  // survives, including one exactly 1 ulp below.
  const DmGrid grid({{0.0, 10.0, 0.1}});
  for (std::size_t i = 1; i < grid.size(); ++i) {
    const double edge = grid.dm_at(i);
    const DmGrid at_edge = grid.prefix(edge);
    ASSERT_EQ(at_edge.size(), i) << "edge on trial " << i;
    ASSERT_EQ(at_edge.max_dm(), grid.dm_at(i - 1));
    const DmGrid just_above =
        grid.prefix(std::nextafter(edge, std::numeric_limits<double>::max()));
    ASSERT_EQ(just_above.size(), i + 1) << "edge 1 ulp above trial " << i;
    ASSERT_EQ(just_above.max_dm(), edge);
  }
}

TEST(DmGridPrefix, SurveyPlanEdgesKeepEveryTrialBelowTheClip) {
  // The same pin over the real survey plans, where accumulated floating
  // point (begin + i*step across many segments) makes the edge cases live.
  for (const DmGrid& grid : {DmGrid::gbt350drift(), DmGrid::palfa()}) {
    for (std::size_t i = 1; i < grid.size(); i += 137) {
      const double edge =
          std::nextafter(grid.dm_at(i), std::numeric_limits<double>::max());
      const DmGrid cut = grid.prefix(edge);
      ASSERT_EQ(cut.size(), i + 1) << "edge above trial " << i;
      ASSERT_EQ(cut.max_dm(), grid.dm_at(i));
    }
  }
}

TEST(DmGridPrefix, ClippedPlanSegmentsStayConsistent) {
  const DmGrid grid = DmGrid::palfa();
  const DmGrid cut = grid.prefix(500.0);
  // spacing_at keeps working on the clipped plan, and matches the parent.
  for (double dm : {0.5, 50.0, 250.0, cut.max_dm()}) {
    EXPECT_DOUBLE_EQ(cut.spacing_at(dm), grid.spacing_at(dm)) << dm;
  }
  EXPECT_LE(cut.plan().back().dm_end, 500.0);
}

TEST(DmGridPrefix, EmptyPrefixThrows) {
  const DmGrid grid({{1.0, 2.0, 0.1}});
  EXPECT_THROW(grid.prefix(1.0), std::invalid_argument);
  EXPECT_THROW(grid.prefix(0.5), std::invalid_argument);
}

class DmGridRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(DmGridRoundTrip, NearestTrialWithinLocalSpacing) {
  const DmGrid grid = DmGrid::palfa();
  const double dm = GetParam();
  const double nearest = grid.dm_at(grid.index_of(dm));
  EXPECT_LE(std::abs(nearest - dm), grid.spacing_at(dm) / 2 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Dms, DmGridRoundTrip,
                         ::testing::Values(0.5, 3.17, 24.99, 57.3, 119.9,
                                           200.0, 333.3, 599.0, 765.4,
                                           1500.0, 2399.0));

}  // namespace
}  // namespace drapid
