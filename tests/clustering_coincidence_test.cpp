// Multi-beam coincidence rejection: hand-built pointings with known
// coincident/unique events, cell-edge straddling via the 3×3 neighbourhood,
// parameter validation, and an end-to-end precision/recall run over a
// simulated multi-beam pointing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "clustering/coincidence.hpp"
#include "spe/dm_grid.hpp"
#include "synth/survey.hpp"

namespace drapid {
namespace {

DmGrid unit_grid() { return DmGrid({{0.0, 200.0, 1.0}}); }

ObservationId beam_id(int beam) {
  ObservationId id;
  id.dataset = "COINC";
  id.mjd = 56000.0;
  id.beam = beam;
  return id;
}

SinglePulseEvent event_at(double dm, double time_s, double snr = 8.0) {
  SinglePulseEvent e;
  e.dm = dm;
  e.time_s = time_s;
  e.snr = snr;
  e.sample = static_cast<std::int64_t>(time_s * 1000.0);
  return e;
}

std::vector<const ObservationData*> views(
    const std::vector<ObservationData>& beams) {
  std::vector<const ObservationData*> out;
  for (const ObservationData& b : beams) out.push_back(&b);
  return out;
}

TEST(Coincidence, EventInEnoughBeamsIsRejected) {
  const DmGrid grid = unit_grid();
  std::vector<ObservationData> beams(4);
  for (int b = 0; b < 4; ++b) {
    beams[b].id = beam_id(b);
    if (b < 3) beams[b].events.push_back(event_at(50.0, 10.0));  // coincident
  }
  beams[0].events.push_back(event_at(120.0, 42.0));  // unique: a real pulse
  const CoincidenceResult result = coincidence_reject(views(beams), grid);
  EXPECT_EQ(result.num_events, 4u);
  EXPECT_EQ(result.num_rejected, 3u);
  EXPECT_TRUE(result.rejected[0][0]);
  EXPECT_TRUE(result.rejected[1][0]);
  EXPECT_TRUE(result.rejected[2][0]);
  EXPECT_FALSE(result.rejected[0][1]);
  EXPECT_TRUE(result.rejected[3].empty());
}

TEST(Coincidence, TwoBeamsIsNotEnoughByDefault) {
  const DmGrid grid = unit_grid();
  std::vector<ObservationData> beams(3);
  for (int b = 0; b < 3; ++b) beams[b].id = beam_id(b);
  beams[0].events.push_back(event_at(50.0, 10.0));
  beams[1].events.push_back(event_at(50.0, 10.0));  // beam-overlap pulse
  const CoincidenceResult result = coincidence_reject(views(beams), grid);
  EXPECT_EQ(result.num_rejected, 0u);
}

TEST(Coincidence, CellEdgeStraddlersStillCoincide) {
  const DmGrid grid = unit_grid();
  CoincidenceParams params;
  params.time_window_s = 0.05;
  params.dm_window_trials = 8.0;
  params.min_beams = 3;
  std::vector<ObservationData> beams(3);
  for (int b = 0; b < 3; ++b) beams[b].id = beam_id(b);
  // Times straddle the 10.00 s cell edge and DMs straddle a DM-cell edge;
  // the pairs are within one window of each other but land in adjacent
  // cells, which only the 3×3 neighbourhood union catches.
  beams[0].events.push_back(event_at(55.5, 9.99));
  beams[1].events.push_back(event_at(56.5, 10.01));
  beams[2].events.push_back(event_at(55.0, 10.03));
  const CoincidenceResult result =
      coincidence_reject(views(beams), grid, params);
  EXPECT_EQ(result.num_rejected, 3u);
}

TEST(Coincidence, DistantEventsDoNotCoincide) {
  const DmGrid grid = unit_grid();
  std::vector<ObservationData> beams(3);
  for (int b = 0; b < 3; ++b) {
    beams[b].id = beam_id(b);
    // Same DM but seconds apart — and same time but far apart in DM.
    beams[b].events.push_back(event_at(50.0, 10.0 + 3.0 * b));
    beams[b].events.push_back(event_at(30.0 + 40.0 * b, 80.0));
  }
  const CoincidenceResult result = coincidence_reject(views(beams), grid);
  EXPECT_EQ(result.num_rejected, 0u);
}

TEST(Coincidence, FilterDropsFlaggedEvents) {
  const DmGrid grid = unit_grid();
  std::vector<ObservationData> beams(3);
  for (int b = 0; b < 3; ++b) {
    beams[b].id = beam_id(b);
    beams[b].events.push_back(event_at(50.0, 10.0));
  }
  beams[0].events.push_back(event_at(150.0, 99.0, 12.0));
  const CoincidenceResult result = coincidence_reject(views(beams), grid);
  const std::vector<SinglePulseEvent> kept =
      coincidence_filter(beams[0], 0, result);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].dm, 150.0);
  EXPECT_TRUE(coincidence_filter(beams[1], 1, result).empty());
}

TEST(Coincidence, ValidatesParameters) {
  const DmGrid grid = unit_grid();
  std::vector<ObservationData> beams(2);
  beams[0].id = beam_id(0);
  beams[1].id = beam_id(1);
  CoincidenceParams params;
  params.time_window_s = 0.0;
  EXPECT_THROW(coincidence_reject(views(beams), grid, params),
               std::invalid_argument);
  params = CoincidenceParams{};
  params.dm_window_trials = -1.0;
  EXPECT_THROW(coincidence_reject(views(beams), grid, params),
               std::invalid_argument);
  params = CoincidenceParams{};
  params.min_beams = 1;
  EXPECT_THROW(coincidence_reject(views(beams), grid, params),
               std::invalid_argument);
}

TEST(Coincidence, RejectsMoreThan64Beams) {
  const DmGrid grid = unit_grid();
  std::vector<ObservationData> beams(65);
  for (int b = 0; b < 65; ++b) beams[b].id = beam_id(b);
  EXPECT_THROW(coincidence_reject(views(beams), grid), std::invalid_argument);
}

// --- end-to-end on a simulated multi-beam pointing --------------------------

TEST(MultiBeamCoincidence, SharedRfiRejectedPulsesSurvive) {
  SurveyConfig cfg = SurveyConfig::ska_mid();
  SurveySimulator sim(cfg, 17);
  SyntheticSource src;
  src.name = "J1819-1458";
  src.type = SourceType::kRrat;
  src.dm = 180.0;
  src.width_ms = 10.0;
  src.median_snr = 25.0;
  src.snr_sigma = 0.1;
  src.emission_rate = 900.0;  // ~15 bursts/min
  ObservationId id;
  id.dataset = cfg.name;

  std::size_t pulse_events = 0, pulse_rejected = 0;
  std::size_t total_rejected = 0;
  for (int trial = 0; trial < 4; ++trial) {
    id.mjd = 56000.0 + trial;
    const MultiBeamObservation pointing =
        sim.simulate_multibeam(id, {src}, 7, /*shared_rfi_fraction=*/1.0);
    std::vector<const ObservationData*> beams;
    for (const SimulatedObservation& obs : pointing.beams) {
      beams.push_back(&obs.data);
    }
    const CoincidenceResult result =
        coincidence_reject(beams, *cfg.grid);
    total_rejected += result.num_rejected;

    // Events the sweep attributed to the injected RRAT live in beam 0 near
    // its true DM; count how many the spatial filter wrongly flags.
    const SimulatedObservation& on_source = pointing.beams[0];
    for (std::size_t i = 0; i < on_source.data.events.size(); ++i) {
      const SinglePulseEvent& e = on_source.data.events[i];
      bool from_pulse = false;
      for (const GroundTruthPulse& gt : on_source.truth) {
        if (std::abs(e.dm - gt.dm) < 10.0 &&
            std::abs(e.time_s - gt.time_s) < 0.5) {
          from_pulse = true;
          break;
        }
      }
      if (!from_pulse) continue;
      ++pulse_events;
      pulse_rejected += result.rejected[0][i] != 0;
    }
  }
  ASSERT_GT(pulse_events, 0u);
  // The filter catches shared interference without eating the pulsar.
  EXPECT_GT(total_rejected, 0u);
  const double pulse_survival =
      1.0 - static_cast<double>(pulse_rejected) /
                static_cast<double>(pulse_events);
  EXPECT_GE(pulse_survival, 0.9) << pulse_rejected << " of " << pulse_events
                                 << " pulse events rejected";
}

}  // namespace
}  // namespace drapid
