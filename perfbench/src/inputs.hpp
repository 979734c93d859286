// Seeded input generation. Every input a workload consumes is made here
// from the --seed argument before any pass runs; the program under test
// only ever sees the generated filterbanks and files.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dedisp/filterbank.hpp"
#include "dedisp/rfi_mitigation.hpp"
#include "spe/dm_grid.hpp"
#include "synth/survey.hpp"

namespace perfbench {

/// DM range of the pulse sources render_survey paints. The filterbank
/// workloads sweep a grid reaching kGridMarginDm past the top source.
constexpr double kMinSourceDm = 60.0;
constexpr double kMaxSourceDm = 180.0;
constexpr double kGridMarginDm = 20.0;

/// One raw observation with the pulses painted into it.
struct RawObservation {
  drapid::ObservationId id;
  drapid::Filterbank fb;
  std::vector<drapid::GroundTruthPulse> truth;
};

/// What render_survey draws.
struct RenderSpec {
  std::string dataset;
  std::size_t count = 4;    ///< observations
  std::size_t pulses = 20;  ///< per observation
};

/// Renders dirty filterbanks in `survey`'s band: radiometer noise,
/// `spec.pulses` dispersed pulses from three sources per observation (two
/// pulsars and an RRAT), and one instance of each structured RFI family,
/// the swept chirp kept to a narrow stretch of the band. The seed draws the
/// sky position and the pulses; noise and interference are one fixed
/// realization per observation slot. Nothing is searched to choose inputs.
/// Truth times are in the sweep's frame (top-of-band arrival), as the
/// ground-truth matchers expect.
std::vector<RawObservation> render_survey(const drapid::SurveyConfig& survey,
                                          const drapid::FilterbankConfig& geom,
                                          const RenderSpec& spec,
                                          std::uint64_t seed);

/// The sweep plans of the observations as the mitigated search builds them
/// (channel mask estimated from the raw data, stride 1), summed: constants
/// of the inputs, not readings from a pass.
struct PlanWork {
  double trials = 0.0;
  double unique_plans = 0.0;
  /// unique plans x channels x samples: the exact sweep's work, a nominal
  /// measure for the subband and streaming sweeps.
  double channel_samples = 0.0;
};
PlanWork plan_work(const std::vector<RawObservation>& observations,
                   const drapid::DmGrid& grid,
                   const drapid::RfiMitigationParams& rfi);

/// An event-level survey in the file formats run_drapid loads.
struct EventSurvey {
  std::vector<drapid::SimulatedObservation> observations;
  std::string data_csv;
  std::string cluster_csv;
  std::size_t total_spes = 0;
};

/// Simulates `count` observations of `survey` at fixed pointings whose
/// reference SPE counts fall in [min_spes, max_spes]; the seed draws each
/// realization, kept within 5% of its pointing's reference so every seed
/// yields about the same work. Clustering and CSV encoding fan out over
/// `threads` threads.
EventSurvey simulate_event_survey(const drapid::SurveyConfig& survey,
                                  std::size_t count, std::size_t min_spes,
                                  std::size_t max_spes, std::uint64_t seed,
                                  std::size_t threads);

}  // namespace perfbench
