#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "clustering/dbscan.hpp"
#include "dedisp/single_pulse_search.hpp"
#include "spe/catalog.hpp"
#include "synth/dispersion.hpp"
#include "synth/filterbank_survey.hpp"
#include "synth/rfi.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace drapid;

namespace {

constexpr std::uint64_t kNoiseSeed = 20180813;
constexpr std::uint64_t kRfiSeed = 20181105;

/// A swept chirp mimics dispersion, so the search sees it across many DM
/// trials: past about a fifth of the band its event count runs from a few
/// thousand to tens of thousands. Chirps are kept to this share of the band.
constexpr double kMaxChirpBandShare = 0.2;

/// Redraws the survey's scenario until it holds exactly one instance of
/// each structured family and its chirp sweeps at most kMaxChirpBandShare
/// of the band, so every observation slot carries a like interference load.
RfiScenario draw_scenario(const SurveyConfig& survey, double obs_length_s,
                          Rng& rng) {
  for (int attempt = 0; attempt < 10000; ++attempt) {
    RfiScenario scenario = draw_rfi_scenario(survey, obs_length_s, rng);
    int counts[3] = {0, 0, 0};
    bool narrow = true;
    for (const auto& inst : scenario.instances) {
      ++counts[static_cast<int>(inst.family)];
      if (inst.family == RfiFamily::kSweptChirp) {
        narrow = std::abs(inst.freq_end_mhz - inst.freq_begin_mhz) <=
                 kMaxChirpBandShare * survey.bandwidth_mhz;
      }
    }
    if (narrow && counts[0] == 1 && counts[1] == 1 && counts[2] == 1) {
      return scenario;
    }
  }
  throw std::runtime_error("survey draws no one-of-each RFI scenario");
}

}  // namespace

std::vector<RawObservation> render_survey(const SurveyConfig& survey,
                                          const FilterbankConfig& geom,
                                          const RenderSpec& spec,
                                          std::uint64_t seed) {
  FilterbankSurveyOptions render;
  render.num_channels = geom.num_channels;
  render.sample_time_ms = geom.sample_time_ms;
  render.obs_length_s = geom.obs_length_s;

  Rng rng(seed);
  std::vector<RawObservation> out;
  for (std::size_t k = 0; k < spec.count; ++k) {
    ObservationId id;
    id.dataset = spec.dataset;
    id.mjd = 59000.0 + static_cast<double>(k) * 0.01;
    id.ra_deg = rng.uniform(0.0, 360.0);
    id.dec_deg = rng.uniform(-60.0, 30.0);
    id.beam = static_cast<int>(k);
    RawObservation obs{id, Filterbank(geom), {}};
    // Radiometer noise and interference are one fixed realization per
    // observation slot. Noise false alarms repeat across the fine low-DM
    // trials and interference leftovers across many more, so their event
    // counts, and the clustering cost that grows faster than them, are
    // heavy-tailed in the draw; fixing them keeps the work per pass steady
    // while the seed draws the sky position and every pulse.
    Rng noise(kNoiseSeed + k);
    obs.fb.add_noise(noise, 1.0);

    struct Source {
      SourceType type;
      double dm, width_ms, median_snr;
    };
    std::vector<Source> sources;
    for (int s = 0; s < 3; ++s) {
      sources.push_back({s == 2 ? SourceType::kRrat : SourceType::kPulsar,
                         rng.uniform(kMinSourceDm, kMaxSourceDm),
                         rng.uniform(1.0, 4.0), rng.uniform(12.0, 20.0)});
    }
    // The lowest channel arrives last; keep every pulse inside the data.
    const double band_bottom = geom.center_freq_mhz - geom.bandwidth_mhz / 2;
    const double latest =
        geom.obs_length_s - dispersion_delay_s(kMaxSourceDm, band_bottom) - 0.2;
    for (std::size_t p = 0; p < spec.pulses; ++p) {
      const Source& src = sources[p % sources.size()];
      const double t0 = rng.uniform(0.2, latest);
      const double snr = src.median_snr * std::exp(rng.normal(0.0, 0.25));
      const double samples = std::max(1.0, src.width_ms / geom.sample_time_ms);
      const double amplitude =
          snr / std::sqrt(static_cast<double>(geom.num_channels) * samples);
      obs.fb.inject_pulse(t0, src.dm, amplitude, src.width_ms);
      GroundTruthPulse gt;
      gt.source_name = "S" + std::to_string(k) + "." +
                       std::to_string(p % sources.size());
      gt.type = src.type;
      gt.time_s = t0 + dispersion_delay_s(src.dm, obs.fb.channel_freq_mhz(0));
      gt.dm = src.dm;
      gt.peak_snr = snr;
      gt.width_ms = src.width_ms;
      obs.truth.push_back(gt);
    }
    Rng rfi(kRfiSeed + k);
    render_rfi_filterbank(draw_scenario(survey, geom.obs_length_s, rfi),
                          render, obs.fb, rfi);
    out.push_back(std::move(obs));
  }
  return out;
}

PlanWork plan_work(const std::vector<RawObservation>& observations,
                   const DmGrid& grid, const RfiMitigationParams& rfi) {
  PlanWork work;
  for (const auto& obs : observations) {
    // The mask the search estimates from the raw observation.
    const std::vector<std::uint8_t> mask =
        policy_masks_channels(rfi.policy) ? estimate_channel_mask(obs.fb, rfi)
                                          : std::vector<std::uint8_t>{};
    const SweepPlan plan = build_sweep_plan(obs.fb, grid, 1, mask);
    work.trials += static_cast<double>(plan.num_trials);
    work.unique_plans += static_cast<double>(plan.plans.size());
    work.channel_samples += static_cast<double>(plan.plans.size()) *
                            static_cast<double>(obs.fb.num_channels()) *
                            static_cast<double>(obs.fb.num_samples());
  }
  return work;
}

EventSurvey simulate_event_survey(const SurveyConfig& survey,
                                  std::size_t count, std::size_t min_spes,
                                  std::size_t max_spes, std::uint64_t seed,
                                  std::size_t threads) {
  // The sky and the pointings are fixed; the seed draws each observation's
  // realization (pulses, noise, interference). Structured RFI makes SPE
  // counts heavy-tailed, so a realization is kept only within 5% of the
  // pointing's reference size, keeping the work and the pulsars per seed
  // steady while the content varies.
  constexpr std::uint64_t kSkySeed = 2018;
  constexpr std::size_t kMaxAttempts = 400;
  SurveySimulator sky(survey, kSkySeed);
  const std::vector<SyntheticSource> sources = sky.draw_sources();
  struct Pointing {
    ObservationId id;
    std::vector<SyntheticSource> visible;
    double reference_spes;
  };
  std::vector<Pointing> pointings;
  for (std::size_t a = 0; pointings.size() < count; ++a) {
    if (a == sources.size()) {
      throw std::runtime_error("too few pointings in the SPE size band");
    }
    const SyntheticSource& target = sources[(a * 7) % sources.size()];
    Pointing p;
    p.id.dataset = "EVENTS";
    p.id.mjd = 59500.0 + static_cast<double>(a) * 0.01;
    p.id.ra_deg = target.ra_deg;
    p.id.dec_deg = target.dec_deg;
    p.id.beam = static_cast<int>(pointings.size());
    for (const auto& s : sources) {
      if (angular_separation_deg(s.ra_deg, s.dec_deg, target.ra_deg,
                                 target.dec_deg) <= survey.beam_radius_deg) {
        p.visible.push_back(s);
      }
    }
    SurveySimulator reference(survey, kSkySeed + 1 + a);
    std::vector<double> sizes;
    for (int r = 0; r < 3; ++r) {
      sizes.push_back(static_cast<double>(
          reference.simulate(p.id, p.visible).data.events.size()));
    }
    std::sort(sizes.begin(), sizes.end());
    p.reference_spes = sizes[1];
    if (p.reference_spes >= static_cast<double>(min_spes) &&
        p.reference_spes <= static_cast<double>(max_spes)) {
      pointings.push_back(std::move(p));
    }
  }

  EventSurvey out;
  SurveySimulator sim(survey, seed);
  for (const Pointing& p : pointings) {
    for (std::size_t attempt = 0;; ++attempt) {
      if (attempt == kMaxAttempts) {
        throw std::runtime_error("no realization near the reference size");
      }
      SimulatedObservation obs = sim.simulate(p.id, p.visible);
      const double n = static_cast<double>(obs.data.events.size());
      if (std::abs(n - p.reference_spes) <= 0.05 * p.reference_spes) {
        out.observations.push_back(std::move(obs));
        break;
      }
    }
  }

  // Clustering and encoding are the expensive part of generation; they are
  // independent per observation.
  std::vector<std::string> data_parts(count), cluster_parts(count);
  const std::size_t lanes = std::max<std::size_t>(1, threads);
  std::vector<std::exception_ptr> failures(lanes);
  const auto encode = [&](std::size_t lane) {
    for (std::size_t k = lane; k < count; k += lanes) {
      const ObservationData& obs = out.observations[k].data;
      std::ostringstream data, clusters;
      for (const auto& spe : obs.events) {
        data << format_csv_row(format_data_row(obs.id, spe)) << '\n';
      }
      const auto clustering = dbscan_cluster(obs, *survey.grid, DbscanParams{});
      for (const auto& rec : make_cluster_records(obs, clustering)) {
        clusters << format_csv_row(format_cluster_row(rec)) << '\n';
      }
      data_parts[k] = data.str();
      cluster_parts[k] = clusters.str();
    }
  };
  std::vector<std::thread> workers;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    workers.emplace_back([&, lane] {
      try {
        encode(lane);
      } catch (...) {
        failures[lane] = std::current_exception();
      }
    });
  }
  for (auto& w : workers) w.join();
  for (const auto& failure : failures) {
    if (failure) std::rethrow_exception(failure);
  }

  out.data_csv = std::string(kDataFileHeader) + '\n';
  out.cluster_csv = std::string(kClusterFileHeader) + '\n';
  for (std::size_t k = 0; k < count; ++k) {
    out.data_csv += data_parts[k];
    out.cluster_csv += cluster_parts[k];
    out.total_spes += out.observations[k].data.events.size();
  }
  return out;
}

}  // namespace perfbench
