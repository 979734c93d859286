// The complete §3 pulsar-search pipeline, from raw telescope data:
//
//   phase 1  signal collection      — synthetic filterbank with an injected
//                                     pulsar, RFI tone and broadband impulse
//   phase 2  dedispersion           — trial-DM sweep over the filterbank
//   phase 3a single-pulse search    — matched-filter detection → SPE list
//   phase 3b periodicity search     — FFT + harmonic summing + folding
//   phase 4  candidate processing   — DBSCAN clustering + RAPID peak search
//
//   ./examples/full_search [--seed N] [--period S] [--dm X] [--threads T]
//                          [--groups G] [--rfi off|zerodm|mask|both]
#include <iostream>

#include "clustering/dbscan.hpp"
#include "dedisp/periodicity.hpp"
#include "dedisp/rfi_mitigation.hpp"
#include "dedisp/single_pulse_search.hpp"
#include "rapid/multithreaded.hpp"
#include "util/options.hpp"
#include "util/text_table.hpp"

using namespace drapid;

int main(int argc, char** argv) {
  Options opts(argc, argv, {{"seed", "42"},
                            {"period", "1.2"},
                            {"dm", "48"},
                            {"threads", "1"},
                            {"groups", "0"},
                            {"rfi", "off"}});
  const double period = opts.number("period");
  const double dm = opts.number("dm");

  // Phase 1: raw data. A pulsar emitting every rotation, plus nuisances.
  FilterbankConfig fb_config;
  fb_config.center_freq_mhz = 350.0;
  fb_config.bandwidth_mhz = 100.0;
  fb_config.num_channels = 48;
  fb_config.sample_time_ms = 2.0;
  fb_config.obs_length_s = 30.0;
  Filterbank fb(fb_config);
  Rng rng(static_cast<std::uint64_t>(opts.integer("seed")));
  fb.add_noise(rng, 1.0);
  int pulses = 0;
  for (double t = 0.4; t < fb_config.obs_length_s - 1.0; t += period) {
    fb.inject_pulse(t, dm, rng.uniform(1.2, 2.8), 25.0);
    ++pulses;
  }
  fb.inject_rfi_tone(7, 1.5, 10.0, 12.0);
  fb.inject_broadband_impulse(21.0, 6.0);
  std::cout << "phase 1: filterbank " << fb.num_channels() << " channels x "
            << fb.num_samples() << " samples, " << pulses
            << " pulses injected (P=" << period << " s, DM=" << dm << ")\n";

  // Phases 2+3a: dedispersion sweep + matched-filter single-pulse search.
  // The sweep dedisperses once per *unique* shift plan (fine-step trials
  // whose per-channel shifts round identically share one plan) and can fan
  // unique plans out over a worker pool; output is identical at any count.
  const DmGrid grid({{0.0, 120.0, 1.0}});
  SinglePulseSearchParams sp_params;
  sp_params.exec.threads_per_worker =
      static_cast<std::size_t>(opts.integer("threads"));
  // The sweep is the two-stage subband dedispersion; --groups picks its
  // channel group count (0 = cost model, 1 = the exact channel-order sum).
  sp_params.subband_groups = static_cast<std::size_t>(opts.integer("groups"));
  // --rfi=zerodm|mask|both cleans the band before the sweep: zero-DM
  // subtraction removes the broadband impulse, channel masking the RFI tone.
  sp_params.rfi.policy = parse_mitigation_policy(opts.str("rfi"));
  const SweepPlan sweep = build_sweep_plan(fb, grid, sp_params.dm_stride);
  const auto events = single_pulse_search(fb, grid, sp_params);
  std::cout << "phase 2+3a: " << events.size()
            << " single pulse events across " << grid.size()
            << " trial DMs (" << sweep.plans.size()
            << " unique shift plans, "
            << sweep.num_trials - sweep.plans.size() << " dedup hits, rfi="
            << mitigation_policy_name(sp_params.rfi.policy) << ", "
            << sp_params.exec.threads_per_worker << " thread(s))\n";

  // Phase 3b: periodicity search on the series dedispersed at the best DM.
  const auto series = dedisperse(fb, dm);
  const auto candidates = periodicity_search(series, fb_config.sample_time_ms);
  std::cout << "phase 3b: " << candidates.size()
            << " periodicity candidates\n";
  if (!candidates.empty()) {
    // Candidate inspection: incoherent summing can anchor on a harmonic, so
    // fold at small multiples of the candidate period and keep the best
    // profile (the usual sifting step).
    const auto& best = candidates.front();
    double best_period = best.period_s;
    double best_sig = 0.0;
    for (int k = 1; k <= 4; ++k) {
      const double p = best.period_s * k;
      const double sig = profile_significance(
          fold(series, fb_config.sample_time_ms, p, 32));
      if (sig > best_sig) {
        best_sig = sig;
        best_period = p;
      }
    }
    std::cout << "  top candidate: P=" << format_number(best_period, 4)
              << " s after fold-sifting (true " << period << "), snr="
              << format_number(best.snr, 1) << ", " << best.harmonics
              << " harmonics summed, folded-profile significance "
              << format_number(best_sig, 1) << '\n';
  }

  // Phase 4: cluster the SPEs and run Algorithm 1.
  ObservationData obs;
  obs.id.dataset = "FULLSEARCH";
  obs.events = events;
  DbscanParams db;
  db.eps_time_s = 0.2;  // coarse sampling: looser time neighbourhood
  const auto clustering = dbscan_cluster(obs, grid, db);
  const auto items = make_work_items(obs, clustering);
  const auto found = run_rapid_multithreaded(items, {}, grid, 2);
  std::size_t near_truth = 0;
  for (const auto& p : found) {
    near_truth += std::abs(p.features[kSnrPeakDm] - dm) < 5.0;
  }
  std::cout << "phase 4: " << clustering.clusters.size() << " clusters, "
            << found.size() << " single pulses identified, " << near_truth
            << " at the injected DM\n";
  return 0;
}
