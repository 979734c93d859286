// Steps the survey and identify workloads share: publishing results into
// the archive, reading the engine's per-stage counters into the per-layer
// ledger, and scoring identified pulses against ground truth.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "drapid/driver.hpp"
#include "exp/trial_runner.hpp"
#include "harness.hpp"
#include "inputs.hpp"
#include "serve/archive.hpp"
#include "synth/survey.hpp"
#include "workloads.hpp"

namespace perfbench {

using Batch = std::pair<drapid::ObservationId,
                        std::vector<drapid::SinglePulseEvent>>;

/// Appends and seals one segment per observation; returns, per
/// observation, the time from `due_s` until its segment was visible.
std::vector<double> publish(drapid::serve::CandidateArchive& archive,
                            const std::vector<Batch>& batches, double due_s,
                            Ledger& ledger, int pass);

/// The identified pulses as archive candidates: the SNR peak's DM and S/N
/// at the cluster's start time.
std::vector<Batch> pulse_batches(const std::vector<drapid::MlRecord>& records);

/// Copies run_drapid's stage counters into `stats.layer` (stage walls by
/// phase, bytes, tasks, retries, IPC) and counts tasks as operations and
/// retries plus worker deaths as failures.
void record_job(const drapid::DrapidResult& result, double run_wall_s,
                PassStats& stats);

/// Copies the inputs' sweep-plan totals into `stats.layer`
/// (dedisp.trials, dedisp.unique_plans, dedisp.channel_samples).
void record_plan(const PlanWork& plan, PassStats& stats);

/// Share of the truth pulses at least `min_truth_snr` bright that an
/// identified pulse matches by the label_records rule (SNRPeakDM within 3,
/// injection time inside the cluster window padded by 0.2 s).
double identification_recall(
    const std::vector<drapid::MlRecord>& records,
    const std::vector<drapid::SimulatedObservation>& observations,
    double min_truth_snr = 0.0);

/// The classification trial every workload with ML records runs: RF on
/// ALM scheme 8 with the top information-gain features, 5-fold CV.
drapid::TrialResult classify(const std::vector<drapid::MlRecord>& labelled,
                             std::uint64_t seed, std::size_t threads,
                             Ledger& ledger, int pass);

/// 2PR / (P + R), 0 when both are 0.
double f_score(double precision, double recall);

}  // namespace perfbench
