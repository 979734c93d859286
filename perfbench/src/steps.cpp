#include "steps.hpp"

#include <cmath>
#include <map>

namespace perfbench {

using namespace drapid;

std::vector<double> publish(serve::CandidateArchive& archive,
                            const std::vector<Batch>& batches, double due_s,
                            Ledger& ledger, int pass) {
  std::vector<double> latency;
  for (const auto& [id, events] : batches) {
    {
      Span span(ledger, "serve.append", pass);
      for (const auto& event : events) archive.append(id, event);
    }
    {
      Span span(ledger, "serve.seal", pass);
      archive.seal();
    }
    latency.push_back(now_s() - due_s);
  }
  return latency;
}

std::vector<Batch> pulse_batches(const std::vector<MlRecord>& records) {
  std::vector<Batch> batches;
  std::map<std::string, std::size_t> index;
  for (const auto& rec : records) {
    const std::string key = rec.obs.key();
    auto it = index.find(key);
    if (it == index.end()) {
      it = index.emplace(key, batches.size()).first;
      batches.push_back({rec.obs, {}});
    }
    SinglePulseEvent event;
    event.dm = rec.features[kSnrPeakDm];
    event.snr = rec.features[kSnrMax];
    event.time_s = rec.features[kStartTime];
    event.sample = static_cast<std::int64_t>(event.time_s * 1e3);
    batches[it->second].second.push_back(event);
  }
  return batches;
}

namespace {

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

}  // namespace

void record_job(const DrapidResult& result, double run_wall_s,
                PassStats& stats) {
  auto& layer = stats.layer;
  double stage_walls = 0.0;
  std::size_t tasks = 0, stolen = 0, workers = 0, reuses = 0, deaths = 0;
  std::size_t partition_ipc = 0;
  for (const StageMetrics& stage : result.metrics.stages) {
    stage_walls += stage.wall_seconds;
    tasks += stage.tasks.size();
    stolen += stage.tasks_stolen;
    workers += stage.workers_used;
    reuses += stage.pool_reuses;
    deaths += stage.worker_deaths;
    const char* phase = starts_with(stage.name, "load:")        ? "dataflow.load_s"
                        : starts_with(stage.name, "partition:") ? "dataflow.partition_s"
                        : starts_with(stage.name, "aggregate:") ? "dataflow.aggregate_s"
                        : starts_with(stage.name, "join:")      ? "dataflow.join_s"
                        : stage.name == "search"                ? "rapid.search_s"
                                                                : nullptr;
    if (phase) layer[phase] += stage.wall_seconds;
    if (starts_with(stage.name, "partition:")) partition_ipc += stage.ipc_bytes;
  }
  const std::size_t retries = result.metrics.total_retries();
  layer["drapid.driver_s"] += run_wall_s - stage_walls;
  layer["dataflow.shuffle_bytes"] +=
      static_cast<double>(result.metrics.total_shuffle_bytes());
  layer["dataflow.spill_bytes"] +=
      static_cast<double>(result.metrics.total_spill_bytes());
  layer["dataflow.tasks"] += static_cast<double>(tasks);
  layer["dataflow.retries"] += static_cast<double>(retries);
  layer["dataflow.tasks_stolen"] += static_cast<double>(stolen);
  layer["ipc.bytes"] += static_cast<double>(result.metrics.total_ipc_bytes());
  layer["ipc.partition_bytes"] += static_cast<double>(partition_ipc);
  layer["ipc.workers_used"] += static_cast<double>(workers);
  layer["ipc.pool_reuses"] += static_cast<double>(reuses);
  layer["ipc.worker_deaths"] += static_cast<double>(deaths);
  layer["rapid.spes_scanned"] += static_cast<double>(result.spes_scanned);
  layer["rapid.clusters_searched"] +=
      static_cast<double>(result.clusters_searched);
  layer["rapid.pulses"] += static_cast<double>(result.records.size());
  stats.operations += tasks;
  stats.failures += retries + deaths;
}

void record_plan(const PlanWork& plan, PassStats& stats) {
  stats.layer["dedisp.trials"] = plan.trials;
  stats.layer["dedisp.unique_plans"] = plan.unique_plans;
  stats.layer["dedisp.channel_samples"] = plan.channel_samples;
}

double identification_recall(
    const std::vector<MlRecord>& records,
    const std::vector<SimulatedObservation>& observations,
    double min_truth_snr) {
  constexpr double kDmTolerance = 3.0;
  constexpr double kTimeTolerance = 0.2;
  std::map<std::string, std::vector<const MlRecord*>> by_obs;
  for (const auto& rec : records) by_obs[rec.obs.key()].push_back(&rec);
  std::size_t total = 0;
  std::size_t found = 0;
  for (const auto& obs : observations) {
    const auto& candidates = by_obs[obs.data.id.key()];
    for (const auto& gt : obs.truth) {
      if (gt.peak_snr < min_truth_snr) continue;
      ++total;
      for (const MlRecord* rec : candidates) {
        if (std::abs(gt.dm - rec->features[kSnrPeakDm]) <= kDmTolerance &&
            gt.time_s >= rec->features[kStartTime] - kTimeTolerance &&
            gt.time_s <= rec->features[kStopTime] + kTimeTolerance) {
          ++found;
          break;
        }
      }
    }
  }
  return total == 0 ? 0.0
                    : static_cast<double>(found) / static_cast<double>(total);
}

TrialResult classify(const std::vector<MlRecord>& labelled, std::uint64_t seed,
                     std::size_t threads, Ledger& ledger, int pass) {
  std::vector<LabeledPulse> pulses;
  for (const auto& rec : labelled) {
    pulses.push_back({rec.features, !rec.truth_label.empty(),
                      rec.truth_label == "rrat"});
  }
  TrialSpec spec;
  spec.scheme = ml::AlmScheme::kEight;
  spec.filter = ml::FilterMethod::kInfoGain;
  spec.learner = ml::LearnerType::kRandomForest;
  spec.seed = seed;
  spec.cv_threads = threads;
  Span span(ledger, "ml.trial", pass);
  return run_trial(pulses, spec);
}

double f_score(double precision, double recall) {
  return precision + recall == 0.0
             ? 0.0
             : 2.0 * precision * recall / (precision + recall);
}

}  // namespace perfbench
