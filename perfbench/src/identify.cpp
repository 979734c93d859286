// identify_local / identify_process: an event-level dirty survey through
// run_drapid, classified, then published to the archive. The dataflow and
// RAPID layers do the work; dedispersion does none. The process variant
// runs the same inputs on the job-lifetime worker pool, the only place
// the IPC layer works.
#include <memory>

#include "drapid/pipeline.hpp"
#include "inputs.hpp"
#include "steps.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace drapid;

namespace {

constexpr std::size_t kThreads = 3;
constexpr std::size_t kObservations = 4;
constexpr std::size_t kMinSpes = 40000;
constexpr std::size_t kMaxSpes = 80000;
constexpr std::size_t kQueries = 600;
/// Recall counts the injected pulses a search should find: the simulator's
/// truth also lists pulses too faint to form a cluster.
constexpr double kBrightSnr = 10.0;

/// GBT350Drift with the ska_mid preset's structured-RFI load. On the
/// event-level ska_mid survey the label_records rule matches almost none of
/// the injected pulses (recall 0.04-0.06 on the seeds tried), which would
/// leave recall and F-measure near zero and at the mercy of the seed; at
/// 350 MHz identification works and the interference load is the same.
SurveyConfig dirty_gbt350() {
  SurveyConfig config = SurveyConfig::gbt350drift();
  const SurveyConfig dirty = SurveyConfig::ska_mid();
  config.name = "GBT350Drift-dirty";
  config.periodic_broadband_per_observation =
      dirty.periodic_broadband_per_observation;
  config.narrowband_carriers_per_observation =
      dirty.narrowband_carriers_per_observation;
  config.swept_chirps_per_observation = dirty.swept_chirps_per_observation;
  return config;
}

class Identify : public Workload {
 public:
  Identify(const WorkloadEnv& env, bool process)
      : env_(env), process_(process), survey_(dirty_gbt350()) {
    inputs_ = simulate_event_survey(survey_, kObservations, kMinSpes, kMaxSpes,
                                    env.seed, kThreads);
    prior_dir_ = env.work_dir + "/prior_archive";
    pass_dir_ = env.work_dir + "/pass_archive";
    keys_ = observation_keys(
        write_prior_archive(prior_dir_, env.seed, 16, 2000));
  }

  PassStats run_pass(int pass, Ledger& ledger) override {
    PassStats stats = run(pass, ledger, process_);
    if (reference_digest_ == 0) reference_digest_ = stats.ml_digest;
    // Pool workers are children: their CPU must show up in cpu_s.
    if (process_ && !(stats.cpu_s > stats.self_cpu_s)) {
      stats.errors.push_back("identify_process cpu_s misses worker CPU");
    }
    return stats;
  }

  /// The other backend on the same inputs must write byte-identical ML
  /// output.
  std::vector<std::string> final_checks() override {
    Ledger quiet;
    const PassStats other = run(-1, quiet, !process_);
    if (!other.errors.empty()) return other.errors;
    if (other.ml_digest != reference_digest_) {
      return {"ML output differs between the local and process backends"};
    }
    return {};
  }

 private:
  PassStats run(int pass, Ledger& ledger, bool process) {
    copy_dir(prior_dir_, pass_dir_);
    PassStats stats;
    const PassClock clock;
    double setup = 0.0;
    std::unique_ptr<Engine> engine;
    {
      Span span(ledger, "dataflow.engine_start", pass);
      const double t = now_s();
      EngineConfig config;
      config.exec = process ? ExecPolicy::process(kThreads, 1)
                            : ExecPolicy::local(kThreads);
      config.spill_dir = env_.work_dir + "/spill";
      engine = std::make_unique<Engine>(config);
      setup += now_s() - t;
    }
    BlockStore store(15);
    {
      Span span(ledger, "dataflow.upload", pass);
      const double t = now_s();
      store.put("data", inputs_.data_csv);
      store.put("clusters", inputs_.cluster_csv);
      setup += now_s() - t;
    }
    std::unique_ptr<serve::CandidateArchive> archive;
    {
      Span span(ledger, "serve.archive_open", pass);
      const double t = now_s();
      archive = std::make_unique<serve::CandidateArchive>(pass_dir_);
      setup += now_s() - t;
    }
    DrapidResult result;
    {
      Span span(ledger, "drapid.identify", pass);
      const double t = now_s();
      result = run_drapid(*engine, store, "data", "clusters", "ml",
                          *survey_.grid, DrapidConfig{});
      record_job(result, now_s() - t, stats);
    }
    stats.ml_digest = digest(store.get("ml"));
    {
      Span span(ledger, "ml.label", pass);
      label_records(result.records, inputs_.observations);
    }
    const TrialResult trial =
        classify(result.records, env_.seed, kThreads, ledger, pass);
    const std::vector<Batch> batches = pulse_batches(result.records);
    stats.ingest_latency_s =
        publish(*archive, batches, clock.start_s(), ledger, pass);
    const double q0 = now_s();
    stats.queries = query_burst(*archive, keys_, kQueries, ledger, pass);
    stats.query_window_s = now_s() - q0;
    archive.reset();
    engine.reset();  // reaps the pool workers, so their CPU is counted
    clock.stop(stats);

    stats.setup_s = setup;
    stats.work_items = static_cast<double>(inputs_.total_spes);
    stats.recall =
        identification_recall(result.records, inputs_.observations, kBrightSnr);
    stats.f_measure = trial.f_measure;
    stats.layer["ml.train_s"] = trial.train_seconds;
    stats.layer["ml.test_s"] = trial.test_seconds;
    stats.operations += batches.size() + stats.queries.count();
    return stats;
  }

  WorkloadEnv env_;
  bool process_;
  SurveyConfig survey_;
  EventSurvey inputs_;
  std::vector<std::string> keys_;  ///< of the prior survey
  std::string prior_dir_;
  std::string pass_dir_;
  std::uint64_t reference_digest_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_identify(const WorkloadEnv& env, bool process) {
  return std::make_unique<Identify>(env, process);
}

}  // namespace perfbench
