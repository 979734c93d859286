// survey_e2e: the whole survey chain on the local backend — dirty
// filterbanks → RFI mitigation → subband DM sweep → DBSCAN → SPE/cluster
// CSV → run_drapid → truth labels → RF classification trial → archive.
// Dedispersion dominates; the dataflow layers are a small share.
#include <memory>

#include "dedisp/rfi_mitigation.hpp"
#include "dedisp/single_pulse_search.hpp"
#include "drapid/pipeline.hpp"
#include "inputs.hpp"
#include "steps.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace drapid;

namespace {

constexpr std::size_t kThreads = 3;
constexpr std::size_t kObservations = 4;
constexpr std::size_t kPulsesPerObservation = 24;
/// Queries run in a burst after each observation rather than once per
/// pass: their latency follows the shared host's speed, which drifts within
/// a second, so bursts spread over the pass sample it more evenly.
constexpr std::size_t kQueriesPerObservation = 300;
/// Recall of this chain was 0.92-1.0 on the 15 seeds tried when the
/// benchmark was introduced; a pass below the floor fails.
constexpr double kRecallFloor = 0.85;

class SurveyE2e : public Workload {
 public:
  explicit SurveyE2e(const WorkloadEnv& env)
      : env_(env),
        survey_(SurveyConfig::ska_mid()),
        grid_(survey_.grid->prefix(kMaxSourceDm + kGridMarginDm)) {
    geom_.center_freq_mhz = survey_.center_freq_mhz;
    geom_.bandwidth_mhz = survey_.bandwidth_mhz;
    geom_.num_channels = 64;
    geom_.sample_time_ms = 1.0;
    geom_.obs_length_s = 10.0;
    rfi_.policy = MitigationPolicy::kBoth;
    RenderSpec spec;
    spec.dataset = "SURVEY";
    spec.count = kObservations;
    spec.pulses = kPulsesPerObservation;
    raw_ = render_survey(survey_, geom_, spec, env.seed);
    plan_ = plan_work(raw_, grid_, rfi_);
    prior_dir_ = env.work_dir + "/prior_archive";
    pass_dir_ = env.work_dir + "/pass_archive";
    keys_ = observation_keys(
        write_prior_archive(prior_dir_, env.seed, 16, 2000));
  }

  SinglePulseSearchParams search_params(std::vector<std::uint8_t> mask) const {
    SinglePulseSearchParams params;
    params.snr_threshold = survey_.snr_threshold;
    params.method = SweepMethod::kSubband;
    params.exec = ExecPolicy::local(kThreads);
    params.channel_mask = std::move(mask);
    return params;
  }

  PassStats run_pass(int pass, Ledger& ledger) override {
    std::vector<Filterbank> fbs;
    for (const auto& obs : raw_) fbs.push_back(obs.fb);
    copy_dir(prior_dir_, pass_dir_);

    PassStats stats;
    const PassClock clock;
    double setup = 0.0;
    std::unique_ptr<Engine> engine;
    {
      Span span(ledger, "dataflow.engine_start", pass);
      const double t = now_s();
      EngineConfig config;
      config.exec = ExecPolicy::local(kThreads);
      config.spill_dir = env_.work_dir + "/spill";
      engine = std::make_unique<Engine>(config);
      setup += now_s() - t;
    }
    std::unique_ptr<serve::CandidateArchive> archive;
    {
      Span span(ledger, "serve.archive_open", pass);
      const double t = now_s();
      archive = std::make_unique<serve::CandidateArchive>(pass_dir_);
      setup += now_s() - t;
    }

    std::string data_csv = std::string(kDataFileHeader) + '\n';
    std::string cluster_csv = std::string(kClusterFileHeader) + '\n';
    std::vector<SimulatedObservation> observed;
    std::vector<Batch> batches;
    for (std::size_t k = 0; k < raw_.size(); ++k) {
      std::vector<std::uint8_t> mask;
      {
        Span span(ledger, "dedisp.mitigate", pass);
        apply_rfi_mitigation(fbs[k], rfi_, mask);
      }
      const SinglePulseSearchParams params = search_params(mask);
      SimulatedObservation obs;
      obs.data.id = raw_[k].id;
      obs.truth = raw_[k].truth;
      {
        Span span(ledger, "dedisp.sweep", pass);
        obs.data.events = single_pulse_search(fbs[k], grid_, params);
      }
      ClusteringResult clustering;
      {
        Span span(ledger, "clustering.dbscan", pass);
        clustering = dbscan_cluster(obs.data, grid_, DbscanParams{});
      }
      {
        Span span(ledger, "spe.encode", pass);
        for (const auto& spe : obs.data.events) {
          data_csv += format_csv_row(format_data_row(obs.data.id, spe));
          data_csv += '\n';
        }
        for (const auto& rec : make_cluster_records(obs.data, clustering)) {
          cluster_csv += format_csv_row(format_cluster_row(rec));
          cluster_csv += '\n';
        }
      }
      const double q0 = now_s();
      stats.queries.merge(query_burst(*archive, keys_, kQueriesPerObservation,
                                      ledger, pass));
      stats.query_window_s += now_s() - q0;
      stats.layer["dedisp.events"] +=
          static_cast<double>(obs.data.events.size());
      stats.layer["clustering.clusters"] +=
          static_cast<double>(clustering.clusters.size());
      batches.push_back({obs.data.id, obs.data.events});
      observed.push_back(std::move(obs));
    }
    stats.layer["spe.bytes"] =
        static_cast<double>(data_csv.size() + cluster_csv.size());

    BlockStore store(15);
    {
      Span span(ledger, "dataflow.upload", pass);
      const double t = now_s();
      store.put("data", std::move(data_csv));
      store.put("clusters", std::move(cluster_csv));
      setup += now_s() - t;
    }
    DrapidResult result;
    {
      Span span(ledger, "drapid.identify", pass);
      const double t = now_s();
      result = run_drapid(*engine, store, "data", "clusters", "ml", grid_,
                          DrapidConfig{});
      record_job(result, now_s() - t, stats);
    }
    stats.ml_digest = digest(store.get("ml"));
    {
      Span span(ledger, "ml.label", pass);
      label_records(result.records, observed);
    }
    const TrialResult trial =
        classify(result.records, env_.seed, kThreads, ledger, pass);
    stats.ingest_latency_s =
        publish(*archive, batches, clock.start_s(), ledger, pass);
    archive.reset();
    engine.reset();
    clock.stop(stats);

    stats.setup_s = setup;
    stats.work_items = static_cast<double>(raw_.size());
    stats.f_measure = trial.f_measure;
    stats.recall = identification_recall(result.records, observed);
    if (stats.recall < kRecallFloor) {
      stats.errors.push_back("survey_e2e recall " +
                             std::to_string(stats.recall) + " below floor");
    }
    stats.operations += batches.size() + stats.queries.count();
    stats.layer["ml.train_s"] = trial.train_seconds;
    stats.layer["ml.test_s"] = trial.test_seconds;
    record_plan(plan_, stats);
    return stats;
  }

 private:
  WorkloadEnv env_;
  SurveyConfig survey_;
  DmGrid grid_;
  FilterbankConfig geom_;
  RfiMitigationParams rfi_;
  std::vector<RawObservation> raw_;
  std::vector<std::string> keys_;  ///< of the prior survey
  std::string prior_dir_;
  std::string pass_dir_;
  PlanWork plan_;
};

}  // namespace

std::unique_ptr<Workload> make_survey_e2e(const WorkloadEnv& env) {
  return std::make_unique<SurveyE2e>(env);
}

}  // namespace perfbench
