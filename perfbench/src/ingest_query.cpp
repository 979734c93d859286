// ingest_query: a SurveyService fed in an open loop — observations are
// submitted on a fixed schedule whether or not the writer keeps up — while
// two closed-loop readers cycle through the bench_serve query shapes. The
// writer's chunked StreamingSweep and the archive's seal run beside the
// readers' snapshot queries.
#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "dedisp/single_pulse_search.hpp"
#include "inputs.hpp"
#include "serve/service.hpp"
#include "steps.hpp"
#include "synth/filterbank_survey.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace drapid;

namespace {

constexpr std::size_t kObservations = 8;
/// Submission period. The writer needs about two thirds of it (0.19 s) per
/// observation on the reference host (4-core x86-64, AVX2 kernels), so it
/// stays busy without a growing backlog.
constexpr double kInterval = 0.28;
constexpr std::size_t kReaders = 2;
constexpr std::size_t kPulsesPerObservation = 24;
constexpr double kPoll = 200e-6;

/// Reader threads, stopped and joined on every exit path.
struct Readers {
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;

  void join() {
    stop.store(true, std::memory_order_release);
    for (auto& t : threads) {
      if (t.joinable()) t.join();
    }
  }
  Readers() = default;
  Readers(const Readers&) = delete;
  Readers& operator=(const Readers&) = delete;
  ~Readers() { join(); }
};

class IngestQuery : public Workload {
 public:
  explicit IngestQuery(const WorkloadEnv& env)
      : env_(env),
        survey_(SurveyConfig::ska_mid()),
        grid_(survey_.grid->prefix(kMaxSourceDm + kGridMarginDm)) {
    config_.filterbank.center_freq_mhz = survey_.center_freq_mhz;
    config_.filterbank.bandwidth_mhz = survey_.bandwidth_mhz;
    config_.filterbank.num_channels = 16;
    config_.filterbank.sample_time_ms = 1.0;
    config_.filterbank.obs_length_s = 6.0;
    config_.search.snr_threshold = survey_.snr_threshold;
    config_.search.method = SweepMethod::kSubband;
    config_.search.rfi.policy = MitigationPolicy::kBoth;
    config_.search.exec = ExecPolicy::local(1);
    config_.chunk_samples = 1024;
    RenderSpec spec;
    spec.dataset = "INGEST";
    spec.count = kObservations;
    spec.pulses = kPulsesPerObservation;
    raw_ = render_survey(survey_, config_.filterbank, spec, env.seed);
    prior_dir_ = env.work_dir + "/prior_archive";
    pass_dir_ = env.work_dir + "/pass_archive";
    prior_ = write_prior_archive(prior_dir_, env.seed, 16, 2000);
    keys_ = observation_keys(prior_);
    plan_ = plan_work(raw_, grid_, config_.search.rfi);
  }

  PassStats run_pass(int pass, Ledger& ledger) override {
    std::vector<Filterbank> fbs;
    for (const auto& obs : raw_) fbs.push_back(obs.fb);
    copy_dir(prior_dir_, pass_dir_);

    PassStats stats;
    const PassClock clock;
    std::unique_ptr<serve::SurveyService> service;
    {
      Span span(ledger, "serve.archive_open", pass);
      const double t = now_s();
      service =
          std::make_unique<serve::SurveyService>(pass_dir_, grid_, config_);
      stats.setup_s = now_s() - t;
    }

    std::vector<QueryLog> logs(kReaders);
    std::vector<std::size_t> query_errors(kReaders, 0);
    Readers readers;
    for (std::size_t r = 0; r < kReaders; ++r) {
      readers.threads.emplace_back([&, r] {
        for (std::size_t i = r; !readers.stop.load(std::memory_order_acquire);
             i += kReaders) {
          const serve::Query q = make_query(i, keys_);
          Span span(ledger, "serve.query", pass);
          const double t = now_s();
          try {
            logs[r].results += service->query(q).size();
            logs[r].latency_s[i % 3].push_back(now_s() - t);
          } catch (const std::exception&) {
            ++query_errors[r];
          }
        }
      });
    }

    // Open loop: observation k is due at t0 + k * kInterval. Visibility is
    // stamped by polling the writer's completion count, which advances in
    // submission order.
    const double t0 = now_s();
    std::vector<double> due, submitted, visible;
    const auto poll = [&] {
      const std::size_t done =
          service->observations_ingested() + service->ingest_errors();
      while (visible.size() < done) visible.push_back(now_s());
    };
    for (std::size_t k = 0; k < fbs.size(); ++k) {
      due.push_back(t0 + static_cast<double>(k) * kInterval);
      while (now_s() < due.back()) {
        poll();
        sleep_until_s(std::min(due.back(), now_s() + kPoll));
      }
      {
        Span span(ledger, "serve.submit", pass);
        service->submit(raw_[k].id, std::move(fbs[k]));
      }
      submitted.push_back(now_s());
    }
    while (visible.size() < fbs.size()) {
      poll();
      sleep_until_s(now_s() + kPoll);
    }
    readers.join();
    clock.stop(stats);
    stats.query_window_s = now_s() - t0;

    for (std::size_t r = 0; r < kReaders; ++r) {
      stats.queries.merge(logs[r]);
      stats.failures += query_errors[r];
    }
    const OpenLoopLedger open = account_open_loop(due, submitted, visible);
    stats.ingest_latency_s = open.latency_s;
    double busy = 0.0;
    for (double s : open.service_s) busy += s;
    stats.layer["serve.queue_wait_s"] = median(open.queue_wait_s);
    stats.layer["serve.service_s"] = median(open.service_s);
    stats.layer["serve.backlog_max"] = static_cast<double>(open.backlog_max);
    stats.layer["serve.generator_late_s"] =
        *std::max_element(open.late_s.begin(), open.late_s.end());
    // The sweep runs inside the writer thread; its busy time stands in.
    stats.layer["dedisp.sweep_s"] = busy;
    record_plan(plan_, stats);
    const std::size_t errors = service->ingest_errors();
    stats.layer["serve.ingest_errors"] = static_cast<double>(errors);
    stats.failures += errors;
    stats.operations += fbs.size() + stats.queries.count();
    stats.work_items = static_cast<double>(fbs.size());

    // Detection quality of what the archive serves, by evaluate_detections'
    // time-window rule against the injected pulses.
    FilterbankSurveyOptions options;
    options.num_channels = config_.filterbank.num_channels;
    options.sample_time_ms = config_.filterbank.sample_time_ms;
    options.obs_length_s = config_.filterbank.obs_length_s;
    DetectionEval total;
    for (const auto& obs : raw_) {
      serve::Query q;
      q.key = obs.id.key();
      SimulatedObservation served;
      served.truth = obs.truth;
      for (const auto& rec : service->query(q)) {
        served.data.events.push_back(rec.event);
      }
      const DetectionEval eval = evaluate_detections(served, options);
      total.truth_total += eval.truth_total;
      total.truth_detected += eval.truth_detected;
      total.events_total += eval.events_total;
      total.events_matched += eval.events_matched;
    }
    stats.layer["dedisp.events"] = static_cast<double>(total.events_total);
    stats.recall = total.recall();
    stats.f_measure = f_score(total.precision(), total.recall());
    return stats;
  }

  /// The archive the last pass left behind must equal the prior records
  /// plus a one-shot sweep of every observation.
  std::vector<std::string> final_checks() override {
    std::vector<CandidateRecord> expected = prior_;
    SinglePulseSearchParams params = config_.search;
    params.exec = ExecPolicy::local(3);
    for (const auto& obs : raw_) {
      for (const auto& event : single_pulse_search(obs.fb, grid_, params)) {
        expected.push_back({obs.id, event});
      }
    }
    std::sort(expected.begin(), expected.end(), serve::candidate_order);
    const serve::CandidateArchive archive(pass_dir_);
    if (archive.query({}) != expected) {
      return {"served archive differs from a one-shot sweep"};
    }
    return {};
  }

 private:
  WorkloadEnv env_;
  SurveyConfig survey_;
  DmGrid grid_;
  serve::SurveyServiceConfig config_;
  std::vector<RawObservation> raw_;
  std::vector<CandidateRecord> prior_;
  std::vector<std::string> keys_;  ///< of the prior survey
  std::string prior_dir_;
  std::string pass_dir_;
  PlanWork plan_;
};

}  // namespace

std::unique_ptr<Workload> make_ingest_query(const WorkloadEnv& env) {
  return std::make_unique<IngestQuery>(env);
}

}  // namespace perfbench
