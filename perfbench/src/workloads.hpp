// The four perfbench workloads. Each pass builds its own program objects
// (engine, block store, service, archive), so a pass measures set-up as
// well as work; the run loop in main.cpp runs an untimed warm-up pass first
// and reports medians over the timed passes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

/// What one pass measured. Times are seconds.
struct PassStats {
  double wall_s = 0.0;
  double setup_s = 0.0;
  double cpu_s = 0.0;       ///< self + reaped children
  double self_cpu_s = 0.0;  ///< the benchmark process alone
  double work_items = 0.0;  ///< the throughput numerator of this workload
  double recall = 0.0;
  double f_measure = 0.0;
  std::vector<double> ingest_latency_s;
  QueryLog queries;
  double query_window_s = 0.0;  ///< time the queries ran over
  /// Digest of the pass's ML output (0 where the workload writes none).
  std::uint64_t ml_digest = 0;
  std::size_t operations = 0;  ///< ingests, queries and engine tasks
  std::size_t failures = 0;    ///< ingest errors, retries, worker deaths
  /// Per-layer counts and engine-reported stage times, by metric name.
  std::map<std::string, double> layer;
  /// Correctness gates that failed in this pass.
  std::vector<std::string> errors;
};

/// Starts a pass's clock and CPU reading; stop() fills wall and CPU.
class PassClock {
 public:
  PassClock() : start_s_(now_s()), start_(usage_now()) {}
  double start_s() const { return start_s_; }
  void stop(PassStats& stats) const;

 private:
  double start_s_;
  Usage start_;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One pass; spans are recorded into `ledger` when tracing is on.
  virtual PassStats run_pass(int pass, Ledger& ledger) = 0;
  /// Gates that need the whole run (cross-backend identity, archive
  /// against a one-shot sweep). Returns failures.
  virtual std::vector<std::string> final_checks() { return {}; }
};

struct WorkloadEnv {
  std::uint64_t seed = 1;
  std::string work_dir;  ///< scratch space inside the checkout
};

std::unique_ptr<Workload> make_survey_e2e(const WorkloadEnv& env);
std::unique_ptr<Workload> make_identify(const WorkloadEnv& env, bool process);
std::unique_ptr<Workload> make_ingest_query(const WorkloadEnv& env);

/// The workload named as in BENCHMARK.json; throws on an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadEnv& env);

}  // namespace perfbench
