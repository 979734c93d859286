// Structured run reports.
//
// A RunReport is the machine-readable record of one binary invocation:
// schema version, tool name, resolved config, per-stage dataflow rollups
// (JobReport, converted from the engine's JobMetrics by
// dataflow/obs_bridge), fault/retry events, counters, and free-form result
// rows. tools/report_diff compares two of them; validate_run_report() is
// the schema check shared by the tests and tools/trace_check.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/counters.hpp"
#include "obs/json.hpp"

namespace drapid {
namespace obs {

/// One dataflow stage's rollup (mirrors the engine's StageMetrics totals).
struct StageReport {
  std::string name;
  std::uint64_t tasks = 0;
  std::uint64_t records_in = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t records_out = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t shuffle_bytes = 0;
  std::uint64_t spill_bytes = 0;
  double compute_cost = 0.0;
  std::uint64_t retries = 0;  ///< attempts beyond the first, summed
  double retry_cost = 0.0;
  /// Work-stealing scheduler activity while the stage ran (deltas of the
  /// pool's SchedulerStats, see util/thread_pool.hpp).
  std::uint64_t tasks_stolen = 0;
  std::uint64_t parks = 0;
  std::uint64_t fastpath_completions = 0;
  /// Process-backend activity (all zero on the local backend or when the
  /// stage ran in-process): forked workers (replacements included), workers
  /// that died mid-stage, and result-frame bytes shipped over the sockets.
  std::uint64_t workers_used = 0;
  std::uint64_t worker_deaths = 0;
  std::uint64_t ipc_bytes = 0;
  /// Job-lifetime pool activity (all zero on the local backend):
  /// tasks served by an already-forked worker, bytes of output partitions
  /// left resident in workers, and replacement workers forked after deaths.
  std::uint64_t pool_reuses = 0;
  std::uint64_t resident_bytes = 0;
  std::uint64_t worker_respawns = 0;
  /// Measured wall-clock seconds of the stage's execution, as stamped by
  /// the engine's stage entry points — what cluster-model makespans are validated against.
  double wall_seconds = 0.0;

  Json to_json() const;
};

/// A discrete fault-tolerance event observed during a job: a task retry, a
/// spill-partition lineage recovery, a block-store replica failover, or a
/// worker-process death on the process backend.
struct ObsEvent {
  std::string kind;  ///< "retry" | "recover" | "failover" | "worker_death" |
                     ///< "worker_respawn"
  std::string stage;      ///< stage name, or "" when not stage-scoped
  std::int64_t partition = -1;  ///< -1 when not partition-scoped
  std::int64_t count = 1;

  Json to_json() const;
};

/// One engine job: its stages plus the fault events derived from them.
/// Totals are summed from `stages` at serialization time, so the exported
/// "totals" object is consistent with the stage rows by construction.
struct JobReport {
  std::string label;
  std::vector<StageReport> stages;
  std::vector<ObsEvent> events;

  Json to_json() const;
};

class RunReport {
 public:
  static constexpr std::int64_t kSchemaVersion = 1;

  explicit RunReport(std::string tool);

  /// Records one resolved config entry (typically every CLI option).
  void set_config(std::string key, Json value);

  /// Records a named top-level metric (e.g. "tracer_overhead_pct").
  void add_metric(std::string name, Json value);

  /// Appends a free-form result row (one benchmark point / trial).
  void add_result(Json row);

  void add_job(JobReport job);

  void set_wall_seconds(double seconds) { wall_seconds_ = seconds; }

  /// Snapshots a registry's counters and gauges into the report
  /// (overwrites a previous snapshot).
  void capture_counters(const CounterRegistry& registry);

  Json to_json() const;

  /// Pretty-prints to_json() to `path`; throws std::runtime_error on I/O
  /// failure.
  void write_file(const std::string& path) const;

 private:
  std::string tool_;
  Json config_ = Json::object();
  Json metrics_ = Json::object();
  Json results_ = Json::array();
  std::vector<JobReport> jobs_;
  std::vector<std::pair<std::string, std::int64_t>> counters_;
  std::vector<std::pair<std::string, double>> gauges_;
  double wall_seconds_ = 0.0;
};

/// Schema check for a parsed run report: version match, required fields,
/// well-typed stage rows, and per-job totals equal to the sum of that
/// job's stage rows. Returns "" when valid, else the first violation.
std::string validate_run_report(const Json& report);

}  // namespace obs
}  // namespace drapid
