// Work metrics recorded by the dataflow engine.
//
// Every transformation executed by the engine appends one StageMetrics with
// one TaskMetrics per partition. The counters are *measured from the real
// execution* (records moved, bytes shuffled between partitions, bytes spilled
// to disk, domain compute units) — the cluster cost model then prices this
// measured work against a hardware spec to obtain deterministic elapsed-time
// estimates for the paper's testbeds (see cluster_model.hpp).
#pragma once

#include <cstddef>
#include <deque>
#include <string>
#include <vector>

namespace drapid {

/// Counters for one task (one partition of one stage).
struct TaskMetrics {
  std::size_t partition = 0;
  std::size_t records_in = 0;
  std::size_t bytes_in = 0;
  std::size_t records_out = 0;
  std::size_t bytes_out = 0;
  /// Bytes that moved to a *different* partition during a shuffle (network
  /// traffic on a cluster; zero for narrow transformations).
  std::size_t shuffle_bytes = 0;
  /// Bytes written to + read back from disk due to memory pressure.
  std::size_t spill_bytes = 0;
  /// Domain compute units (defaults to records_in; the D-RAPID search stage
  /// reports SPEs scanned by Algorithm 1).
  std::size_t compute_cost = 0;
  /// Execution attempts this task took (1 = clean first run; >1 after
  /// injected failures or lineage recomputation). Zero only for tasks whose
  /// stage never executed.
  std::size_t attempts = 0;
  /// Compute units wasted on failed attempts (each failure is modeled as
  /// dying just before completion, so one full attempt's work per failure).
  /// The cluster cost model prices this plus an exponential reattempt
  /// backoff into the makespan.
  std::size_t retry_cost = 0;
};

struct StageMetrics {
  std::string name;
  std::vector<TaskMetrics> tasks;

  // Scheduler activity observed while this stage's parallel_for ran,
  // recorded as the delta of the pool's SchedulerStats across the stage.
  // Stage-level rather than per-task because the pool counters are global to
  // the pool; when lineage recomputation nests a stage inside a running one,
  // both stages observe the overlapping activity (attribution is by
  // wall-clock overlap, not causality).
  std::size_t tasks_stolen = 0;
  std::size_t parks = 0;
  std::size_t fastpath_completions = 0;

  // Process-backend activity for this stage (all zero under the local
  // backend or when the stage fell back to in-process execution).
  /// Worker processes forked for this stage, replacements included (the
  /// job's first pooled stage forks the whole pool).
  std::size_t workers_used = 0;
  /// Worker processes that died (socket EOF / corrupt frame) mid-stage.
  std::size_t worker_deaths = 0;
  /// Frame bytes that crossed the worker sockets for this stage, both
  /// directions — task assigns, fetches, results and barrier acks. A
  /// shuffle's segments go through files, not sockets.
  std::size_t ipc_bytes = 0;
  /// Pool workers that served this stage without being freshly forked for
  /// it (the amortized fork tax).
  std::size_t pool_reuses = 0;
  /// Serialized bytes of this stage's output partitions left resident on
  /// the workers instead of being shipped to the coordinator.
  std::size_t resident_bytes = 0;
  /// Replacement workers forked after a mid-stage death.
  std::size_t worker_respawns = 0;

  /// Measured wall-clock seconds the stage's execution took (stamped by
  /// Engine::run_stage and run_pooled_stage around the stage's tasks; 0 for
  /// stages recorded without them, e.g. parallelize and in-memory cache
  /// stages). This
  /// is what cluster_model's makespan validation compares the priced
  /// schedule against.
  double wall_seconds = 0.0;

  std::size_t total_records_in() const;
  std::size_t total_bytes_in() const;
  std::size_t total_shuffle_bytes() const;
  std::size_t total_spill_bytes() const;
  std::size_t total_compute_cost() const;
  /// Sum over tasks of attempts beyond the first (0 on a fault-free run).
  std::size_t total_retries() const;
  std::size_t total_retry_cost() const;
};

struct JobMetrics {
  /// Deque, not vector: begin_stage hands out references that must survive
  /// later begin_stage calls (lineage recomputation interleaves stages, so
  /// "transformations finish a stage before starting another" no longer
  /// holds). Deque never relocates existing elements on push_back.
  std::deque<StageMetrics> stages;

  std::size_t total_shuffle_bytes() const;
  std::size_t total_spill_bytes() const;
  std::size_t total_compute_cost() const;
  std::size_t total_retries() const;
  std::size_t total_retry_cost() const;
  std::size_t total_worker_deaths() const;
  std::size_t total_ipc_bytes() const;
  /// Measured wall-clock sum over stages (stages run back to back except
  /// nested lineage recomputation, which double-counts its parent's time).
  double total_wall_seconds() const;
  /// Human-readable per-stage summary table.
  std::string summary() const;
};

}  // namespace drapid
