// Execution engine for the mini-dataflow library (the Spark stand-in).
//
// The engine owns the thread pool that runs one task per partition, the
// running job metrics, and the spill directory used when a dataset exceeds
// the configured executor memory (the mechanism behind the paper's
// one-executor cliff in Figure 4: "portions of the RDDs must be frequently
// swapped out to disk").
//
// It drives every stage itself, through one of two entry points:
//
//   * run_stage runs a body closure once per task on the in-process thread
//     pool, on every backend (spill I/O and cache bookkeeping run here even
//     on the process backend);
//   * run_pooled_stage runs a PoolStagePlan (dataflow/executor.hpp) on the
//     process backend's job-lifetime WorkerPool (dataflow/ipc/pool.hpp) and
//     leaves the output resident in the workers.
//
// Both record the stage span, wall time and scheduler-stat deltas the same
// way, and every task of either kind — in this process or in a pool worker —
// runs through detail::run_attempts below.
//
// Fault tolerance: run_attempts retries a task attempt killed by the
// engine's FaultInjector up to max_task_attempts times (Spark's
// spark.task.maxFailures). A failed attempt is modeled as dying just before
// completion, so the wasted work lands in the task's attempts/retry_cost
// counters and the cluster cost model prices recovery time — reattempt
// scheduling plus exponential backoff — into the makespan.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "dataflow/executor.hpp"
#include "dataflow/fault.hpp"
#include "dataflow/metrics.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "util/exec_policy.hpp"
#include "util/thread_pool.hpp"

namespace drapid {

class WorkerPool;

/// False when the build cannot fork workers (thread sanitizer); the engine
/// then silently downgrades a process policy to the local backend.
bool process_executor_supported();

struct EngineConfig {
  /// Modeled executors; partition counts and memory scale with this.
  std::size_t num_executors = 4;
  /// Virtual cores per executor (paper: 2).
  std::size_t cores_per_executor = 2;
  /// In-memory budget per executor for cached RDDs. When a dataset exceeds
  /// num_executors * this, the driver spills it to disk (real file I/O).
  std::size_t executor_memory_bytes = 256ull << 20;
  /// Partitions assigned per core (paper's custom partitioner used 32).
  std::size_t partitions_per_core = 32;
  /// Execution policy: which backend runs stage tasks (local in-process
  /// pool, or a pool of forked worker processes over Unix-domain sockets),
  /// how many worker processes (0 = num_executors — the modeled cluster
  /// finally gets real processes), and the in-process pool threads
  /// actually used on this machine (independent of the modeled executor
  /// count).
  ExecPolicy exec = ExecPolicy::local(4);
  /// Directory for spill files; empty selects the system temp directory.
  std::string spill_dir;
  /// Attempt budget per task (first run + retries). A task whose every
  /// attempt is killed fails the job with TaskFailure.
  std::size_t max_task_attempts = 4;
  /// Faults to inject into this engine's runs (none by default).
  FaultPlan faults;
  /// Tracer the engine records stage/task spans and fault instants into;
  /// nullptr selects obs::global_tracer(). Spans cost nothing while the
  /// tracer is disabled (the default until a bench passes --trace-out).
  obs::Tracer* tracer = nullptr;

  std::size_t total_cores() const { return num_executors * cores_per_executor; }
  std::size_t total_memory_bytes() const {
    return num_executors * executor_memory_bytes;
  }
  std::size_t default_partitions() const {
    return total_cores() * partitions_per_core;
  }
};

namespace detail {

/// No per-kill side effects: what a pool worker passes, so it never touches
/// the coordinator's tracer or counters.
struct NoKillHook {
  void operator()(std::size_t /*attempt*/, bool /*last*/) const {}
};

/// The one task attempt loop, run by in-process tasks (Engine::run_stage)
/// and pool-worker tasks alike. Attempts `first_attempt`, `first_attempt +
/// 1`, ... of task `partition` each take one fault draw; a killed attempt
/// calls on_kill(attempt, last), `last` meaning it spent the budget, and the
/// next attempt launches (the reattempt backoff is modeled, not slept). The
/// first surviving attempt calls run(attempt) once. A failed attempt is
/// modeled as dying just before completion, so a task that needed retries
/// adds one full attempt's compute per failure to retry_cost. A task that
/// reaches `max_attempts` attempts — injected kills, or worker deaths
/// charged to `first_attempt` — throws TaskFailure.
template <typename Run, typename OnKill = NoKillHook>
void run_attempts(const FaultInjector& faults, const std::string& stage,
                  std::size_t partition, std::size_t first_attempt,
                  std::size_t max_attempts, TaskMetrics& task, Run&& run,
                  OnKill&& on_kill = {}) {
  task.attempts = first_attempt;  // charged before this loop began
  for (std::size_t attempt = first_attempt; attempt < max_attempts;
       ++attempt) {
    task.attempts = attempt + 1;
    if (faults.fail_task(stage, partition, attempt)) {
      on_kill(attempt, attempt + 1 >= max_attempts);
      continue;
    }
    run(attempt);
    if (attempt > 0) task.retry_cost += attempt * task.compute_cost;
    return;
  }
  throw TaskFailure("task failed permanently after " +
                    std::to_string(task.attempts) + " attempts: stage=" +
                    stage + " partition=" + std::to_string(partition));
}

}  // namespace detail

/// Per-task view handed to every run_stage body. Bundles what the old
/// `std::size_t partition` parameter made callers fish out of shared state:
/// the partition index, the task's metrics slot, the current attempt (the
/// fault-injection site), and the task's trace span for custom annotations.
class TaskContext {
 public:
  std::size_t partition() const { return partition_; }
  /// 0-based attempt currently executing; > 0 only after injected failures
  /// killed earlier attempts of this task.
  std::size_t attempt() const { return attempt_; }
  const std::string& stage_name() const { return stage_name_; }

  /// This task's metrics slot (same object as stage.tasks[partition()]).
  TaskMetrics& metrics() { return metrics_; }
  const TaskMetrics& metrics() const { return metrics_; }

  /// The task's trace span; inactive (all methods no-ops) when tracing is
  /// off. Bodies may attach args reported with the span's close event.
  obs::ScopedSpan& span() { return span_; }

  TaskContext(const TaskContext&) = delete;
  TaskContext& operator=(const TaskContext&) = delete;

 private:
  friend class Engine;
  TaskContext(const std::string& stage_name, std::size_t partition,
              TaskMetrics& metrics, obs::ScopedSpan& span)
      : stage_name_(stage_name),
        partition_(partition),
        metrics_(metrics),
        span_(span) {}

  const std::string& stage_name_;
  std::size_t partition_;
  std::size_t attempt_ = 0;
  TaskMetrics& metrics_;
  obs::ScopedSpan& span_;
};

class Engine {
 public:
  explicit Engine(EngineConfig config);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const EngineConfig& config() const { return config_; }
  ThreadPool& pool() { return pool_; }
  const FaultInjector& faults() const { return faults_; }

  const JobMetrics& metrics() const { return metrics_; }
  JobMetrics& metrics() { return metrics_; }
  void reset_metrics() { metrics_.stages.clear(); }

  /// Appends a stage with `tasks` zeroed task slots and returns it. The
  /// reference stays valid for the engine's lifetime (until reset_metrics):
  /// stages live in a deque and begin_stage is serialized by a mutex, so
  /// stages begun later — including recomputation stages nested inside a
  /// running one — never invalidate it.
  StageMetrics& begin_stage(const std::string& name, std::size_t tasks);

  /// Runs body(ctx) for every task slot of `stage` on the in-process thread
  /// pool, whatever the backend, giving each task up to
  /// config().max_task_attempts attempts. Injected failures kill an attempt
  /// *at launch* (so a body observes either a complete prior run or none;
  /// bodies need not be idempotent mid-flight) and are retried with the
  /// wasted work recorded in attempts/retry_cost; genuine exceptions from the
  /// body propagate immediately, first one wins. The whole stage runs under a
  /// "stage" trace span and each task under a nested "task" span; retries
  /// emit "task.retry" instants.
  void run_stage(StageMetrics& stage,
                 const std::function<void(TaskContext&)>& body);

  /// Runs `plan` on the worker pool (pooled() only; `stage` has at least one
  /// task), forking the pool first if this is the job's first pooled stage,
  /// and returns the stage's worker-resident output set. Each worker task
  /// runs the plan's kernel through the same attempt loop as run_stage.
  std::shared_ptr<PoolSet> run_pooled_stage(StageMetrics& stage,
                                            const PoolStagePlan& plan);

  /// True when the engine has a worker pool: the process backend, outside
  /// TSan builds. Transformations build a PoolStagePlan only then.
  bool pooled() const { return worker_pool_ != nullptr; }

  /// The tracer this engine records into (config().tracer or the global).
  obs::Tracer& tracer() { return tracer_; }

  /// This engine's own directory for spill and shuffle files; it goes when
  /// the engine dies.
  const std::string& spill_dir() const { return spill_dir_; }

  /// Unique path for one spill file; files live until the engine dies.
  std::string next_spill_path();

 private:
  friend class WorkerPool;

  /// Times `run` as one stage: its span, wall_seconds, and the thread-pool
  /// scheduler deltas.
  template <typename Run>
  void instrumented(StageMetrics& stage, Run&& run);

  EngineConfig config_;
  ThreadPool pool_;
  FaultInjector faults_;
  JobMetrics metrics_;
  std::mutex stages_mutex_;
  std::string spill_dir_;
  std::atomic<std::size_t> spill_counter_{0};
  obs::Tracer& tracer_;
  std::unique_ptr<WorkerPool> worker_pool_;  ///< null unless pooled()
  // Registry lookups happen once here; task loops pay one relaxed add.
  obs::CounterRegistry::Counter& stages_counter_;
  obs::CounterRegistry::Counter& tasks_counter_;
  obs::CounterRegistry::Counter& retries_counter_;
  obs::CounterRegistry::Counter& failures_counter_;
  obs::CounterRegistry::Counter& stolen_counter_;
  obs::CounterRegistry::Counter& parks_counter_;
  obs::CounterRegistry::Counter& fastpath_counter_;
  obs::CounterRegistry::Counter& workers_forked_counter_;
  obs::CounterRegistry::Counter& worker_deaths_counter_;
  obs::CounterRegistry::Counter& ipc_bytes_counter_;
};

}  // namespace drapid
