// Multi-process stage execution over Unix-domain sockets.
//
// ProcessExecutor is the backend that runs stage work in real OS processes,
// turning the engine's "modeled executors" into actual workers. It owns the
// job's one routing decision:
//
//   * A stage that carries a PoolStagePlan (kernel pointer plus encoded
//     stage state) runs on the job-lifetime WorkerPool (dataflow/ipc/pool.hpp): N
//     worker processes forked once, at the first planned stage, that keep
//     output partitions resident between stages.
//   * Every other stage — spill I/O, cache bookkeeping — runs its body
//     in-process on the embedded LocalExecutor. The caller has already
//     pulled any worker-resident inputs such a stage needs back to the
//     coordinator.
//
// Either way the stage's outputs and metrics are byte-identical to the local
// backend's, which stays the oracle. TSan builds (fork of a multithreaded
// process deadlocks the sanitizer runtime) never construct this backend;
// the engine downgrades a process policy to the local one.
#pragma once

#include <cstddef>
#include <memory>

#include "dataflow/executor.hpp"

namespace drapid {

class WorkerPool;

/// False when the build cannot fork workers (thread sanitizer); the engine
/// then silently downgrades a process policy to the local backend.
bool process_executor_supported();

class ProcessExecutor : public Executor {
 public:
  /// `workers` is clamped to at least 1: the pool forks exactly that many
  /// processes at the first planned stage and reuses them until destruction.
  ProcessExecutor(Engine& engine, std::size_t workers);
  ~ProcessExecutor() override;

  const char* name() const override { return "process"; }
  std::size_t workers() const override { return workers_; }
  void run_stage_tasks(StageRun run) override;

 private:
  std::size_t workers_;
  LocalExecutor local_;  ///< stages without a pool plan
  std::unique_ptr<WorkerPool> pool_;  ///< forks lazily
};

}  // namespace drapid
