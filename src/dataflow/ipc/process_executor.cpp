#include "dataflow/ipc/process_executor.hpp"

#include <algorithm>

#include "dataflow/ipc/pool.hpp"

namespace drapid {

bool process_executor_supported() {
#if defined(__SANITIZE_THREAD__)
  return false;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  return false;
#else
  return true;
#endif
#else
  return true;
#endif
}

ProcessExecutor::ProcessExecutor(Engine& engine, std::size_t workers)
    : Executor(true),
      workers_(std::max<std::size_t>(1, workers)),
      local_(engine),
      pool_(std::make_unique<WorkerPool>(engine, workers_)) {}

ProcessExecutor::~ProcessExecutor() = default;

void ProcessExecutor::run_stage_tasks(StageRun run) {
  if (run.plan != nullptr && run.plan->kernel != nullptr &&
      !run.stage.tasks.empty()) {
    pool_->run_pooled_stage(run);
  } else {
    local_.run_stage_tasks(run);
  }
}

}  // namespace drapid
