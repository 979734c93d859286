#include "dataflow/engine.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "dataflow/ipc/pool.hpp"
#include "util/text_table.hpp"

namespace drapid {

namespace {
std::size_t sum_tasks(const StageMetrics& stage,
                      std::size_t TaskMetrics::*field) {
  std::size_t total = 0;
  for (const auto& t : stage.tasks) total += t.*field;
  return total;
}

/// A modeled cluster without executors, cores or partitions per core has
/// default_partitions() == 0, and a partitioner over 0 targets has nowhere
/// to route a record.
const EngineConfig& checked(const EngineConfig& config) {
  if (config.num_executors == 0 || config.cores_per_executor == 0 ||
      config.partitions_per_core == 0) {
    throw std::invalid_argument(
        "engine config needs at least one executor, core per executor and "
        "partition per core (got " +
        std::to_string(config.num_executors) + ", " +
        std::to_string(config.cores_per_executor) + ", " +
        std::to_string(config.partitions_per_core) + ")");
  }
  return config;
}
}  // namespace

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

std::size_t StageMetrics::total_records_in() const {
  return sum_tasks(*this, &TaskMetrics::records_in);
}
std::size_t StageMetrics::total_bytes_in() const {
  return sum_tasks(*this, &TaskMetrics::bytes_in);
}
std::size_t StageMetrics::total_shuffle_bytes() const {
  return sum_tasks(*this, &TaskMetrics::shuffle_bytes);
}
std::size_t StageMetrics::total_spill_bytes() const {
  return sum_tasks(*this, &TaskMetrics::spill_bytes);
}
std::size_t StageMetrics::total_compute_cost() const {
  return sum_tasks(*this, &TaskMetrics::compute_cost);
}
std::size_t StageMetrics::total_retries() const {
  std::size_t total = 0;
  for (const auto& t : tasks) total += t.attempts > 1 ? t.attempts - 1 : 0;
  return total;
}
std::size_t StageMetrics::total_retry_cost() const {
  return sum_tasks(*this, &TaskMetrics::retry_cost);
}

std::size_t JobMetrics::total_shuffle_bytes() const {
  std::size_t total = 0;
  for (const auto& s : stages) total += s.total_shuffle_bytes();
  return total;
}
std::size_t JobMetrics::total_spill_bytes() const {
  std::size_t total = 0;
  for (const auto& s : stages) total += s.total_spill_bytes();
  return total;
}
std::size_t JobMetrics::total_compute_cost() const {
  std::size_t total = 0;
  for (const auto& s : stages) total += s.total_compute_cost();
  return total;
}
std::size_t JobMetrics::total_retries() const {
  std::size_t total = 0;
  for (const auto& s : stages) total += s.total_retries();
  return total;
}
std::size_t JobMetrics::total_retry_cost() const {
  std::size_t total = 0;
  for (const auto& s : stages) total += s.total_retry_cost();
  return total;
}
std::size_t JobMetrics::total_worker_deaths() const {
  std::size_t total = 0;
  for (const auto& s : stages) total += s.worker_deaths;
  return total;
}
std::size_t JobMetrics::total_ipc_bytes() const {
  std::size_t total = 0;
  for (const auto& s : stages) total += s.ipc_bytes;
  return total;
}
double JobMetrics::total_wall_seconds() const {
  double total = 0.0;
  for (const auto& s : stages) total += s.wall_seconds;
  return total;
}

std::string JobMetrics::summary() const {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"stage", "tasks", "records_in", "bytes_in", "shuffle_bytes",
                  "spill_bytes", "compute_cost", "retries", "stolen",
                  "deaths", "ipc_bytes", "pool_reuses", "resident_bytes"});
  for (const auto& s : stages) {
    rows.push_back({s.name, std::to_string(s.tasks.size()),
                    std::to_string(s.total_records_in()),
                    std::to_string(s.total_bytes_in()),
                    std::to_string(s.total_shuffle_bytes()),
                    std::to_string(s.total_spill_bytes()),
                    std::to_string(s.total_compute_cost()),
                    std::to_string(s.total_retries()),
                    std::to_string(s.tasks_stolen),
                    std::to_string(s.worker_deaths),
                    std::to_string(s.ipc_bytes),
                    std::to_string(s.pool_reuses),
                    std::to_string(s.resident_bytes)});
  }
  return render_table(rows);
}

Engine::Engine(EngineConfig config)
    : config_(checked(config)),
      pool_(config.exec.threads_per_worker),
      faults_(config.faults),
      tracer_(config.tracer ? *config.tracer : obs::global_tracer()),
      stages_counter_(obs::global_counters().counter("engine.stages")),
      tasks_counter_(obs::global_counters().counter("engine.tasks")),
      retries_counter_(obs::global_counters().counter("engine.task_retries")),
      failures_counter_(
          obs::global_counters().counter("engine.task_failures")),
      stolen_counter_(obs::global_counters().counter("engine.tasks_stolen")),
      parks_counter_(obs::global_counters().counter("engine.parks")),
      fastpath_counter_(
          obs::global_counters().counter("engine.fastpath_completions")),
      workers_forked_counter_(
          obs::global_counters().counter("engine.workers_forked")),
      worker_deaths_counter_(
          obs::global_counters().counter("engine.worker_deaths")),
      ipc_bytes_counter_(obs::global_counters().counter("engine.ipc_bytes")) {
  // A TSan build, where forking a multithreaded process would deadlock the
  // sanitizer runtime, runs a process policy in-process like the local one.
  if (config_.exec.backend == ExecBackend::kProcess &&
      process_executor_supported()) {
    worker_pool_ = std::make_unique<WorkerPool>(
        *this, config_.exec.resolve_workers(config_.num_executors));
  }
  namespace fs = std::filesystem;
  fs::path dir = config_.spill_dir.empty()
                     ? fs::temp_directory_path() / "drapid_spill"
                     : fs::path(config_.spill_dir);
  fs::create_directories(dir);
  // Isolate engines from one another with a per-instance subdirectory.
  std::ostringstream unique;
  unique << "engine_" << reinterpret_cast<std::uintptr_t>(this);
  spill_dir_ = (dir / unique.str()).string();
  fs::create_directories(spill_dir_);
}

Engine::~Engine() {
  std::error_code ec;  // best-effort cleanup; never throw from a destructor
  std::filesystem::remove_all(spill_dir_, ec);
}

StageMetrics& Engine::begin_stage(const std::string& name, std::size_t tasks) {
  StageMetrics stage;
  stage.name = name;
  stage.tasks.resize(tasks);
  for (std::size_t i = 0; i < tasks; ++i) stage.tasks[i].partition = i;
  std::lock_guard lock(stages_mutex_);
  stages_counter_.add();
  metrics_.stages.push_back(std::move(stage));
  return metrics_.stages.back();
}

template <typename Run>
void Engine::instrumented(StageMetrics& stage, Run&& run) {
  obs::ScopedSpan stage_span(tracer_, "stage", stage.name, "dataflow");
  stage_span.arg("tasks", static_cast<std::int64_t>(stage.tasks.size()));
  const SchedulerStats pool_before = pool_.stats();
  const auto wall_start = std::chrono::steady_clock::now();
  run();
  stage.wall_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  const SchedulerStats pool_after = pool_.stats();
  const std::uint64_t stolen = pool_after.tasks_stolen - pool_before.tasks_stolen;
  const std::uint64_t parks = pool_after.parks - pool_before.parks;
  const std::uint64_t fastpath =
      pool_after.fastpath_completions - pool_before.fastpath_completions;
  stage.tasks_stolen += stolen;
  stage.parks += parks;
  stage.fastpath_completions += fastpath;
  stolen_counter_.add(static_cast<std::int64_t>(stolen));
  parks_counter_.add(static_cast<std::int64_t>(parks));
  fastpath_counter_.add(static_cast<std::int64_t>(fastpath));
  if (tracer_.enabled()) {
    stage_span.arg("tasks_stolen", static_cast<std::int64_t>(stolen));
    stage_span.arg("parks", static_cast<std::int64_t>(parks));
    stage_span.arg("fastpath_completions", static_cast<std::int64_t>(fastpath));
  }
}

void Engine::run_stage(StageMetrics& stage,
                       const std::function<void(TaskContext&)>& body) {
  const std::size_t max_attempts =
      std::max<std::size_t>(1, config_.max_task_attempts);
  instrumented(stage, [&] {
    pool_.parallel_for(stage.tasks.size(), [&](std::size_t p) {
      auto& task = stage.tasks[p];
      obs::ScopedSpan task_span(tracer_, "task", stage.name, "dataflow");
      task_span.arg("partition", static_cast<std::int64_t>(p));
      TaskContext ctx(stage.name, p, task, task_span);
      detail::run_attempts(
          faults_, stage.name, p, 0, max_attempts, task,
          [&](std::size_t attempt) {
            ctx.attempt_ = attempt;
            body(ctx);
          },
          [&](std::size_t attempt, bool last) {
            retries_counter_.add();
            if (tracer_.enabled()) {
              obs::Json args = obs::Json::object();
              args.set("stage", stage.name);
              args.set("partition", static_cast<std::int64_t>(p));
              args.set("attempt", static_cast<std::int64_t>(attempt));
              tracer_.instant("task.retry", std::move(args), "fault");
            }
            if (last) {
              failures_counter_.add();
              task_span.arg("failed", true);
            }
          });
      tasks_counter_.add();
      if (task.attempts > 1) {
        task_span.arg("attempts", static_cast<std::int64_t>(task.attempts));
      }
    });
  });
}

std::shared_ptr<PoolSet> Engine::run_pooled_stage(StageMetrics& stage,
                                                  const PoolStagePlan& plan) {
  std::shared_ptr<PoolSet> out;
  instrumented(stage, [&] { out = worker_pool_->run_stage(stage, plan); });
  return out;
}

std::string Engine::next_spill_path() {
  std::ostringstream name;
  name << "spill_" << spill_counter_.fetch_add(1) << ".bin";
  return (std::filesystem::path(spill_dir_) / name.str()).string();
}

}  // namespace drapid
