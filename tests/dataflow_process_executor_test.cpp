// Process-backend suite: the multi-process backend must be a drop-in
// replacement for the in-process pool — byte-identical stage outputs, the
// same retry accounting under injected task kills, lossless recovery when a
// whole worker process is SIGKILLed mid-stage, and a teardown that leaves
// no descriptor or child process behind. Fork-based tests skip themselves
// under ThreadSanitizer (fork + threads is undefined there); the engine
// itself runs every stage in-process in those builds.
#include "dataflow/engine.hpp"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cerrno>
#include <filesystem>
#include <iterator>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "dataflow/block_store.hpp"
#include "dataflow/ipc/pool.hpp"
#include "dataflow/rdd.hpp"
#include "dataflow/spill.hpp"
#include "drapid/pipeline.hpp"
#include "obs/counters.hpp"
#include "util/exec_policy.hpp"

namespace drapid {
namespace {

using StringRdd = Rdd<std::string, std::string>;

#define DRAPID_REQUIRE_FORK()                                         \
  do {                                                                \
    if (!process_executor_supported()) {                              \
      GTEST_SKIP() << "fork-based backend unavailable in this build " \
                      "(thread sanitizer)";                           \
    }                                                                 \
  } while (0)

EngineConfig base_config() {
  EngineConfig cfg;
  cfg.num_executors = 2;
  cfg.partitions_per_core = 4;
  return cfg;
}

EngineConfig process_config(std::size_t workers) {
  EngineConfig cfg = base_config();
  cfg.exec = ExecPolicy::process(workers, 2);
  return cfg;
}

double workers_alive_gauge() {
  for (const auto& [name, value] : obs::global_counters().gauges_snapshot()) {
    if (name == "engine.pool.workers_alive") return value;
  }
  return -1.0;
}

/// Descriptors this process holds open right now (the directory handle the
/// count itself opens is included every time, so counts compare exactly).
std::size_t open_fd_count() {
  namespace fs = std::filesystem;
  return static_cast<std::size_t>(std::distance(
      fs::directory_iterator("/proc/self/fd"), fs::directory_iterator()));
}

/// Socket descriptors this process holds open, with their link targets
/// ("socket:[inode]").
std::map<int, std::string> open_sockets() {
  namespace fs = std::filesystem;
  std::map<int, std::string> sockets;
  for (const auto& entry : fs::directory_iterator("/proc/self/fd")) {
    std::error_code ec;
    std::string target = fs::read_symlink(entry.path(), ec).string();
    if (ec || target.rfind("socket:", 0) != 0) continue;
    sockets.emplace(std::stoi(entry.path().filename().string()),
                    std::move(target));
  }
  return sockets;
}

EngineConfig local_config() {
  EngineConfig cfg = base_config();
  cfg.exec = ExecPolicy::local(2);
  return cfg;
}

std::vector<std::pair<std::string, std::string>> make_pairs(std::size_t n) {
  std::vector<std::pair<std::string, std::string>> pairs;
  pairs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pairs.emplace_back("key" + std::to_string(i % 97),
                       "value-" + std::to_string(i * 31));
  }
  return pairs;
}

// The full shuffle pipeline (map → partition → aggregate → join) run under
// one engine; used to compare backends end to end.
std::vector<std::pair<std::string, std::string>> run_pipeline(
    Engine& engine, std::size_t pairs = 600) {
  const auto rdd = parallelize(engine, make_pairs(pairs), 8);
  const auto upper = map_pairs(
      engine, rdd,
      [](const std::pair<std::string, std::string>& kv) {
        return std::make_pair(kv.first, kv.second + "!");
      },
      "xform");
  const HashPartitioner part{16};
  const auto shuffled = partition_by(engine, upper, part);
  const auto counts = aggregate_by_key(
      engine, shuffled, std::size_t{0},
      [](std::size_t& agg, const std::string&) { ++agg; },
      [](std::size_t& agg, std::size_t&& other) { agg += other; }, part);
  const auto joined = left_outer_join(engine, shuffled, counts, part);
  const auto flattened = map_pairs(
      engine, joined,
      [](const std::pair<std::string,
                         std::pair<std::string, std::optional<std::size_t>>>&
             kv) {
        return std::make_pair(
            kv.first, kv.second.first + "|" +
                          std::to_string(kv.second.second.value_or(0)));
      },
      "flatten");
  auto out = flattened.collect();
  std::sort(out.begin(), out.end());
  return out;
}

/// Both runs recorded the same stages, and every task the same work
/// counters: the per-partition functions are shared between backends, so
/// nothing but the execution venue may differ.
void expect_same_task_metrics(const JobMetrics& local,
                              const JobMetrics& process) {
  ASSERT_EQ(local.stages.size(), process.stages.size());
  for (std::size_t s = 0; s < local.stages.size(); ++s) {
    const StageMetrics& a = local.stages[s];
    const StageMetrics& b = process.stages[s];
    ASSERT_EQ(a.name, b.name);
    ASSERT_EQ(a.tasks.size(), b.tasks.size()) << a.name;
    for (std::size_t t = 0; t < a.tasks.size(); ++t) {
      SCOPED_TRACE(a.name + " task " + std::to_string(t));
      const TaskMetrics& x = a.tasks[t];
      const TaskMetrics& y = b.tasks[t];
      EXPECT_EQ(x.records_in, y.records_in);
      EXPECT_EQ(x.records_out, y.records_out);
      EXPECT_EQ(x.bytes_in, y.bytes_in);
      EXPECT_EQ(x.bytes_out, y.bytes_out);
      EXPECT_EQ(x.compute_cost, y.compute_cost);
      EXPECT_EQ(x.shuffle_bytes, y.shuffle_bytes);
    }
  }
}

/// The gbt350 job of FullPipelineMatchesLocalIncludingUnderWorkerKill.
PipelineConfig gbt350_pipeline() {
  PipelineConfig pipeline;
  pipeline.survey = SurveyConfig::gbt350drift();
  pipeline.survey.obs_length_s = 60.0;
  pipeline.survey.noise_events_per_second = 10.0;
  pipeline.num_observations = 4;
  pipeline.visibility = 0.08;
  pipeline.seed = 5;
  return pipeline;
}

TEST(ProcessExecutor, EngineSelectsRequestedBackend) {
  Engine local(local_config());
  EXPECT_FALSE(local.pooled());
  if (!process_executor_supported()) {
    Engine fallback(process_config(2));
    EXPECT_FALSE(fallback.pooled())
        << "unsupported builds must silently fall back";
    return;
  }
  Engine process(process_config(3));
  EXPECT_TRUE(process.pooled());
  const auto rdd = parallelize(process, make_pairs(60), 4);
  map_pairs(
      process, rdd,
      [](const std::pair<std::string, std::string>& kv) { return kv; },
      "xform");
  EXPECT_EQ(process.metrics().stages.back().workers_used, 3u)
      << "the first pooled stage forks the requested worker count";
}

TEST(ProcessExecutor, ShufflePipelineMatchesLocalByteForByte) {
  DRAPID_REQUIRE_FORK();
  Engine local(local_config());
  const auto expected = run_pipeline(local);
  Engine process(process_config(2));
  const auto actual = run_pipeline(process);
  ASSERT_EQ(actual.size(), expected.size());
  EXPECT_EQ(actual, expected);
  // The process run really went over the wire: pooled stages report forked
  // workers and shipped bytes.
  std::size_t staged_ipc = 0, staged_workers = 0;
  for (const auto& stage : process.metrics().stages) {
    staged_ipc += stage.ipc_bytes;
    staged_workers += stage.workers_used;
  }
  EXPECT_GT(staged_ipc, 0u);
  EXPECT_GT(staged_workers, 0u);
  EXPECT_EQ(process.metrics().total_ipc_bytes(), staged_ipc);
  EXPECT_EQ(process.metrics().total_worker_deaths(), 0u);
}

TEST(ProcessExecutor, InjectedTaskKillsMatchLocalRetryAccounting) {
  DRAPID_REQUIRE_FORK();
  const auto run = [](EngineConfig cfg) {
    cfg.faults.fail_once_stages = {"xform"};
    Engine engine(cfg);
    const auto rdd = parallelize(engine, make_pairs(200), 8);
    const auto out = map_pairs(
        engine, rdd,
        [](const std::pair<std::string, std::string>& kv) {
          return std::make_pair(kv.first, kv.second + "#");
        },
        "xform");
    StageMetrics stage;
    for (const auto& s : engine.metrics().stages) {
      if (s.name == "xform") stage = s;
    }
    return std::make_pair(out.collect(), stage);
  };
  const auto [local_out, local_stage] = run(local_config());
  const auto [process_out, process_stage] = run(process_config(2));
  EXPECT_EQ(process_out, local_out);
  // Every first attempt was killed by the injector in both backends; the
  // wire carries the child's attempt counters back unchanged.
  ASSERT_EQ(process_stage.tasks.size(), local_stage.tasks.size());
  for (std::size_t p = 0; p < local_stage.tasks.size(); ++p) {
    EXPECT_EQ(process_stage.tasks[p].attempts, 2u);
    EXPECT_EQ(process_stage.tasks[p].attempts, local_stage.tasks[p].attempts);
    EXPECT_EQ(process_stage.tasks[p].retry_cost,
              local_stage.tasks[p].retry_cost);
  }
  EXPECT_EQ(process_stage.total_retries(), local_stage.total_retries());
  EXPECT_EQ(process_stage.worker_deaths, 0u)
      << "injected task kills die inside the child, not the child itself";
}

// ------------------------------------------ one attempt loop, two backends

/// One fault plan and attempt budget, run as a narrow and as a wide stage.
struct AttemptCase {
  std::string name;
  FaultPlan faults;
  std::size_t max_attempts = 4;
  std::size_t partitions = 8;
  bool throws = false;
};

/// What one backend's attempt loop left behind for one stage.
struct AttemptOutcome {
  std::vector<std::pair<std::string, std::string>> out;
  std::vector<std::size_t> attempts;
  std::vector<std::size_t> retry_costs;
  std::int64_t retries = 0;   ///< engine.task_retries delta
  std::int64_t failures = 0;  ///< engine.task_failures delta
  std::string failure;        ///< the TaskFailure text, if the stage threw
};

AttemptOutcome run_attempt_case(EngineConfig cfg, const AttemptCase& row,
                                bool wide) {
  cfg.faults = row.faults;
  cfg.max_task_attempts = row.max_attempts;
  auto& retries = obs::global_counters().counter("engine.task_retries");
  auto& failures = obs::global_counters().counter("engine.task_failures");
  const std::int64_t retries_before = retries.value();
  const std::int64_t failures_before = failures.value();
  AttemptOutcome outcome;
  Engine engine(cfg);
  const auto rdd = parallelize(engine, make_pairs(300), row.partitions);
  const std::string name = wide ? "wide" : "narrow";
  try {
    const auto out =
        wide ? partition_by(engine, rdd, HashPartitioner{6}, name)
             : map_pairs(
                   engine, rdd,
                   [](const std::pair<std::string, std::string>& kv) {
                     return std::make_pair(kv.first, kv.second + "+");
                   },
                   name);
    outcome.out = out.collect();
    for (const auto& task : engine.metrics().stages.back().tasks) {
      outcome.attempts.push_back(task.attempts);
      outcome.retry_costs.push_back(task.retry_cost);
    }
  } catch (const TaskFailure& e) {
    outcome.failure = e.what();
  }
  outcome.retries = retries.value() - retries_before;
  outcome.failures = failures.value() - failures_before;
  return outcome;
}

TEST(ProcessExecutor, AttemptLoopTableMatchesLocal) {
  DRAPID_REQUIRE_FORK();
  FaultPlan fail_once;
  fail_once.fail_once_stages = {"narrow", "wide"};
  FaultPlan rate;
  rate.task_failure_rate = 0.3;
  rate.max_injected_failures_per_task = 2;
  // The budget-1 row runs one task per stage: with several, which failing
  // task's error surfaces first (and how many fail before the stage stops)
  // depends on thread and socket timing on either backend.
  const std::vector<AttemptCase> rows = {
      {"fail_once_stages", fail_once},
      {"rate 0.3, at most 2 kills per task", rate},
      {"budget 1 under fail_once", fail_once, 1, 1, true},
  };
  for (const auto& row : rows) {
    for (const bool wide : {false, true}) {
      SCOPED_TRACE(row.name + (wide ? ", wide stage" : ", narrow stage"));
      const AttemptOutcome local = run_attempt_case(local_config(), row, wide);
      const AttemptOutcome pool =
          run_attempt_case(process_config(2), row, wide);
      EXPECT_GT(local.retries, 0) << "the plan must inject kills";
      EXPECT_EQ(pool.retries, local.retries);
      EXPECT_EQ(pool.failures, local.failures);
      EXPECT_EQ(pool.failure, local.failure);
      if (row.throws) {
        EXPECT_EQ(local.failure,
                  "task failed permanently after 1 attempts: stage=" +
                      std::string(wide ? "wide" : "narrow") + " partition=0");
        EXPECT_EQ(local.failures, 1);
        continue;
      }
      EXPECT_TRUE(local.failure.empty()) << local.failure;
      EXPECT_EQ(local.failures, 0);
      EXPECT_EQ(pool.attempts, local.attempts);
      EXPECT_EQ(pool.retry_costs, local.retry_costs);
      EXPECT_TRUE(pool.out == local.out) << "pooled output differs";
    }
  }
}

TEST(ProcessExecutor, WorkerDeathRecoversByteIdentically) {
  DRAPID_REQUIRE_FORK();
  const auto run = [](EngineConfig cfg) {
    Engine engine(cfg);
    const auto rdd = parallelize(engine, make_pairs(400), 8);
    const auto out = map_pairs(
        engine, rdd,
        [](const std::pair<std::string, std::string>& kv) {
          return std::make_pair(kv.first + "/x", kv.second);
        },
        "xform");
    StageMetrics stage;
    for (const auto& s : engine.metrics().stages) {
      if (s.name == "xform") stage = s;
    }
    return std::make_pair(out.collect(), stage);
  };
  const auto [clean_out, clean_stage] = run(local_config());

  EngineConfig cfg = process_config(2);
  cfg.faults.kill_workers.push_back({"xform", 0});
  const auto [faulty_out, faulty_stage] = run(cfg);
  EXPECT_EQ(faulty_out, clean_out) << "worker death must be lossless";
  EXPECT_EQ(faulty_stage.worker_deaths, 1u);
  // Two workers forked up front plus one replacement incarnation.
  EXPECT_EQ(faulty_stage.workers_used, 3u);
  // The victim's unfinished tasks were re-run: at least one task shows a
  // charged attempt, and the stage counted the retries.
  std::size_t reattempted = 0;
  for (const auto& t : faulty_stage.tasks) reattempted += t.attempts > 1;
  EXPECT_GE(reattempted, 1u);
  EXPECT_GE(faulty_stage.total_retries(), reattempted);
  for (const auto& t : clean_stage.tasks) EXPECT_EQ(t.attempts, 1u);
}

TEST(ProcessExecutor, RepeatedDeathsExhaustTheAttemptBudget) {
  DRAPID_REQUIRE_FORK();
  EngineConfig cfg = process_config(2);
  cfg.max_task_attempts = 1;  // one death is already one charged attempt
  cfg.faults.kill_workers.push_back({"doomed", 0});
  Engine engine(cfg);
  const auto rdd = parallelize(engine, make_pairs(100), 8);
  EXPECT_THROW(map_pairs(
                   engine, rdd,
                   [](const std::pair<std::string, std::string>& kv) {
                     return kv;
                   },
                   "doomed"),
               TaskFailure);
}

TEST(ProcessExecutor, ChildExceptionsPropagateToTheParent) {
  DRAPID_REQUIRE_FORK();
  Engine engine(process_config(2));
  const auto rdd = parallelize(engine, make_pairs(40), 4);
  try {
    // A stateless closure ships as a pool plan, so it throws in a worker.
    map_pairs(
        engine, rdd,
        [](const std::pair<std::string, std::string>& kv) {
          if (kv.first == "key2") throw std::runtime_error("boom in child");
          return kv;
        },
        "buggy");
    FAIL() << "the child's exception must cross the socket";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("boom in child"), std::string::npos);
  }
  EXPECT_EQ(engine.metrics().stages.back().name, "buggy");
  EXPECT_GT(engine.metrics().stages.back().workers_used, 0u)
      << "the stage must have run in the pool, not in-process";
}

TEST(ProcessExecutor, StagesWithoutCodecsRunInProcess) {
  DRAPID_REQUIRE_FORK();
  // Spill and cache stages carry no pool plan; they must keep running in
  // the parent (side effects visible, no forks) even on the process backend.
  Engine engine(process_config(2));
  auto& stage = engine.begin_stage("inproc", 4);
  std::atomic<int> touched{0};
  engine.run_stage(stage,
                   [&](TaskContext&) { touched.fetch_add(1); });
  EXPECT_EQ(touched.load(), 4);
  EXPECT_EQ(stage.workers_used, 0u);
  EXPECT_EQ(stage.ipc_bytes, 0u);
}

// ----------------------------------------------------- job-lifetime pool

TEST(WorkerPoolMode, JobPoolMatchesLocalByteForByte) {
  DRAPID_REQUIRE_FORK();
  // The pool ships the source in once, shuffles worker to worker, and
  // fetches only the final collect.
  const std::size_t kPairs = 6000;
  Engine local(local_config());
  const auto expected = run_pipeline(local, kPairs);

  Engine pooled(process_config(2));
  const auto job_out = run_pipeline(pooled, kPairs);
  EXPECT_EQ(job_out, expected);
  EXPECT_GT(pooled.metrics().total_ipc_bytes(), 0u);

  std::size_t reuses = 0, resident = 0;
  for (const auto& s : pooled.metrics().stages) {
    reuses += s.pool_reuses;
    resident += s.resident_bytes;
  }
  EXPECT_GT(reuses, 0u) << "later stages must reuse the forked workers";
  EXPECT_GT(resident, 0u) << "outputs must stay worker-resident";
}

TEST(WorkerPoolMode, ShufflePipelineTaskMetricsMatchLocal) {
  DRAPID_REQUIRE_FORK();
  Engine local(local_config());
  run_pipeline(local);
  Engine pooled(process_config(2));
  run_pipeline(pooled);
  expect_same_task_metrics(local.metrics(), pooled.metrics());
}

TEST(WorkerPoolMode, FullPipelineTaskMetricsMatchLocal) {
  DRAPID_REQUIRE_FORK();
  const auto run = [](ExecPolicy exec) {
    EngineConfig cfg;
    cfg.num_executors = 4;
    cfg.exec = exec;
    Engine engine(cfg);
    BlockStore store(15);
    run_full_pipeline(engine, store, gbt350_pipeline());
    return engine.metrics();
  };
  const JobMetrics local = run(ExecPolicy::local(2));
  const JobMetrics pooled = run(ExecPolicy::process(4, 2));
  ASSERT_FALSE(local.stages.empty());
  expect_same_task_metrics(local, pooled);
}

TEST(WorkerPoolMode, NonDefaultAggregateInitRunsInThePool) {
  DRAPID_REQUIRE_FORK();
  // The init value is stage state: it ships to the workers through the
  // value codec, so even a non-default std::string init runs pooled.
  const auto run = [](Engine& engine) {
    const auto rdd = parallelize(engine, make_pairs(600), 8);
    return aggregate_by_key(
               engine, rdd, std::string{"seed:"},
               [](std::string& agg, const std::string& v) { agg += v; },
               [](std::string& agg, std::string&& other) { agg += other; },
               HashPartitioner{16}, "agg")
        .collect();
  };
  Engine local(local_config());
  const auto expected = run(local);
  Engine pooled(process_config(2));
  const auto actual = run(pooled);
  EXPECT_EQ(actual, expected);
  ASSERT_FALSE(actual.empty());
  for (const auto& [key, agg] : actual) {
    EXPECT_EQ(agg.rfind("seed:", 0), 0u) << key;
  }
  const auto& stages = pooled.metrics().stages;
  const auto combine = std::find_if(
      stages.begin(), stages.end(),
      [](const StageMetrics& s) { return s.name == "agg:combine"; });
  ASSERT_NE(combine, stages.end());
  EXPECT_GT(combine->ipc_bytes, 0u) << "the combine must run in the pool";
  EXPECT_GT(combine->workers_used, 0u);
}

TEST(WorkerPoolMode, PoolForksOnceForTheWholeJob) {
  DRAPID_REQUIRE_FORK();
  Engine engine(process_config(2));
  run_pipeline(engine);
  // Exactly the two pool workers are ever forked: the first pooled stage
  // spawns them (workers_used = 2) and every later stage reuses them
  // (workers_used = 0).
  std::size_t forked = 0;
  for (const auto& s : engine.metrics().stages) forked += s.workers_used;
  EXPECT_EQ(forked, 2u);
  EXPECT_EQ(engine.metrics().total_worker_deaths(), 0u);
}

TEST(WorkerPoolMode, KillMidJobRebuildsResidentPartitions) {
  DRAPID_REQUIRE_FORK();
  Engine local(local_config());
  const auto expected = run_pipeline(local);

  // By the aggregate stage the shuffled partitions live inside the workers;
  // killing one destroys its resident state, and recovery must re-derive
  // the lost partitions from lineage before the job can finish.
  EngineConfig cfg = process_config(2);
  cfg.faults.kill_workers.push_back({"aggregate_by_key", 0});
  Engine engine(cfg);
  const auto out = run_pipeline(engine);
  EXPECT_EQ(out, expected) << "lost resident partitions must be rebuilt";
  EXPECT_GE(engine.metrics().total_worker_deaths(), 1u);
  std::size_t respawns = 0;
  for (const auto& s : engine.metrics().stages) respawns += s.worker_respawns;
  EXPECT_GE(respawns, 1u) << "a replacement worker must join the pool";
}

TEST(WorkerPoolMode, CleanShutdownDrainsThePool) {
  DRAPID_REQUIRE_FORK();
  // Teardown must leak nothing, whether every worker lived to the end or
  // one was SIGKILLed and replaced mid-job: no socket left open in the
  // parent, no child left running or unreaped.
  for (const bool kill : {false, true}) {
    SCOPED_TRACE(kill ? "with a worker kill" : "clean run");
    const std::size_t fds_before = open_fd_count();
    {
      EngineConfig cfg = process_config(2);
      if (kill) cfg.faults.kill_workers.push_back({"aggregate_by_key", 0});
      Engine engine(cfg);
      run_pipeline(engine);
      EXPECT_EQ(workers_alive_gauge(), 2.0)
          << "both pool workers alive while the engine lives";
      if (kill) {
        EXPECT_GE(engine.metrics().total_worker_deaths(), 1u);
      } else {
        EXPECT_EQ(engine.metrics().total_worker_deaths(), 0u);
      }
    }
    // Engine destruction sends kShutdown and reaps every worker.
    EXPECT_EQ(workers_alive_gauge(), 0.0);
    EXPECT_EQ(open_fd_count(), fds_before) << "a worker socket leaked";
    int status = 0;
    errno = 0;
    EXPECT_EQ(::waitpid(-1, &status, WNOHANG), -1)
        << "a worker process outlived the engine";
    EXPECT_EQ(errno, ECHILD);
  }
}

TEST(WorkerPoolMode, PoolSocketsAreCloseOnExec) {
  DRAPID_REQUIRE_FORK();
  // A program the host execs later must not inherit the parent side of a
  // worker socket: a worker would then never see EOF if the coordinator
  // died. Sockets this process inherited are not the pool's to judge.
  const auto inherited = open_sockets();
  Engine engine(process_config(2));
  const auto rdd = parallelize(engine, make_pairs(100), 4);
  map_pairs(
      engine, rdd,
      [](const std::pair<std::string, std::string>& kv) { return kv; },
      "xform");
  ASSERT_GT(engine.metrics().stages.back().workers_used, 0u);
  std::size_t pool_sockets = 0;
  for (const auto& [fd, target] : open_sockets()) {
    const auto it = inherited.find(fd);
    if (it != inherited.end() && it->second == target) continue;
    ++pool_sockets;
    EXPECT_NE(::fcntl(fd, F_GETFD) & FD_CLOEXEC, 0) << "fd " << fd << " "
                                                     << target;
  }
  EXPECT_GE(pool_sockets, 2u) << "one parent-side socket per live worker";
}

TEST(WorkerPoolMode, LargeChainHeadsSurvivePartialWritesAndWorkerDeath) {
  DRAPID_REQUIRE_FORK();
  // Four chain-head partitions of about 5 MiB each, far above the AF_UNIX
  // send buffer: every assign frame leaves the parent in many partial
  // sendmsg calls that resume mid-chunk, and the collect pulls equally
  // large replies back through many reads.
  std::vector<std::pair<std::string, std::string>> pairs;
  for (std::size_t i = 0; i < 160; ++i) {
    pairs.emplace_back("key" + std::to_string(i),
                       std::string(128 << 10, static_cast<char>('a' + i % 26)) +
                           std::to_string(i));
  }
  const auto run = [&pairs](EngineConfig cfg) {
    Engine engine(cfg);
    const auto rdd = parallelize(engine, pairs, 4);
    const auto out = map_pairs(
        engine, rdd,
        [](const std::pair<std::string, std::string>& kv) {
          return std::make_pair(kv.first + "/big", kv.second + "!");
        },
        "bulk");
    StageMetrics stage;
    for (const auto& s : engine.metrics().stages) {
      if (s.name == "bulk") stage = s;
    }
    return std::make_pair(out.collect(), stage);
  };
  const auto [local_out, local_stage] = run(local_config());

  for (const bool kill : {false, true}) {
    SCOPED_TRACE(kill ? "with a worker kill" : "clean run");
    const std::size_t fds_before = open_fd_count();
    {
      EngineConfig cfg = process_config(2);
      if (kill) cfg.faults.kill_workers.push_back({"bulk", 0});
      const auto [out, stage] = run(cfg);
      EXPECT_TRUE(out == local_out) << "pooled output differs from local";
      EXPECT_GE(stage.ipc_bytes, std::size_t{4} * (5u << 20))
          << "the chain heads must cross the sockets";
      ASSERT_EQ(stage.tasks.size(), local_stage.tasks.size());
      if (!kill) {
        EXPECT_EQ(stage.worker_deaths, 0u);
        for (std::size_t p = 0; p < stage.tasks.size(); ++p) {
          EXPECT_EQ(stage.tasks[p].attempts, local_stage.tasks[p].attempts);
          EXPECT_EQ(stage.tasks[p].retry_cost,
                    local_stage.tasks[p].retry_cost);
        }
        EXPECT_EQ(stage.total_retries(), local_stage.total_retries());
      } else {
        // The victim dies on receiving its last task, after finishing the
        // one before: exactly that task is charged one attempt.
        EXPECT_EQ(stage.worker_deaths, 1u);
        std::size_t rerun = 0;
        for (const auto& t : stage.tasks) rerun += t.attempts == 2;
        EXPECT_EQ(rerun, 1u);
        EXPECT_EQ(stage.total_retries(), 1u);
      }
    }
    EXPECT_EQ(workers_alive_gauge(), 0.0);
    EXPECT_EQ(open_fd_count(), fds_before) << "a worker socket leaked";
    int status = 0;
    errno = 0;
    EXPECT_EQ(::waitpid(-1, &status, WNOHANG), -1)
        << "a worker process outlived the engine";
    EXPECT_EQ(errno, ECHILD);
  }
}

TEST(WorkerPoolMode, FailedTaskIsReportedBeforeItsWorkersExit) {
  DRAPID_REQUIRE_FORK();
  // Each worker's first task fails permanently; the worker reports it and
  // exits while the parent is still sending it 1 MiB chain heads for its
  // next tasks. A send that fails on the exited worker must not turn the
  // exit into a worker death: the failure frame is read first, and the job
  // fails with the task's own error, as it does on the local backend.
  std::vector<std::pair<std::string, std::string>> pairs;
  for (std::size_t i = 0; i < 256; ++i) {
    pairs.emplace_back("key" + std::to_string(i),
                       std::string(128 << 10, static_cast<char>('a' + i % 26)));
  }
  for (int run = 0; run < 5; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    EngineConfig cfg = process_config(4);
    cfg.max_task_attempts = 1;
    cfg.faults.fail_once_stages = {"bulk"};
    auto& counters = obs::global_counters();
    const std::int64_t deaths =
        counters.counter("engine.worker_deaths").value();
    const std::int64_t retries =
        counters.counter("engine.task_retries").value();
    Engine engine(cfg);
    const auto rdd = parallelize(engine, pairs, 32);
    try {
      map_pairs(
          engine, rdd,
          [](const std::pair<std::string, std::string>& kv) { return kv; },
          "bulk");
      FAIL() << "every task's only attempt is killed";
    } catch (const TaskFailure& e) {
      EXPECT_EQ(std::string(e.what()).rfind(
                    "task failed permanently after 1 attempts: stage=bulk "
                    "partition=",
                    0),
                0u)
          << e.what();
    }
    EXPECT_EQ(counters.counter("engine.worker_deaths").value() - deaths, 0);
    EXPECT_EQ(counters.counter("engine.task_retries").value() - retries, 1);
  }
}

// ----------------------------------------------- one shuffle, two backends

/// One partition_by, run on the local backend and on the pool.
struct ShuffleCase {
  std::string name;
  std::size_t records = 0;
  std::size_t sources = 0;  ///< 0 = an input Rdd with no partitions at all
  std::size_t targets = 1;
  std::size_t distinct_keys = 1;
  bool resident_input = false;  ///< feed the shuffle from a pooled stage
  bool kill = false;            ///< SIGKILL pool worker 0 mid-shuffle
};

template <typename K, typename V>
Rdd<K, V> shuffle_input(Engine& engine, std::vector<std::pair<K, V>> pairs,
                        const ShuffleCase& row) {
  if (row.sources == 0) return {};
  auto rdd = parallelize(engine, std::move(pairs), row.sources);
  if (!row.resident_input) return rdd;
  return map_values(engine, rdd, [](const V& v) { return v; }, "stage_in");
}

/// Both backends produce the same partitions, partitioner_id and per-task
/// metrics: they run the same routing function.
template <typename K, typename V>
void expect_shuffle_matches(const ShuffleCase& row,
                            const std::vector<std::pair<K, V>>& pairs) {
  SCOPED_TRACE(row.name);
  const HashPartitioner part{row.targets};
  const auto run = [&](EngineConfig cfg) {
    if (row.kill) cfg.faults.kill_workers.push_back({"shuffle", 0});
    Engine engine(cfg);
    auto out = partition_by(engine, shuffle_input(engine, pairs, row), part,
                            "shuffle");
    ensure_local(out);
    return std::make_pair(std::move(out), engine.metrics());
  };
  const auto [local_out, local_metrics] = run(local_config());
  const auto [pool_out, pool_metrics] = run(process_config(3));
  EXPECT_EQ(pool_out.partitioner_id, local_out.partitioner_id);
  EXPECT_EQ(local_out.partitioner_id, part.id());
  ASSERT_EQ(local_out.num_partitions(), row.targets);
  EXPECT_EQ(local_out.size(), row.sources == 0 ? 0 : row.records);
  EXPECT_TRUE(pool_out.partitions == local_out.partitions);
  expect_same_task_metrics(local_metrics, pool_metrics);
  const StageMetrics& shuffle = pool_metrics.stages.back();
  ASSERT_EQ(shuffle.name, "shuffle");
  EXPECT_GT(shuffle.workers_used + shuffle.pool_reuses, 0u)
      << "the shuffle must run in the pool";
  if (row.kill) {
    EXPECT_GE(shuffle.worker_deaths, 1u) << "the planned kill must fire";
  } else {
    EXPECT_EQ(pool_metrics.total_worker_deaths(), 0u);
  }
}

std::vector<std::pair<std::string, std::string>> shuffle_pairs(
    const ShuffleCase& row) {
  std::vector<std::pair<std::string, std::string>> pairs;
  for (std::size_t i = 0; i < row.records; ++i) {
    pairs.emplace_back("k" + std::to_string(i % row.distinct_keys),
                       "value-" + std::to_string(i * 7));
  }
  return pairs;
}

TEST(WorkerPoolMode, ShuffleTableMatchesLocal) {
  DRAPID_REQUIRE_FORK();
  const std::vector<ShuffleCase> rows = {
      {"one target", 400, 6, 1, 50},
      {"three targets (not a power of two)", 400, 6, 3, 50},
      {"eight targets", 400, 6, 8, 50},
      {"more targets than sources", 300, 2, 8, 60},
      {"empty source partitions", 3, 8, 4, 3},
      {"input with no partitions", 0, 0, 5, 1},
      {"all keys on one target", 200, 5, 8, 1},
      {"worker-resident input", 500, 7, 5, 80, true},
      {"worker killed mid-shuffle", 600, 9, 5, 90, false, true},
      {"resident input, worker killed", 600, 9, 8, 90, true, true},
  };
  for (const auto& row : rows) expect_shuffle_matches(row, shuffle_pairs(row));
}

TEST(WorkerPoolMode, WorkerKilledMidShuffleLeavesNothingToRebuild) {
  DRAPID_REQUIRE_FORK();
  // Worker 0 dies mid-shuffle. Its replacement re-runs the lost source task
  // and, at the barrier, assembles every target it owns from the shuffle
  // files, so the parent rebuilds nothing, not even on the collect.
  const HashPartitioner part{16};
  const auto run = [&part](EngineConfig cfg) {
    auto& rebuilds = obs::global_counters().counter("engine.pool_rebuilds");
    const std::int64_t before = rebuilds.value();
    Engine engine(cfg);
    auto out = partition_by(engine, parallelize(engine, make_pairs(900), 6),
                            part, "shuffle");
    ensure_local(out);
    return std::make_tuple(std::move(out.partitions),
                           rebuilds.value() - before,
                           engine.metrics().total_worker_deaths());
  };
  const auto [local_parts, local_rebuilds, local_deaths] = run(local_config());
  EngineConfig cfg = process_config(2);
  cfg.faults.kill_workers.push_back({"shuffle", 0});
  const auto [pool_parts, pool_rebuilds, pool_deaths] = run(cfg);
  EXPECT_TRUE(pool_parts == local_parts) << "shuffled targets differ";
  EXPECT_EQ(pool_deaths, 1u) << "the planned kill must fire";
  EXPECT_EQ(pool_rebuilds, 0);
  EXPECT_EQ(local_rebuilds, 0);
}

TEST(WorkerPoolMode, OwnerKilledAfterTheShuffleGetsItsTargetsFromFiles) {
  DRAPID_REQUIRE_FORK();
  // The shuffle's two sources stay resident on workers 0 and 1; worker 2
  // owns every third target and dies in the narrow stage that reads them.
  // Its lost targets are reassembled from the shuffle files, so the stage
  // moves the bytes of the one target its replacement reruns, not the
  // sources'.
  const auto pairs = make_pairs(6000);
  const HashPartitioner part{16};
  const auto run = [&](EngineConfig cfg) {
    auto& rebuilds = obs::global_counters().counter("engine.pool_rebuilds");
    const std::int64_t before = rebuilds.value();
    Engine engine(cfg);
    const auto sources = map_values(
        engine, parallelize(engine, pairs, 2),
        [](const std::string& v) { return v; }, "stage_in");
    const auto shuffled = partition_by(engine, sources, part, "shuffle");
    const auto out = map_values(
        engine, shuffled, [](const std::string& v) { return v + "!"; },
        "after");
    StageMetrics after = engine.metrics().stages.back();
    return std::make_tuple(out.collect(), after, rebuilds.value() - before);
  };
  const auto [local_out, local_after, local_rebuilds] = run(local_config());
  EngineConfig cfg = process_config(3);
  cfg.faults.kill_workers.push_back({"after", 2});
  const auto [pool_out, pool_after, pool_rebuilds] = run(cfg);
  EXPECT_TRUE(pool_out == local_out) << "pooled output differs";
  ASSERT_EQ(pool_after.name, "after");
  EXPECT_EQ(pool_after.worker_deaths, 1u) << "the planned kill must fire";
  EXPECT_GE(pool_rebuilds, 1) << "the lost targets come back from lineage";
  std::size_t source_bytes = 0;
  for (const auto& [k, v] : pairs) source_bytes += 16 + k.size() + v.size();
  EXPECT_LT(pool_after.ipc_bytes, source_bytes)
      << "recovery must not move the shuffle's sources";
}

/// The shuffle files in an engine's spill directory.
std::size_t shuffle_file_count(const Engine& engine) {
  std::size_t files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(engine.spill_dir())) {
    files += entry.path().filename().string().rfind("shuffle_", 0) == 0;
  }
  return files;
}

TEST(WorkerPoolMode, ReleasedWideSetDeletesItsShuffleFiles) {
  DRAPID_REQUIRE_FORK();
  Engine engine(process_config(2));
  {
    const auto shuffled = partition_by(
        engine, parallelize(engine, make_pairs(300), 6), HashPartitioner{8});
    EXPECT_EQ(shuffle_file_count(engine), 6u * 2u)
        << "one file per (source, worker slot)";
    EXPECT_EQ(shuffled.collect().size(), 300u);
  }
  EXPECT_EQ(shuffle_file_count(engine), 0u);
}

TEST(ShuffleFile, MissingOrDamagedFileIsAnErrorNamingIt) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "drapid_shuffle_file_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::vector<std::vector<std::pair<std::string, std::string>>> runs = {
      {{"a", "1"}}, {{"b", "2"}, {"c", "3"}}, {}};
  const std::string bundle = detail::encode_bundle(runs);
  for (std::size_t source = 0; source < 2; ++source) {
    pooldetail::write_shuffle_files(dir.string(), 7, source, 2, bundle);
  }
  // Slot 0 owns targets 0 and 2: each source's run, in source order.
  const auto owned = pooldetail::assemble_targets(dir.string(), 7, 2, 2, 0, 3);
  ASSERT_EQ(owned.size(), 2u);
  EXPECT_EQ(owned[0].records, 2u);
  EXPECT_EQ(owned[0].bytes,
            ipc::encode_payload(std::vector<std::pair<std::string,
                                                  std::string>>{
                {"a", "1"}, {"a", "1"}}));
  EXPECT_EQ(owned[1].bytes, ipc::encode_payload(runs[2]));

  const auto expect_error = [&dir](const std::string& file) {
    try {
      pooldetail::assemble_targets(dir.string(), 7, 2, 2, 1, 3);
      FAIL() << "a bad shuffle file must not assemble";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find((dir / file).string()),
                std::string::npos)
          << e.what();
    }
  };
  fs::resize_file(dir / "shuffle_7_1_1.bin", 20);
  expect_error("shuffle_7_1_1.bin");
  fs::remove(dir / "shuffle_7_0_1.bin");
  expect_error("shuffle_7_0_1.bin");
  fs::remove_all(dir);
}

TEST(WorkerPoolMode, TypedShuffleMatchesLocal) {
  DRAPID_REQUIRE_FORK();
  std::vector<std::pair<std::uint64_t, double>> pairs;
  for (std::uint64_t i = 0; i < 500; ++i) {
    pairs.emplace_back(i % 37, 0.5 * static_cast<double>(i));
  }
  expect_shuffle_matches(ShuffleCase{"typed values", 500, 6, 3, 37}, pairs);
  expect_shuffle_matches(
      ShuffleCase{"typed values, worker killed", 500, 6, 8, 37, true, true},
      pairs);
}

TEST(WorkerPoolMode, ShuffleRejectsAPartitionerWithNoPartitions) {
  DRAPID_REQUIRE_FORK();
  Engine engine(process_config(2));
  const auto rdd = parallelize(engine, make_pairs(50), 4);
  try {
    partition_by(engine, rdd, HashPartitioner{0});
    FAIL() << "a partitioner with no partitions must be rejected";
  } catch (const std::runtime_error& e) {
    // The worker's rejection crosses the socket, not a crash's retries.
    EXPECT_NE(std::string(e.what()).find("0 partitions"), std::string::npos)
        << e.what();
  }
}

TEST(WorkerPoolMode, CachingAResidentRddMovesNoBytes) {
  DRAPID_REQUIRE_FORK();
  // Load → shuffle → aggregate, the shape of the D-RAPID data side; the
  // aggregate's output is what gets cached.
  const auto build = [](Engine& engine) {
    const HashPartitioner part{16};
    const auto shuffled =
        partition_by(engine, parallelize(engine, make_pairs(3000), 8), part);
    return aggregate_by_key(
        engine, shuffled, std::string{},
        [](std::string& agg, const std::string& v) { agg += v; },
        [](std::string& agg, std::string&& other) { agg += other; }, part,
        "agg");
  };
  Engine local(local_config());
  CachedStringRdd local_cache(local, build(local), "data");

  Engine pooled(process_config(2));
  auto resident = build(pooled);
  ASSERT_TRUE(resident.resident);
  auto& ipc = obs::global_counters().counter("engine.ipc_bytes");
  const std::int64_t before = ipc.value();
  CachedStringRdd pooled_cache(pooled, std::move(resident), "data");
  EXPECT_EQ(ipc.value() - before, 0) << "sizing must not fetch partitions";
  EXPECT_EQ(pooled_cache.estimated_bytes(), local_cache.estimated_bytes());
  EXPECT_FALSE(pooled_cache.spilled());
  EXPECT_EQ(pooled_cache.borrow().collect(), local_cache.borrow().collect());
}

// ------------------------------------------------ kill_worker plan semantics

TEST(FaultInjectorKillWorker, FiresOncePerStagePrefixAndWorker) {
  FaultPlan plan;
  plan.kill_workers.push_back({"search", 1});
  const FaultInjector inj(plan);
  EXPECT_TRUE(inj.enabled());
  EXPECT_TRUE(inj.kill_worker("search", 1, 0));
  EXPECT_TRUE(inj.kill_worker("search:scan", 1, 0));  // prefix matches
  EXPECT_FALSE(inj.kill_worker("search", 0, 0));      // other worker
  EXPECT_FALSE(inj.kill_worker("load", 1, 0));        // other stage
  EXPECT_FALSE(inj.kill_worker("search", 1, 1))
      << "replacement incarnations must survive or recovery livelocks";
}

// ---------------------------------------------------------------- ExecPolicy

TEST(ExecPolicy, WorkersDeriveFromContextWhenUnset) {
  ExecPolicy policy;  // defaults: local backend, workers from context
  EXPECT_EQ(policy.backend, ExecBackend::kLocal);
  EXPECT_EQ(policy.resolve_workers(5), 5u);
  policy = ExecPolicy::process(4, 2);
  EXPECT_EQ(policy.backend, ExecBackend::kProcess);
  EXPECT_EQ(policy.threads_per_worker, 2u);
  EXPECT_EQ(policy.resolve_workers(8), 4u);
  EXPECT_EQ(parse_exec_backend("local"), ExecBackend::kLocal);
  EXPECT_EQ(parse_exec_backend("process"), ExecBackend::kProcess);
  EXPECT_THROW(parse_exec_backend("cloud"), std::runtime_error);
  EXPECT_EQ(std::string(exec_backend_name(ExecBackend::kProcess)), "process");
}

// ------------------------------------------------- end-to-end acceptance

// The ISSUE.md acceptance bar: the full D-RAPID pipeline on the process
// backend produces a byte-identical ML file vs the local backend, including
// when a worker is killed mid-search.
TEST(ProcessExecutor, FullPipelineMatchesLocalIncludingUnderWorkerKill) {
  DRAPID_REQUIRE_FORK();
  const PipelineConfig pipeline = gbt350_pipeline();

  const auto run = [&pipeline](EngineConfig cfg) {
    Engine engine(cfg);
    BlockStore store(15);
    run_full_pipeline(engine, store, pipeline);
    auto ml = store.get("GBT350Drift.ml.csv");
    return std::make_pair(std::move(ml),
                          engine.metrics().total_worker_deaths());
  };

  EngineConfig local_cfg;
  local_cfg.num_executors = 4;
  local_cfg.exec = ExecPolicy::local(2);
  const auto [local_ml, local_deaths] = run(local_cfg);
  ASSERT_FALSE(local_ml.empty());
  EXPECT_EQ(local_deaths, 0u);

  EngineConfig process_cfg = local_cfg;
  process_cfg.exec = ExecPolicy::process(4, 2);
  const auto [process_ml, process_deaths] = run(process_cfg);
  EXPECT_EQ(process_ml, local_ml) << "process backend must be byte-identical";
  EXPECT_EQ(process_deaths, 0u);

  EngineConfig faulty_cfg = process_cfg;
  faulty_cfg.faults.kill_workers.push_back({"search", 2});
  const auto [faulty_ml, faulty_deaths] = run(faulty_cfg);
  EXPECT_EQ(faulty_ml, local_ml)
      << "a SIGKILLed search worker must not change the output";
  EXPECT_GE(faulty_deaths, 1u) << "the planned kill must actually fire";
}

}  // namespace
}  // namespace drapid
