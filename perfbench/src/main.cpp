// perfbench — the end-to-end benchmark of the survey system.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR [--trace-out FILE] [--result-out FILE]
//
// Generates the workload's inputs from the seed, self-tests the harness,
// runs one untimed warm-up pass, then timed passes until S seconds have
// gone. With --trace 0 it reports the end-to-end metrics (medians over the
// timed passes); with --trace 1 it alternates traced and untraced passes
// and reports the per-layer ledger from the traced ones. The last line of
// stdout is the result object.
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "dedisp/kernels.hpp"
#include "harness.hpp"
#include "obs/json.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using drapid::median;
using drapid::quantile;
using drapid::obs::Json;

void PassClock::stop(PassStats& stats) const {
  const Usage end = usage_now();
  stats.wall_s = now_s() - start_s_;
  stats.cpu_s = end.cpu_s() - start_.cpu_s();
  stats.self_cpu_s = end.self_cpu_s - start_.self_cpu_s;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadEnv& env) {
  if (name == "survey_e2e") return make_survey_e2e(env);
  if (name == "identify_local") return make_identify(env, false);
  if (name == "identify_process") return make_identify(env, true);
  if (name == "ingest_query") return make_ingest_query(env);
  throw std::invalid_argument("unknown workload: " + name);
}

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string trace_out;
  std::string result_out;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--result-out") {
      args.result_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || args.work_dir.empty()) {
    throw std::invalid_argument("--workload and --work-dir are required");
  }
  return args;
}

// --- harness self-tests -----------------------------------------------------

std::vector<std::string> self_tests() {
  std::vector<std::string> failures;
  const auto expect = [&](bool ok, const std::string& what) {
    if (!ok) failures.push_back("self-test: " + what);
  };
  const auto near = [](double a, double b) { return std::abs(a - b) < 1e-9; };

  const std::vector<double> odd = {3, 1, 2}, even = {4, 1, 3, 2}, one = {7};
  expect(near(median(odd), 2.0), "median of odd count");
  expect(near(median(even), 2.5), "median of even count");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  expect(near(quantile(hundred, 0.99), 99.01), "p99 interpolates");
  expect(near(quantile(one, 0.99), 7.0), "quantile of one sample");
  expect(quantile(std::vector<double>{}, 0.5) == 0.0,
         "quantile of no samples");

  // The generator stalls from 0.5 s to 2.6 s: observations due at 1 and 2
  // go out late, and the stall is charged to both from their due times.
  const OpenLoopLedger stalled = account_open_loop(
      {0.0, 1.0, 2.0, 3.0}, {0.0, 2.6, 2.6, 3.0}, {0.3, 2.9, 3.2, 3.5});
  expect(near(stalled.latency_s[1], 1.9), "stalled ingest latency from due");
  expect(near(stalled.latency_s[2], 1.2), "stall charged to a later ingest");
  expect(near(stalled.queue_wait_s[2], 0.3), "queue wait behind the writer");
  expect(near(stalled.service_s[2], 0.3), "service after the queue wait");
  expect(near(stalled.late_s[1], 1.6), "generator lateness");
  expect(stalled.backlog_max == 2, "backlog counts queued ingests");

  // CPU of a reaped child must appear in cpu_s.
  const Usage before = usage_now();
  const pid_t child = fork();
  if (child == 0) {
    const double until = now_s() + 0.05;
    volatile double sink = 0.0;
    while (now_s() < until) sink = sink + 1.0;
    _exit(0);
  }
  int status = 0;
  const bool reaped = child > 0 && waitpid(child, &status, 0) == child;
  const Usage after = usage_now();
  expect(reaped, "fork/wait for the CPU probe");
  expect(after.children_cpu_s - before.children_cpu_s > 0.02,
         "cpu_s counts reaped child CPU");
  expect(after.cpu_s() - before.cpu_s() >
             after.self_cpu_s - before.self_cpu_s + 0.02,
         "cpu_s exceeds the parent's own CPU");
  return failures;
}

// --- metric assembly --------------------------------------------------------

Json metric(double value, const char* unit) {
  Json m = Json::object();
  m.set("value", value);
  m.set("unit", unit);
  return m;
}

Json end_to_end(const std::vector<PassStats>& passes) {
  std::vector<double> setup, wall, cpu, recall, f, ingest, queries;
  double work = 0.0, wall_total = 0.0, query_count = 0.0, query_window = 0.0;
  for (const auto& p : passes) {
    setup.push_back(p.setup_s);
    wall.push_back(p.wall_s);
    cpu.push_back(p.cpu_s);
    recall.push_back(p.recall);
    f.push_back(p.f_measure);
    ingest.insert(ingest.end(), p.ingest_latency_s.begin(),
                  p.ingest_latency_s.end());
    const auto all = p.queries.all();
    queries.insert(queries.end(), all.begin(), all.end());
    work += p.work_items;
    wall_total += p.wall_s;
    query_count += static_cast<double>(all.size());
    query_window += p.query_window_s;
  }
  Json m = Json::object();
  m.set("setup_s", metric(median(setup), "s"));
  m.set("wall_p50_s", metric(median(wall), "s"));
  m.set("throughput_per_s", metric(work / wall_total, "1/s"));
  m.set("cpu_s", metric(median(cpu), "s"));
  m.set("recall", metric(median(recall), "ratio"));
  m.set("f_measure", metric(median(f), "ratio"));
  m.set("ingest_p50_s", metric(median(ingest), "s"));
  m.set("query_p50_s", metric(quantile(queries, 0.5), "s"));
  m.set("query_p99_s", metric(quantile(queries, 0.99), "s"));
  m.set("queries_per_s", metric(query_count / query_window, "1/s"));
  return m;
}

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// The per-layer ledger, in BENCHMARK.json order. A `_s` metric reads the
/// pass's engine-reported value when the workload recorded one, else the
/// self time of the span of the same stem.
const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> metrics = {
      {"dedisp.mitigate_s", "s"},         {"dedisp.sweep_s", "s"},
      {"dedisp.trials", "count"},         {"dedisp.unique_plans", "count"},
      {"dedisp.events", "count"},         {"dedisp.channel_samples_per_s", "1/s"},
      {"clustering.dbscan_s", "s"},       {"clustering.clusters", "count"},
      {"spe.encode_s", "s"},              {"spe.bytes", "bytes"},
      {"dataflow.upload_s", "s"},         {"dataflow.engine_start_s", "s"},
      {"dataflow.load_s", "s"},           {"dataflow.partition_s", "s"},
      {"dataflow.aggregate_s", "s"},      {"dataflow.join_s", "s"},
      {"dataflow.shuffle_bytes", "bytes"}, {"dataflow.spill_bytes", "bytes"},
      {"dataflow.tasks", "count"},        {"dataflow.retries", "count"},
      {"dataflow.tasks_stolen", "count"}, {"ipc.bytes", "bytes"},
      {"ipc.partition_bytes", "bytes"},   {"ipc.workers_used", "count"},
      {"ipc.pool_reuses", "count"},       {"ipc.worker_deaths", "count"},
      {"rapid.search_s", "s"},            {"rapid.spes_scanned", "count"},
      {"rapid.clusters_searched", "count"}, {"rapid.pulses", "count"},
      {"drapid.identify_s", "s"},         {"drapid.driver_s", "s"},
      {"ml.trial_s", "s"},                {"ml.train_s", "s"},
      {"ml.test_s", "s"},                 {"serve.archive_open_s", "s"},
      {"serve.queue_wait_s", "s"},        {"serve.service_s", "s"},
      {"serve.backlog_max", "count"},     {"serve.generator_late_s", "s"},
      {"serve.ingest_errors", "count"},   {"serve.query_dm_s", "s"},
      {"serve.query_key_s", "s"},         {"serve.query_snr_s", "s"},
      {"serve.query_results", "count"},   {"serve.append_s", "s"},
      {"serve.seal_s", "s"},              {"obs.trace_overhead", "ratio"},
      {"obs.peak_rss_mb", "MB"},          {"cold_pass_s", "s"},
  };
  return metrics;
}

double layer_value(const std::string& name, const PassStats& pass,
                   const std::map<std::string, double>& self) {
  if (name == "serve.query_dm_s") return median(pass.queries.latency_s[0]);
  if (name == "serve.query_key_s") return median(pass.queries.latency_s[1]);
  if (name == "serve.query_snr_s") return median(pass.queries.latency_s[2]);
  if (name == "serve.query_results") {
    return static_cast<double>(pass.queries.results);
  }
  if (name == "dedisp.channel_samples_per_s") {
    const auto samples = pass.layer.find("dedisp.channel_samples");
    const double sweep = layer_value("dedisp.sweep_s", pass, self);
    return samples == pass.layer.end() || sweep <= 0.0
               ? 0.0
               : samples->second / sweep;
  }
  if (const auto it = pass.layer.find(name); it != pass.layer.end()) {
    return it->second;
  }
  if (name.size() > 2 && name.compare(name.size() - 2, 2, "_s") == 0) {
    if (const auto it = self.find(name.substr(0, name.size() - 2));
        it != self.end()) {
      return it->second;
    }
  }
  return 0.0;
}

Json per_layer(const std::vector<std::pair<int, PassStats>>& traced,
               const std::vector<PassStats>& untraced, double cold_s,
               const Ledger& ledger) {
  const auto self = ledger.self_seconds();
  const std::map<std::string, double> none;
  std::vector<double> traced_wall, untraced_wall;
  for (const auto& [id, p] : traced) traced_wall.push_back(p.wall_s);
  for (const auto& p : untraced) untraced_wall.push_back(p.wall_s);
  Json m = Json::object();
  for (const LayerMetric& lm : layer_metrics()) {
    const std::string name = lm.name;
    double value = 0.0;
    if (name == "obs.trace_overhead") {
      value = median(traced_wall) / median(untraced_wall) - 1.0;
    } else if (name == "cold_pass_s") {
      value = cold_s;
    } else if (name == "obs.peak_rss_mb") {
      // The self peak covers the passes after the warm-up alone. The
      // children's peak cannot be reset: it is the largest child reaped
      // since the process began (the self-test's probe, forked before any
      // input exists, and every pass's pool workers, the warm-up's
      // included), and a forked worker counts the parent pages it shares.
      // Allocator retention makes it vary by a quarter or more between
      // seeds, too much for an end-to-end bound, so it is reported here.
      value = std::max(peak_rss_mb(), usage_now().children_maxrss_mb);
    } else {
      std::vector<double> values;
      for (const auto& [id, p] : traced) {
        const auto it = self.find(id);
        values.push_back(layer_value(name, p, it == self.end() ? none : it->second));
      }
      value = median(values);
    }
    m.set(name, metric(value, lm.unit));
  }
  return m;
}

Json stamp(const Args& args) {
  const char* force = std::getenv("DRAPID_FORCE_SCALAR");
  Json s = Json::object();
  s.set("dispatch", drapid::kernels::dispatch_name());
  s.set("DRAPID_FORCE_SCALAR", force ? force : "");
  s.set("nproc", static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  s.set("build_type", PERFBENCH_BUILD_TYPE);
  s.set("workload", args.workload);
  s.set("seed", static_cast<std::int64_t>(args.seed));
  s.set("seconds", args.seconds);
  s.set("trace", args.trace);
  return s;
}

int run(const Args& args) {
  std::filesystem::create_directories(args.work_dir);
  std::vector<std::string> errors = self_tests();
  std::size_t attempted = 1;
  std::size_t failed = errors.empty() ? 0 : 1;

  WorkloadEnv env;
  env.seed = args.seed;
  env.work_dir = args.work_dir;
  const auto workload = make_workload(args.workload, env);

  Ledger ledger;
  std::uint64_t reference_digest = 0;
  // One pass; a throw or a failed gate counts the pass as failed.
  const auto attempt = [&](int id, bool traced) -> std::optional<PassStats> {
    ++attempted;
    ledger.enable(traced);
    std::optional<PassStats> stats;
    try {
      Span span(ledger, "pass", id);
      stats = workload->run_pass(id, ledger);
    } catch (const std::exception& e) {
      errors.push_back("pass " + std::to_string(id) + ": " + e.what());
    }
    ledger.enable(false);
    if (!stats) {
      ++failed;
      return std::nullopt;
    }
    if (reference_digest == 0) reference_digest = stats->ml_digest;
    if (stats->ml_digest != reference_digest) {
      stats->errors.push_back("ML output digest changed between passes");
    }
    attempted += stats->operations;
    failed += stats->failures + (stats->errors.empty() ? 0 : 1);
    errors.insert(errors.end(), stats->errors.begin(), stats->errors.end());
    return stats;
  };

  // The first pass in a process runs cold (page faults, lazy dispatch,
  // allocator growth); it is reported as cold_pass_s and never timed.
  const auto cold = attempt(0, false);
  const double cold_s = cold ? cold->wall_s : 0.0;
  reset_peak_rss();

  std::vector<PassStats> untraced;
  std::vector<std::pair<int, PassStats>> traced;
  const std::size_t min_each = args.trace ? 2 : 3;
  const double start = now_s();
  {
    ledger.enable(args.trace);
    Span workload_span(ledger, "workload", -1);
    for (int id = 1;; ++id) {
      const bool enough = untraced.size() >= min_each &&
                          (!args.trace || traced.size() >= min_each);
      if (enough && now_s() - start >= args.seconds) break;
      if (id > 1000) break;
      // Traced and untraced passes alternate so drift hits both alike.
      const bool trace_this = args.trace && id % 2 == 0;
      if (auto stats = attempt(id, trace_this)) {
        if (trace_this) {
          traced.emplace_back(id, std::move(*stats));
        } else {
          untraced.push_back(std::move(*stats));
        }
      } else if (untraced.empty() && traced.empty()) {
        break;  // the workload cannot run at all
      }
    }
  }

  ++attempted;
  for (auto& e : workload->final_checks()) {
    errors.push_back(std::move(e));
    ++failed;
  }

  const bool have_passes =
      !untraced.empty() && (!args.trace || !traced.empty());
  Json result = Json::object();
  result.set("correct", errors.empty() && have_passes);
  result.set("attempted", static_cast<std::int64_t>(attempted));
  result.set("failed", static_cast<std::int64_t>(failed));
  if (have_passes) {
    result.set("metrics", args.trace ? per_layer(traced, untraced, cold_s, ledger)
                                     : end_to_end(untraced));
  }
  if (args.trace && !args.trace_out.empty()) {
    ledger.write_chrome_trace(args.trace_out);
  }

  for (const auto& e : errors) std::cerr << "perfbench: " << e << '\n';
  const Json stamped = stamp(args);
  std::cout << "stamp " << stamped.dump() << '\n';
  if (!args.result_out.empty()) {
    Json record = Json::object();
    record.set("stamp", stamped);
    record.set("result", result);
    Json errs = Json::array();
    for (const auto& e : errors) errs.push_back(e);
    record.set("errors", errs);
    std::ofstream(args.result_out) << record.dump(2) << '\n';
  }
  if (!have_passes) return 1;
  std::cout << result.dump() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }
}
