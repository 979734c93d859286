// Run reports and the JobMetrics bridge: schema validation, totals
// consistency against a real engine run, and the TaskContext attempt
// bookkeeping that replaced the bare-partition callback.
#include "dataflow/obs_bridge.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "dataflow/engine.hpp"
#include "dataflow/rdd.hpp"

namespace drapid {
namespace {

EngineConfig small_engine() {
  EngineConfig cfg;
  cfg.num_executors = 1;
  cfg.exec.threads_per_worker = 2;
  cfg.partitions_per_core = 4;
  return cfg;
}

obs::Json report_json(const obs::RunReport& report) {
  return obs::Json::parse(report.to_json().dump(2));
}

TEST(ObsRunReport, ValidatesAndRoundTrips) {
  obs::RunReport report("unit_test");
  report.set_config("scale", 2.0);
  report.set_config("out", "x.json");
  report.add_metric("speedup", 1.5);
  obs::Json row = obs::Json::object();
  row.set("trial", 1);
  report.add_result(std::move(row));
  report.set_wall_seconds(0.25);
  obs::CounterRegistry registry;
  registry.add("widgets", 3);
  registry.set_gauge("load", 0.5);
  report.capture_counters(registry);

  const obs::Json parsed = report_json(report);
  EXPECT_EQ(obs::validate_run_report(parsed), "");
  EXPECT_EQ(parsed.at("tool").as_string(), "unit_test");
  EXPECT_EQ(parsed.at("schema_version").as_int(), obs::RunReport::kSchemaVersion);
  EXPECT_DOUBLE_EQ(parsed.at("config").at("scale").as_double(), 2.0);
  EXPECT_EQ(parsed.at("counters").at("widgets").as_int(), 3);
  EXPECT_EQ(parsed.at("results").size(), 1u);
}

TEST(ObsRunReport, ValidatorRejectsBadDocuments) {
  EXPECT_NE(obs::validate_run_report(obs::Json::parse("[]")), "");
  EXPECT_NE(obs::validate_run_report(obs::Json::parse("{}")), "");

  obs::RunReport report("unit_test");
  obs::Json doc = report_json(report);
  EXPECT_EQ(obs::validate_run_report(doc), "");
  doc.set("schema_version", 999);
  EXPECT_NE(obs::validate_run_report(doc), "");
}

TEST(ObsRunReport, ValidatorChecksJobTotalsAgainstStageRows) {
  obs::JobReport job;
  job.label = "j";
  obs::StageReport stage;
  stage.name = "s";
  stage.tasks = 2;
  stage.records_in = 10;
  job.stages.push_back(stage);
  obs::RunReport report("unit_test");
  report.add_job(job);
  obs::Json doc = report_json(report);
  EXPECT_EQ(obs::validate_run_report(doc), "");

  // Forge the totals object so it disagrees with the stage rows.
  obs::Json& totals = const_cast<obs::Json&>(doc.at("jobs").at(0).at("totals"));
  totals.set("records_in", 11);
  EXPECT_NE(obs::validate_run_report(doc), "");
}

TEST(ObsRunReport, ValidatorRejectsUnknownEventKinds) {
  obs::JobReport job;
  job.label = "j";
  obs::ObsEvent event;
  event.kind = "meteor-strike";
  job.events.push_back(event);
  obs::RunReport report("unit_test");
  report.add_job(job);
  EXPECT_NE(obs::validate_run_report(report_json(report)), "");
}

TEST(ObsRunReport, WriteFileEmitsParseableJson) {
  const std::string path = ::testing::TempDir() + "obs_report_test.json";
  obs::RunReport report("unit_test");
  report.write_file(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(obs::validate_run_report(obs::Json::parse(buffer.str())), "");
  std::remove(path.c_str());
}

// ------------------------------------------------------------ the bridge

TEST(ObsBridge, JobReportTotalsMatchEngineMetrics) {
  EngineConfig cfg = small_engine();
  cfg.faults.fail_once_stages = {"work"};
  Engine engine(cfg);

  std::vector<std::pair<std::string, std::string>> data;
  for (int i = 0; i < 40; ++i) {
    data.emplace_back("k" + std::to_string(i % 8), "v" + std::to_string(i));
  }
  auto rdd = parallelize(engine, std::move(data), 4);
  auto counted = map_values(
      engine, rdd, [](const std::string& v) { return v + "!"; }, "work");
  (void)counted;

  const JobMetrics& metrics = engine.metrics();
  const obs::JobReport job = make_job_report("unit", metrics, 2);
  ASSERT_EQ(job.stages.size(), metrics.stages.size());

  std::uint64_t report_records_in = 0, report_retries = 0;
  double report_compute = 0.0;
  for (const auto& stage : job.stages) {
    report_records_in += stage.records_in;
    report_retries += stage.retries;
    report_compute += stage.compute_cost;
  }
  std::size_t engine_records_in = 0;
  for (const auto& stage : metrics.stages) {
    engine_records_in += stage.total_records_in();
  }
  EXPECT_EQ(report_records_in, engine_records_in);
  EXPECT_EQ(report_retries, metrics.total_retries());
  EXPECT_DOUBLE_EQ(report_compute,
                   static_cast<double>(metrics.total_compute_cost()));

  // The injected kill shows up as per-partition retry events, and the
  // replica failover count as one failover event.
  std::int64_t retry_count = 0;
  std::int64_t failover_count = 0;
  for (const auto& event : job.events) {
    if (event.kind == "retry") retry_count += event.count;
    if (event.kind == "failover") failover_count += event.count;
  }
  EXPECT_EQ(static_cast<std::uint64_t>(retry_count), metrics.total_retries());
  EXPECT_EQ(failover_count, 2);

  // And the serialized report passes the shared schema check.
  obs::RunReport report("unit_test");
  report.add_job(job);
  EXPECT_EQ(obs::validate_run_report(report_json(report)), "");
}

// ------------------------------------------------------------ TaskContext

TEST(TaskContext, ReportsStagePartitionAndAttempt) {
  Engine engine(small_engine());
  auto& stage = engine.begin_stage("ctx", 4);
  std::vector<std::atomic<std::size_t>> partitions(4);
  engine.run_stage(stage, [&](TaskContext& ctx) {
    EXPECT_EQ(ctx.stage_name(), "ctx");
    EXPECT_EQ(ctx.attempt(), 0u);
    partitions[ctx.partition()].fetch_add(1);
    ctx.metrics().records_out = ctx.partition() + 1;
  });
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_EQ(partitions[p].load(), 1u);
    // metrics() writes land in the engine's own TaskMetrics row.
    EXPECT_EQ(stage.tasks[p].records_out, p + 1);
  }
}

TEST(TaskContext, AttemptMatchesRecordedAttemptsUnderFaults) {
  // Parity with the old out-param path: the attempt index the body observes
  // must be exactly TaskMetrics::attempts - 1 (injected kills burn earlier
  // attempts without running the body).
  EngineConfig cfg = small_engine();
  cfg.faults.fail_once_stages = {"flaky"};
  Engine engine(cfg);
  auto& stage = engine.begin_stage("flaky", 4);
  std::vector<std::atomic<std::size_t>> seen(4);
  engine.run_stage(stage, [&](TaskContext& ctx) {
    seen[ctx.partition()].store(ctx.attempt() + 1);
  });
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_EQ(stage.tasks[p].attempts, 2u);
    EXPECT_EQ(seen[p].load(), stage.tasks[p].attempts);
  }
  EXPECT_EQ(stage.total_retries(), 4u);
}

TEST(TaskContext, SpanIsInactiveWhenTracingOff) {
  Engine engine(small_engine());
  auto& stage = engine.begin_stage("quiet", 2);
  engine.run_stage(stage, [&](TaskContext& ctx) {
    EXPECT_FALSE(ctx.span().active());
    ctx.span().arg("ignored", 1);  // must be a harmless no-op
  });
}

TEST(TaskContext, TaskSpansRecordWhenTracerEnabled) {
  obs::Tracer tracer;
  tracer.enable(true);
  EngineConfig cfg = small_engine();
  cfg.tracer = &tracer;
  Engine engine(cfg);
  auto& stage = engine.begin_stage("traced", 3);
  engine.run_stage(stage, [&](TaskContext& ctx) {
    EXPECT_TRUE(ctx.span().active());
    ctx.span().arg("records", 5);
  });
  EXPECT_EQ(tracer.open_spans(), 0u);
  std::size_t task_begins = 0, stage_begins = 0;
  for (const auto& e : tracer.events()) {
    if (e.phase != obs::TraceEvent::Phase::kBegin) continue;
    if (e.name.rfind("task:", 0) == 0) ++task_begins;
    if (e.name.rfind("stage:", 0) == 0) ++stage_begins;
  }
  EXPECT_EQ(stage_begins, 1u);
  EXPECT_EQ(task_begins, 3u);
}

}  // namespace
}  // namespace drapid
