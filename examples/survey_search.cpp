// End-to-end D-RAPID survey search (the Figure 2 workflow): simulate a
// survey, cluster SPEs, upload data/cluster files to the block store, run
// the distributed search, and report work metrics plus elapsed-time
// estimates from the cluster cost model.
//
//   ./examples/survey_search [--survey gbt350|palfa] [--observations N]
//                            [--executors N] [--seed N]
#include <iostream>

#include "dataflow/cluster_model.hpp"
#include "drapid/pipeline.hpp"
#include "util/log.hpp"
#include "util/options.hpp"
#include "util/text_table.hpp"

using namespace drapid;

int main(int argc, char** argv) {
  Options opts(argc, argv, {{"survey", "gbt350"},
                            {"observations", "6"},
                            {"executors", "5"},
                            {"seed", "3"}});
  set_log_level(LogLevel::kInfo);

  PipelineConfig config;
  config.survey = opts.str("survey") == "palfa" ? SurveyConfig::palfa()
                                                : SurveyConfig::gbt350drift();
  config.num_observations =
      static_cast<std::size_t>(opts.integer("observations"));
  config.visibility = 0.06;
  config.seed = static_cast<std::uint64_t>(opts.integer("seed"));

  const auto executors = static_cast<std::size_t>(opts.integer("executors"));
  EngineConfig engine_config;
  engine_config.num_executors = executors;
  engine_config.exec.threads_per_worker = 2;
  engine_config.partitions_per_core = 8;
  Engine engine(engine_config);
  BlockStore store(15);  // the paper's 15 data nodes

  log_info() << "stage 1-2: simulating " << config.survey.name
             << " and clustering";
  const PipelineRun run = run_full_pipeline(engine, store, config);

  log_info() << "stage 3: D-RAPID searched " << run.result.clusters_searched
             << " clusters / " << run.result.spes_scanned
             << " SPEs, found " << run.result.records.size()
             << " single pulses in " << run.result.wall_seconds
             << " s wall";
  std::size_t pulsars = 0;
  for (const auto& rec : run.result.records) {
    pulsars += !rec.truth_label.empty();
  }
  log_info() << "stage 4 input: " << pulsars
             << " records match injected pulses (ground truth)";

  std::cout << "\nper-stage measured work:\n"
            << run.result.metrics.summary() << '\n';

  const auto sim =
      simulate_cluster(run.result.metrics, ClusterSpec::paper_beowulf(executors));
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"stage", "modeled seconds (beowulf-15, " +
                               std::to_string(executors) + " executors)"});
  for (const auto& s : sim.stages) {
    rows.push_back({s.name, format_number(s.seconds)});
  }
  rows.push_back({"TOTAL", format_number(sim.total_seconds)});
  std::cout << render_table(rows);
  std::cout << "\nML file in block store: " << config.survey.name
            << ".ml.csv (" << store.file_size(config.survey.name + ".ml.csv")
            << " bytes)\n";
  return 0;
}
