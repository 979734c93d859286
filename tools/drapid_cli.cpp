// drapid — command-line front end to the library.
//
//   drapid simulate --survey gbt350|palfa|fast_crafts|ska_mid
//                   --observations N --out DIR
//       writes DIR/data.csv, DIR/clusters.csv and DIR/truth.csv; the
//       fast_crafts and ska_mid presets include structured RFI
//       (burst trains, carriers, swept chirps) with ground-truth labels
//   drapid search --data FILE --clusters FILE --out FILE [--executors N]
//                 [--backend local|process] [--workers N]
//                 [--fault-rate R] [--fault-seed S] [--max-attempts K]
//                 [--kill-worker STAGE:ID]
//       runs the D-RAPID job on real files and writes the ML file;
//       --backend=process executes stages on a job-lifetime pool of
//       forked worker processes (candidate output is byte-identical to
//       --backend=local);
//       --fault-rate injects task kills, spill damage, and dead data nodes
//       at rate R and lets retry + lineage recovery absorb them;
//       --kill-worker SIGKILLs one process worker mid-stage
//   drapid classify --ml FILE [--scheme 2|4*|4|7|8] [--filter IG|GR|SU|Cor|1R]
//                   [--learner RF|J48|PART|JRip|SMO|MPN] [--smote]
//       5-fold cross-validates a labeled ML file and reports the scores
//   drapid sweep [--fil FILE] [--survey gbt350|palfa|fast_crafts|ska_mid]
//                [--rfi off|zerodm|mask|both] [--groups N] [--threads N]
//                [--snr X] [--stride N] [--dm-max X] [--out FILE]
//       dedisperses a SIGPROC .fil file (or a synthesized demo observation)
//       over the survey's DM grid with the two-stage subband sweep and
//       writes a PRESTO-style .singlepulse file; --groups 1 is the exact
//       channel-order sum; --rfi selects the mitigation stage (zero-DM
//       subtraction and/or robust channel masking)
//
// Every subcommand is deterministic for a given --seed.
#include <fstream>
#include <iostream>
#include <sstream>

#include "dataflow/cluster_model.hpp"
#include "dedisp/kernels.hpp"
#include "dedisp/rfi_mitigation.hpp"
#include "dedisp/single_pulse_search.hpp"
#include "drapid/pipeline.hpp"
#include "exp/trial_runner.hpp"
#include "synth/filterbank_survey.hpp"
#include "synth/rfi.hpp"
#include "spe/spe_io.hpp"
#include "util/rng.hpp"
#include "util/log.hpp"
#include "util/options.hpp"
#include "util/text_table.hpp"

using namespace drapid;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << contents;
}

SurveyConfig survey_by_name(const std::string& name) {
  if (name == "gbt350") return SurveyConfig::gbt350drift();
  if (name == "palfa") return SurveyConfig::palfa();
  if (name == "fast_crafts") return SurveyConfig::fast_crafts();
  if (name == "ska_mid") return SurveyConfig::ska_mid();
  throw std::runtime_error(
      "unknown survey: " + name +
      " (expected gbt350, palfa, fast_crafts, or ska_mid)");
}

int cmd_simulate(int argc, const char* const argv[]) {
  Options opts(argc, argv,
               {{"survey", "gbt350"},
                {"observations", "8"},
                {"visibility", "0.06"},
                {"seed", "1"},
                {"out", "."}});
  if (opts.help_requested()) {
    std::cout << opts.usage("drapid simulate",
                            "Simulates survey observations and writes "
                            "data.csv, clusters.csv, truth.csv, catalog.csv "
                            "into --out.");
    return 0;
  }
  PipelineConfig config;
  config.survey = survey_by_name(opts.str("survey"));
  config.num_observations =
      static_cast<std::size_t>(opts.integer("observations"));
  config.visibility = opts.number("visibility");
  config.seed = static_cast<std::uint64_t>(opts.integer("seed"));
  const PipelineData data = prepare_pipeline_data(config);

  const std::string dir = opts.str("out");
  write_file(dir + "/data.csv", data.data_csv);
  write_file(dir + "/clusters.csv", data.cluster_csv);
  {
    // The known-source catalogue (the ATNF/RRATalog stand-in, §4).
    std::ostringstream cat;
    catalog_from_population(data.sources).save(cat);
    write_file(dir + "/catalog.csv", cat.str());
  }
  std::ostringstream truth;
  truth << "observation,source,type,time_s,dm,peak_snr,num_spes\n";
  for (const auto& obs : data.observations) {
    for (const auto& gt : obs.truth) {
      truth << obs.data.id.key() << ',' << gt.source_name << ','
            << (gt.type == SourceType::kRrat ? "rrat" : "pulsar") << ','
            << gt.time_s << ',' << gt.dm << ',' << gt.peak_snr << ','
            << gt.num_spes << '\n';
    }
  }
  write_file(dir + "/truth.csv", truth.str());
  std::cout << "wrote " << dir << "/data.csv (" << data.total_spes
            << " SPEs), clusters.csv (" << data.clusters.size()
            << " clusters), truth.csv, catalog.csv ("
            << data.sources.size() << " sources)\n";
  return 0;
}

int cmd_search(int argc, const char* const argv[]) {
  Options opts(argc, argv, {{"data", "data.csv"},
                            {"clusters", "clusters.csv"},
                            {"out", "ml.csv"},
                            {"truth", ""},
                            {"catalog", ""},
                            {"survey", "gbt350"},
                            {"executors", "4"},
                            {"threads", "2"},
                            {"backend", "local"},
                            {"workers", "0"},
                            {"kill-worker", ""},
                            {"fault-rate", "0"},
                            {"fault-seed", "24077"},
                            {"max-attempts", "4"}});
  if (opts.help_requested()) {
    std::cout << opts.usage(
        "drapid search",
        "Runs the D-RAPID dataflow job on --data and --clusters files and "
        "writes the ML file; --backend=process runs stages on a pool of "
        "--workers forked worker processes (0 = one per executor) kept "
        "alive for the whole job; --fault-rate "
        "injects recoverable faults and --kill-worker STAGE:ID SIGKILLs a "
        "process worker mid-stage.");
    return 0;
  }
  BlockStore store(15);
  store.put("data", read_file(opts.str("data")));
  store.put("clusters", read_file(opts.str("clusters")));

  EngineConfig engine_config;
  engine_config.num_executors =
      static_cast<std::size_t>(opts.integer("executors"));
  engine_config.exec.threads_per_worker =
      static_cast<std::size_t>(opts.integer("threads"));
  engine_config.max_task_attempts =
      static_cast<std::size_t>(opts.integer("max-attempts"));
  engine_config.exec.backend = parse_exec_backend(opts.str("backend"));
  engine_config.exec.workers =
      static_cast<std::size_t>(opts.integer("workers"));
  // --kill-worker STAGE:ID deterministically SIGKILLs process-backend worker
  // ID during the first stage whose name starts with STAGE (recovered via
  // the retry budget; the local backend ignores it).
  if (!opts.str("kill-worker").empty()) {
    const std::string& spec = opts.str("kill-worker");
    const std::size_t colon = spec.rfind(':');
    if (colon == std::string::npos) {
      throw std::runtime_error("--kill-worker expects STAGE:ID, got " + spec);
    }
    WorkerKill kill;
    kill.stage = spec.substr(0, colon);
    kill.worker = static_cast<std::size_t>(parse_int(spec.substr(colon + 1)));
    engine_config.faults.kill_workers.push_back(std::move(kill));
  }
  // --fault-rate R injects task kills, spill-file damage, and dead data
  // nodes at rate R (deterministic per --fault-seed); the job retries and
  // recovers, and the summary's retries column shows the cost.
  const double fault_rate = opts.number("fault-rate");
  if (fault_rate > 0.0) {
    engine_config.faults.seed =
        static_cast<std::uint64_t>(opts.integer("fault-seed"));
    engine_config.faults.task_failure_rate = fault_rate;
    engine_config.faults.spill_fault_rate = fault_rate;
    engine_config.faults.node_fault_rate = fault_rate;
  }
  Engine engine(engine_config);
  const DmGrid grid = *survey_by_name(opts.str("survey")).grid;
  auto result = run_drapid(engine, store, "data", "clusters", "ml", grid, {});

  // Optional ground truth (as written by `drapid simulate`): label the ML
  // records so `drapid classify` can train on them.
  if (!opts.str("truth").empty()) {
    std::map<std::string, std::vector<GroundTruthPulse>> truth;
    std::istringstream truth_in(read_file(opts.str("truth")));
    std::string line;
    std::getline(truth_in, line);  // header
    while (std::getline(truth_in, line)) {
      if (line.empty()) continue;
      const auto row = parse_csv_line(line);
      if (row.size() != 7) {
        throw std::runtime_error("malformed truth row: " + line);
      }
      GroundTruthPulse gt;
      gt.source_name = row[1];
      gt.type = row[2] == "rrat" ? SourceType::kRrat : SourceType::kPulsar;
      gt.time_s = parse_double(row[3]);
      gt.dm = parse_double(row[4]);
      gt.peak_snr = parse_double(row[5]);
      gt.num_spes = static_cast<std::uint32_t>(parse_int(row[6]));
      truth[row[0]].push_back(gt);
    }
    label_records(result.records, truth);
    std::ostringstream labeled;
    write_ml_file(labeled, result.records);
    store.put("ml", labeled.str());
    std::size_t positives = 0;
    for (const auto& rec : result.records) {
      positives += !rec.truth_label.empty();
    }
    std::cout << "labeled " << positives << " of " << result.records.size()
              << " records as pulsar/RRAT\n";
  }
  if (!opts.str("catalog").empty()) {
    std::istringstream cat_in(read_file(opts.str("catalog")));
    const auto catalog = SourceCatalog::load(cat_in);
    label_records_by_catalog(result.records, catalog);
    std::ostringstream labeled;
    write_ml_file(labeled, result.records);
    store.put("ml", labeled.str());
    std::size_t positives = 0;
    for (const auto& rec : result.records) {
      positives += !rec.truth_label.empty();
    }
    std::cout << "catalogue crossmatch labeled " << positives << " of "
              << result.records.size() << " records\n";
  }
  write_file(opts.str("out"), store.get("ml"));
  if (fault_rate > 0.0) {
    std::cout << "faults injected at rate " << fault_rate << ": "
              << result.metrics.total_retries() << " task retries, "
              << result.partitions_recovered
              << " spill partitions recomputed from lineage, "
              << result.replica_failovers << " replica failovers\n";
  }
  std::cout << "searched " << result.clusters_searched << " clusters ("
            << result.spes_scanned << " SPEs scanned), found "
            << result.records.size() << " single pulses in "
            << format_number(result.wall_seconds, 2) << " s\n"
            << "wrote " << opts.str("out") << '\n'
            << "\nmeasured work:\n"
            << result.metrics.summary();
  return 0;
}

int cmd_classify(int argc, const char* const argv[]) {
  Options opts(argc, argv, {{"ml", "ml.csv"},
                            {"scheme", "8"},
                            {"filter", "IG"},
                            {"learner", "RF"},
                            {"smote", "false"},
                            {"seed", "1"},
                            {"cv-threads", "1"}});
  if (opts.help_requested()) {
    std::cout << opts.usage("drapid classify",
                            "5-fold cross-validates a labeled ML file and "
                            "reports recall/precision/F-measure.");
    return 0;
  }
  std::ifstream in(opts.str("ml"));
  if (!in) throw std::runtime_error("cannot open " + opts.str("ml"));
  const auto records = read_ml_file(in);
  std::vector<LabeledPulse> pulses;
  for (const auto& rec : records) {
    LabeledPulse lp;
    lp.features = rec.features;
    lp.is_pulsar = !rec.truth_label.empty();
    lp.is_rrat = rec.truth_label == "rrat";
    pulses.push_back(lp);
  }

  TrialSpec spec;
  for (ml::AlmScheme s : ml::all_alm_schemes()) {
    if (ml::alm_scheme_name(s) == opts.str("scheme")) spec.scheme = s;
  }
  spec.filter.reset();
  for (ml::FilterMethod f : ml::all_filter_methods()) {
    if (ml::filter_abbreviation(f) == opts.str("filter")) spec.filter = f;
  }
  bool learner_found = false;
  for (ml::LearnerType l : ml::all_learner_types()) {
    if (ml::learner_name(l) == opts.str("learner")) {
      spec.learner = l;
      learner_found = true;
    }
  }
  if (!learner_found) {
    throw std::runtime_error("unknown learner: " + opts.str("learner"));
  }
  spec.smote = opts.flag("smote");
  spec.seed = static_cast<std::uint64_t>(opts.integer("seed"));
  // Folds run on the work-stealing pool; any thread count reports
  // byte-identical scores.
  spec.cv_threads = static_cast<std::size_t>(opts.integer("cv-threads"));

  const TrialResult result = run_trial(pulses, spec);
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"configuration", "Recall", "Precision", "F-Measure",
                  "train(s)", "test(s)"});
  rows.push_back({spec.describe(), format_number(result.recall),
                  format_number(result.precision),
                  format_number(result.f_measure),
                  format_number(result.train_seconds),
                  format_number(result.test_seconds)});
  std::cout << render_table(rows);
  return 0;
}

int cmd_sweep(int argc, const char* const argv[]) {
  Options opts(argc, argv, {{"fil", ""},
                            {"survey", "gbt350"},
                            {"rfi", "off"},
                            {"groups", "0"},
                            {"threads", "1"},
                            {"snr", "5"},
                            {"stride", "1"},
                            {"dm-max", "20"},
                            {"dm", "40"},
                            {"seed", "1"},
                            {"out", "events.singlepulse"}});
  if (opts.help_requested()) {
    std::cout << opts.usage(
        "drapid sweep",
        "Dedisperses --fil (SIGPROC format; without it, a synthesized demo "
        "observation in the --survey band with a pulse at --dm, plus the "
        "preset's structured-RFI scenario when it defines one) over the "
        "--survey DM grid up to "
        "--dm-max (0 = the full grid) and writes the detected events as a "
        "PRESTO-style .singlepulse file. The sweep is the two-stage subband "
        "method, with channel groups picked by cost model unless --groups is "
        "set (--groups 1 is the exact channel-order sum, bit for bit). "
        "--rfi=zerodm|mask|both runs "
        "the mitigation stage (zero-DM subtraction, robust channel masking) "
        "before the sweep.");
    return 0;
  }

  Filterbank fb = [&] {
    if (!opts.str("fil").empty()) return Filterbank::read_fil(opts.str("fil"));
    // Demo observation: the survey preset's band, noise, and one dispersed
    // pulse at --dm. Presets with structured-RFI rates (fast_crafts/ska_mid)
    // also get their scenario painted in, so --rfi has real work to do.
    const SurveyConfig survey = survey_by_name(opts.str("survey"));
    FilterbankConfig cfg;
    cfg.center_freq_mhz = survey.center_freq_mhz;
    cfg.bandwidth_mhz = survey.bandwidth_mhz;
    cfg.num_channels = 64;
    cfg.sample_time_ms = 2.0;
    cfg.obs_length_s = 10.0;
    Filterbank demo(cfg);
    Rng rng(static_cast<std::uint64_t>(opts.integer("seed")));
    demo.add_noise(rng, 1.0);
    demo.inject_pulse(3.0, opts.number("dm"), 3.0, 20.0);
    if (survey.has_structured_rfi()) {
      FilterbankSurveyOptions fopts;
      fopts.num_channels = cfg.num_channels;
      fopts.sample_time_ms = cfg.sample_time_ms;
      fopts.obs_length_s = cfg.obs_length_s;
      const RfiScenario scenario =
          draw_rfi_scenario(survey, cfg.obs_length_s, rng);
      render_rfi_filterbank(scenario, fopts, demo, rng);
    }
    return demo;
  }();

  DmGrid grid = *survey_by_name(opts.str("survey")).grid;
  if (opts.number("dm-max") > 0.0) grid = grid.prefix(opts.number("dm-max"));

  SinglePulseSearchParams params;
  params.subband_groups = static_cast<std::size_t>(opts.integer("groups"));
  params.exec.threads_per_worker =
      static_cast<std::size_t>(opts.integer("threads"));
  params.snr_threshold = opts.number("snr");
  params.dm_stride = static_cast<std::size_t>(opts.integer("stride"));
  params.rfi.policy = parse_mitigation_policy(opts.str("rfi"));

  const auto events = single_pulse_search(fb, grid, params);
  std::ofstream out(opts.str("out"));
  if (!out) throw std::runtime_error("cannot write " + opts.str("out"));
  write_singlepulse(out, events);
  std::cout << "swept " << fb.num_channels() << " channels x "
            << fb.num_samples() << " samples over " << grid.size()
            << " trial DMs (" << kernels::dispatch_name() << " kernels, rfi="
            << mitigation_policy_name(params.rfi.policy) << ", "
            << params.exec.threads_per_worker << " thread(s))\n"
            << "wrote " << events.size() << " events to " << opts.str("out")
            << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: drapid <simulate|search|classify|sweep> [--options]\n"
                 "see the header of tools/drapid_cli.cpp for details\n";
    return 2;
  }
  const std::string command = argv[1];
  if (command == "--help" || command == "-h") {
    std::cout << "usage: drapid <simulate|search|classify|sweep> [--options]\n"
                 "run `drapid <command> --help` for each command's flags\n";
    return 0;
  }
  try {
    if (command == "simulate") return cmd_simulate(argc - 1, argv + 1);
    if (command == "search") return cmd_search(argc - 1, argv + 1);
    if (command == "classify") return cmd_classify(argc - 1, argv + 1);
    if (command == "sweep") return cmd_sweep(argc - 1, argv + 1);
    std::cerr << "unknown command: " << command << '\n';
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
