// Shared command-line surface for the bench binaries.
//
// Every bench accepts the same core flag set — {--scale, --threads, --seed,
// --fault-rate, --backend, --workers} plus the observability outputs
// {--trace-out, --json-out} and --help — and layers its own flags on top. BenchOptions owns that merged
// parse, flips the global tracer on when --trace-out is given, pre-populates
// a RunReport with the resolved config, and exports both artifacts in
// finish(), so a bench main reduces to:
//
//   obs::BenchOptions bench("bench_foo", argc, argv, {{"trials", "300"}});
//   if (bench.help()) return 0;
//   ... run, filling bench.report() ...
//   bench.finish();
#pragma once

#include <chrono>
#include <map>
#include <string>

#include "obs/report.hpp"
#include "util/exec_policy.hpp"
#include "util/options.hpp"

namespace drapid {
namespace obs {

class BenchOptions {
 public:
  /// Parses argv against the core spec merged with `extra_spec` (an extra
  /// entry with a core name overrides that core default). On --help, prints
  /// usage to stdout and sets help(). Throws std::runtime_error on unknown
  /// or malformed flags, like Options.
  BenchOptions(std::string tool, int argc, const char* const argv[],
               std::map<std::string, std::string> extra_spec = {},
               const std::string& summary = "");

  /// True when usage was printed; the caller should exit 0 without running.
  bool help() const { return help_; }

  const Options& opts() const { return opts_; }
  const std::string& tool() const { return tool_; }

  double scale() const { return opts_.number("scale"); }
  long long threads() const { return opts_.integer("threads"); }
  long long seed() const { return opts_.integer("seed"); }
  double fault_rate() const { return opts_.number("fault-rate"); }
  const std::string& backend() const { return opts_.str("backend"); }
  long long workers() const { return opts_.integer("workers"); }

  /// The resolved execution policy: --backend=local|process, --workers=N
  /// worker processes (0 = backend default), --threads pool threads. This
  /// is the one struct benches thread into EngineConfig::exec.
  ExecPolicy exec_policy() const {
    ExecPolicy policy;
    policy.backend = parse_exec_backend(backend());
    policy.workers = static_cast<std::size_t>(workers() < 0 ? 0 : workers());
    policy.threads_per_worker =
        static_cast<std::size_t>(threads() < 1 ? 1 : threads());
    return policy;
  }
  const std::string& trace_out() const { return opts_.str("trace-out"); }
  const std::string& json_out() const { return opts_.str("json-out"); }

  /// True when --trace-out was given (the global tracer is then enabled).
  bool tracing() const { return !trace_out().empty(); }

  /// `base` multiplied by --scale, rounded, floored at 1 — the knob each
  /// bench applies to its primary problem-size parameter.
  long long scaled(long long base) const;

  /// The run report this bench fills in; config is pre-populated from the
  /// resolved options.
  RunReport& report() { return report_; }

  /// Stamps wall-clock time and the global counter snapshot into the
  /// report, then writes --json-out and --trace-out (whichever were given).
  /// Safe to call when neither was requested (does nothing but stamp).
  void finish();

 private:
  std::string tool_;
  Options opts_;
  bool help_ = false;
  RunReport report_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace obs
}  // namespace drapid
