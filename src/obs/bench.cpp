#include "obs/bench.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <utility>

#include "obs/chrome_trace.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace drapid {
namespace obs {

namespace {

std::map<std::string, std::string> merged_spec(
    std::map<std::string, std::string> extra) {
  static const std::pair<const char*, const char*> kCore[] = {
      {"scale", "1"},      {"threads", "2"},  {"seed", "2018"},
      {"fault-rate", "0"}, {"backend", "local"}, {"workers", "0"},
      {"trace-out", ""},   {"json-out", ""},
  };
  for (const auto& [name, value] : kCore) extra.emplace(name, value);
  return extra;
}

/// Stores "1500" as 1500 and "0.05" as 0.05 so reports diff numerically;
/// anything else (paths, names, "true") stays a string.
Json typed_value(const std::string& text) {
  if (text.empty()) return Json(text);
  std::int64_t i = 0;
  auto [iptr, iec] = std::from_chars(text.data(), text.data() + text.size(), i);
  if (iec == std::errc() && iptr == text.data() + text.size()) return Json(i);
  double d = 0.0;
  auto [dptr, dec] = std::from_chars(text.data(), text.data() + text.size(), d);
  if (dec == std::errc() && dptr == text.data() + text.size()) return Json(d);
  return Json(text);
}

}  // namespace

BenchOptions::BenchOptions(std::string tool, int argc,
                           const char* const argv[],
                           std::map<std::string, std::string> extra_spec,
                           const std::string& summary)
    : tool_(std::move(tool)),
      opts_(argc, argv, merged_spec(std::move(extra_spec))),
      report_(tool_),
      start_(std::chrono::steady_clock::now()) {
  if (opts_.help_requested()) {
    std::fputs(opts_.usage(tool_, summary).c_str(), stdout);
    help_ = true;
    return;
  }
  parse_exec_backend(opts_.str("backend"));  // reject typos at startup
  for (const auto& [name, value] : opts_.items()) {
    report_.set_config(name, typed_value(value));
  }
  if (tracing()) global_tracer().enable(true);
}

long long BenchOptions::scaled(long long base) const {
  const double s = scale();
  const long long scaled = std::llround(static_cast<double>(base) * s);
  return scaled < 1 ? 1 : scaled;
}

void BenchOptions::finish() {
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  report_.set_wall_seconds(wall);
  report_.capture_counters(global_counters());
  if (const std::size_t dropped = global_tracer().dropped_events()) {
    report_.add_metric("trace_events_dropped",
                       static_cast<std::int64_t>(dropped));
  }
  if (!json_out().empty()) {
    report_.write_file(json_out());
    std::fprintf(stderr, "%s: wrote run report to %s\n", tool_.c_str(),
                 json_out().c_str());
  }
  if (tracing()) {
    write_chrome_trace(global_tracer().events(), trace_out());
    std::fprintf(stderr, "%s: wrote chrome trace to %s\n", tool_.c_str(),
                 trace_out().c_str());
  }
}

}  // namespace obs
}  // namespace drapid
