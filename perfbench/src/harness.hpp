// Measurement plumbing shared by every perfbench workload: clocks and
// rusage, the open-loop ingest ledger, the span ledger that attributes a
// traced pass to layers, and the prior-survey archive each pass reopens.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"
#include "serve/archive.hpp"

namespace perfbench {

/// Steady-clock seconds since an arbitrary origin.
double now_s();

/// Sleeps until the steady clock reads `deadline_s` (returns at once if
/// already past).
void sleep_until_s(double deadline_s);

/// Process CPU and peak memory from getrusage. `children_*` covers only
/// children that have been waited for, so a pass reads it after its
/// engine (and with it the worker pool) has been destroyed.
struct Usage {
  double self_cpu_s = 0.0;
  double children_cpu_s = 0.0;
  double self_maxrss_mb = 0.0;
  double children_maxrss_mb = 0.0;
  double cpu_s() const { return self_cpu_s + children_cpu_s; }
};
Usage usage_now();

/// Returns freed heap to the system and restarts the kernel's peak-RSS mark
/// for this process (VmHWM), so peak_rss_mb() covers only what runs after
/// the call — the timed passes, not input generation.
void reset_peak_rss();
/// Peak resident set since the last reset_peak_rss(), in MiB.
double peak_rss_mb();

/// FNV-1a digest of a byte string, for output-identity gates.
std::uint64_t digest(std::string_view bytes);

/// Open-loop ingest accounting for one pass. Observation k was due at
/// due[k], actually submitted at submitted[k] and became visible to queries
/// at visible[k]; the single writer serves observations in submission order.
/// Latency is charged from the due time, so a stalled submit delays every
/// later ingest's clock too.
struct OpenLoopLedger {
  std::vector<double> latency_s;     ///< visible - due
  std::vector<double> queue_wait_s;  ///< waiting behind earlier ingests
  std::vector<double> service_s;     ///< writer busy on this observation
  std::vector<double> late_s;        ///< how late the generator submitted
  std::size_t backlog_max = 0;       ///< most observations in flight
};
OpenLoopLedger account_open_loop(const std::vector<double>& due,
                                 const std::vector<double>& submitted,
                                 const std::vector<double>& visible);

/// Spans recorded from the benchmark's own files around each layer call.
/// Tracing is off by default; a traced pass enables it. Every span closes
/// with the id of the pass it belongs to.
class Ledger {
 public:
  Ledger();
  drapid::obs::Tracer& tracer() { return tracer_; }
  void enable(bool on) { tracer_.enable(on); }

  /// Self time (span duration minus the time its child spans cover) per
  /// pass id and span name, over every closed span recorded so far.
  std::map<int, std::map<std::string, double>> self_seconds() const;

  void write_chrome_trace(const std::string& path) const;

 private:
  drapid::obs::Tracer tracer_;
};

/// RAII span around one layer call; inactive while tracing is off.
class Span {
 public:
  Span(Ledger& ledger, std::string_view name, int pass)
      : span_(ledger.tracer(), name) {
    span_.arg("pass", pass);
  }

 private:
  drapid::obs::ScopedSpan span_;
};

/// Writes the archive of earlier survey candidates that every serving pass
/// reopens: `segments` sealed segments of `per_segment` records drawn from
/// `seed`. Returns the records in canonical query order.
std::vector<drapid::CandidateRecord> write_prior_archive(
    const std::string& dir, std::uint64_t seed, std::size_t segments,
    std::size_t per_segment);

/// The distinct observation keys of `records`, in first-seen order.
std::vector<std::string> observation_keys(
    const std::vector<drapid::CandidateRecord>& records);

/// Replaces `to` with a copy of directory `from`.
void copy_dir(const std::string& from, const std::string& to);

/// The three query shapes of bench_serve, cycled by index: a narrow DM
/// band, one observation key, and the bright tail, all over the prior
/// survey written by write_prior_archive.
enum class QueryShape { kDmBand = 0, kKey = 1, kSnrTail = 2 };
drapid::serve::Query make_query(std::size_t i,
                                const std::vector<std::string>& prior_keys);

/// Query latencies of one pass, per shape.
struct QueryLog {
  std::vector<double> latency_s[3];
  std::size_t results = 0;
  std::size_t count() const {
    return latency_s[0].size() + latency_s[1].size() + latency_s[2].size();
  }
  void merge(const QueryLog& other);
  std::vector<double> all() const;
};

/// A closed-loop burst of `count` queries against `archive`, one span each.
QueryLog query_burst(const drapid::serve::CandidateArchive& archive,
                     const std::vector<std::string>& prior_keys,
                     std::size_t count,
                     Ledger& ledger, int pass);

}  // namespace perfbench
