#include "harness.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "obs/chrome_trace.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace drapid;

namespace {

/// Prior-survey candidates arrive in [kPriorTimeS, kPriorTimeS + 10) s,
/// after every event the workloads ingest.
constexpr double kPriorTimeS = 100.0;

}  // namespace

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void sleep_until_s(double deadline_s) {
  const double wait = deadline_s - now_s();
  if (wait > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  }
}

namespace {

double seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

Usage usage_now() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  Usage u;
  u.self_cpu_s = seconds(self.ru_utime) + seconds(self.ru_stime);
  u.children_cpu_s = seconds(children.ru_utime) + seconds(children.ru_stime);
  // ru_maxrss is in KiB on Linux.
  u.self_maxrss_mb = static_cast<double>(self.ru_maxrss) / 1024.0;
  u.children_maxrss_mb = static_cast<double>(children.ru_maxrss) / 1024.0;
  return u;
}

void reset_peak_rss() {
  // Hand freed heap back first: pages the allocator kept after input
  // generation would otherwise set a seed-dependent floor under the peak.
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return usage_now().self_maxrss_mb;
}

std::uint64_t digest(std::string_view bytes) {
  return checksum_fold(kChecksumSeed, bytes.data(), bytes.size());
}

OpenLoopLedger account_open_loop(const std::vector<double>& due,
                                 const std::vector<double>& submitted,
                                 const std::vector<double>& visible) {
  OpenLoopLedger ledger;
  double writer_free = -1e300;
  for (std::size_t k = 0; k < due.size(); ++k) {
    const double start = std::max(submitted[k], writer_free);
    ledger.latency_s.push_back(visible[k] - due[k]);
    ledger.queue_wait_s.push_back(start - submitted[k]);
    ledger.service_s.push_back(visible[k] - start);
    ledger.late_s.push_back(submitted[k] - due[k]);
    writer_free = visible[k];
    // In flight at this submit: everything submitted so far that has not
    // become visible yet (this observation included).
    std::size_t in_flight = 0;
    for (std::size_t j = 0; j <= k; ++j) in_flight += visible[j] > submitted[k];
    ledger.backlog_max = std::max(ledger.backlog_max, in_flight);
  }
  return ledger;
}

Ledger::Ledger() { tracer_.enable(false); }

std::map<int, std::map<std::string, double>> Ledger::self_seconds() const {
  struct Open {
    std::string name;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };
  std::map<std::uint32_t, std::vector<Open>> stacks;
  std::map<int, std::map<std::string, double>> out;
  for (const auto& e : tracer_.events()) {
    auto& stack = stacks[e.tid];
    if (e.phase == obs::TraceEvent::Phase::kBegin) {
      stack.push_back({e.name, e.ts_ns, 0});
    } else if (e.phase == obs::TraceEvent::Phase::kEnd && !stack.empty()) {
      const Open open = stack.back();
      stack.pop_back();
      const std::int64_t duration = e.ts_ns - open.start_ns;
      const obs::Json* pass = e.args.find("pass");
      const int id = pass ? static_cast<int>(pass->as_int()) : -1;
      out[id][open.name] +=
          static_cast<double>(duration - open.child_ns) * 1e-9;
      if (!stack.empty()) stack.back().child_ns += duration;
    }
  }
  return out;
}

void Ledger::write_chrome_trace(const std::string& path) const {
  obs::write_chrome_trace(tracer_.events(), path);
}

std::vector<CandidateRecord> write_prior_archive(const std::string& dir,
                                                 std::uint64_t seed,
                                                 std::size_t segments,
                                                 std::size_t per_segment) {
  fs::remove_all(dir);
  std::vector<CandidateRecord> all;
  serve::CandidateArchive archive(dir);
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  for (std::size_t s = 0; s < segments; ++s) {
    ObservationId id;
    id.dataset = "PRIOR";
    id.mjd = 57000.0 + static_cast<double>(s);
    id.ra_deg = rng.uniform(0.0, 360.0);
    id.dec_deg = rng.uniform(-60.0, 60.0);
    id.beam = static_cast<int>(s % 7);
    for (std::size_t i = 0; i < per_segment; ++i) {
      CandidateRecord rec;
      rec.obs = id;
      rec.event.dm = rng.uniform(0.0, 200.0);
      // Pareto tail: P(snr > x) = (5 / x)^2.
      rec.event.snr = 5.0 / std::sqrt(1.0 - rng.uniform());
      rec.event.time_s = rng.uniform(kPriorTimeS, kPriorTimeS + 10.0);
      rec.event.sample = static_cast<std::int64_t>(rec.event.time_s * 1e3);
      rec.event.downfact = 1 << rng.below(6);
      archive.append(rec);
      all.push_back(rec);
    }
    archive.seal();
  }
  std::sort(all.begin(), all.end(), serve::candidate_order);
  return all;
}

std::vector<std::string> observation_keys(
    const std::vector<CandidateRecord>& records) {
  std::vector<std::string> keys;
  for (const auto& rec : records) {
    std::string key = rec.obs.key();
    if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
      keys.push_back(std::move(key));
    }
  }
  return keys;
}

void copy_dir(const std::string& from, const std::string& to) {
  fs::remove_all(to);
  fs::copy(from, to, fs::copy_options::recursive);
}

serve::Query make_query(std::size_t i,
                        const std::vector<std::string>& prior_keys) {
  serve::Query q;
  const std::size_t j = i / 3;
  // Queries read the prior survey (its own time range and keys), so their
  // result sizes do not depend on what the pass ingested; they still search
  // every segment of the snapshot, the new ones included.
  q.time_min = kPriorTimeS;
  switch (static_cast<QueryShape>(i % 3)) {
    case QueryShape::kDmBand:
      q.dm_min = static_cast<double>((j * 17) % 190);
      q.dm_max = q.dm_min + 1.0;
      break;
    case QueryShape::kKey:
      q.key = prior_keys[j % prior_keys.size()];
      break;
    case QueryShape::kSnrTail:
      q.min_snr = 50.0 + 2.0 * static_cast<double>(j % 10);
      break;
  }
  return q;
}

void QueryLog::merge(const QueryLog& other) {
  for (int s = 0; s < 3; ++s) {
    latency_s[s].insert(latency_s[s].end(), other.latency_s[s].begin(),
                        other.latency_s[s].end());
  }
  results += other.results;
}

std::vector<double> QueryLog::all() const {
  std::vector<double> out;
  for (const auto& shape : latency_s) {
    out.insert(out.end(), shape.begin(), shape.end());
  }
  return out;
}

QueryLog query_burst(const serve::CandidateArchive& archive,
                     const std::vector<std::string>& prior_keys,
                     std::size_t count, Ledger& ledger, int pass) {
  QueryLog log;
  for (std::size_t i = 0; i < count; ++i) {
    const serve::Query q = make_query(i, prior_keys);
    Span span(ledger, "serve.query", pass);
    const double t0 = now_s();
    const auto results = archive.query(q);
    log.latency_s[i % 3].push_back(now_s() - t0);
    log.results += results.size();
  }
  return log;
}

}  // namespace perfbench
