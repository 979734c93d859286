// Memory-budgeted caching of string-pair RDDs with real spill-to-disk.
//
// Spark keeps RDDs in executor memory and swaps partitions to disk when they
// do not fit; the paper's one-executor run fell off a cliff for exactly this
// reason (§6.1, RQ2). CachedStringRdd reproduces the mechanism: if the
// dataset's estimated size exceeds the engine's total executor memory, every
// partition is serialized to a spill file (real file I/O) and read back on
// access. The written and re-read bytes are recorded in the job metrics,
// which is what the cluster cost model prices as disk traffic.
//
// Integrity + lineage: each spill file is a sealed file
// (util/sealed_file.hpp) — a header magic, the partition in the wire codec,
// and a checksum over it that is verified before any record length is
// trusted — so truncation or corruption is detected instead of silently
// yielding garbage (or a multi-GB allocation). When a damaged or
// missing file is detected on materialize and a producer closure was
// recorded at construction, the lost partitions are *recomputed from
// lineage*, all of them in one call — Spark's recovery story — and
// re-spilled; without a producer, a descriptive SpillError is thrown.
#pragma once

#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "dataflow/rdd.hpp"

namespace drapid {

/// A spill file failed validation (bad magic, truncation, checksum
/// mismatch, a malformed body) or could not be opened or written.
struct SpillError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class CachedStringRdd {
 public:
  using StringRdd = Rdd<std::string, std::string>;
  /// Recomputes the lost partitions (ascending) from the cached dataset's
  /// lineage, returning them in the same order.
  using Producer = std::function<std::vector<std::vector<StringRdd::Pair>>(
      const std::vector<std::size_t>& partitions)>;

  /// Takes ownership of `rdd`; spills it if it exceeds the engine's memory
  /// budget. Records a "<name>:cache" stage with the spill write bytes.
  /// `producer`, if given, recomputes the partitions whose spill files are
  /// later found damaged or missing.
  CachedStringRdd(Engine& engine, StringRdd rdd, const std::string& name,
                  Producer producer = nullptr);

  bool spilled() const { return spilled_; }
  std::size_t estimated_bytes() const { return bytes_; }
  /// Partitions recovered from lineage so far (over all materializations).
  std::size_t partitions_recovered() const { return recovered_; }

  /// Returns a copy of the dataset, reading partitions back from disk if
  /// spilled (records a "<name>:materialize" stage with the read bytes).
  StringRdd materialize();

  /// Borrows the dataset without copying. For an in-memory cache this is
  /// O(1); a spilled cache is read back once (recording the materialize
  /// stage) and kept resident, so repeated borrows are O(1) too.
  const StringRdd& borrow();

 private:
  /// Reads one spill file into `out`, validating checksum and format.
  void read_partition(std::size_t p, std::vector<StringRdd::Pair>& out,
                      TaskMetrics& task) const;
  /// Writes partition `p` of `rdd` to a fresh spill file, returns its path.
  std::string write_partition(const std::vector<StringRdd::Pair>& records,
                              TaskMetrics& task) const;

  Engine& engine_;
  std::string name_;
  Producer producer_;
  StringRdd in_memory_;             // valid when !spilled_
  std::optional<StringRdd> restored_;  // lazily filled by borrow() if spilled_
  std::vector<std::string> files_;  // one per partition when spilled_
  std::uint64_t partitioner_id_ = 0;
  std::size_t bytes_ = 0;
  std::size_t recovered_ = 0;
  bool spilled_ = false;
};

}  // namespace drapid
