// D-RAPID driver — the paper's contribution (Figure 3), on the mini-Spark
// engine instead of Spark-on-YARN.
//
// Stage 1/2: the SPE "data file" and the "cluster file" are read from the
//   block store in line-aligned chunks, stripped of headers, and turned into
//   key-value-pair RDDs keyed by the concatenated observation descriptors
//   (dataset | MJD | sky position | beam).
// Stage 3: both KVPRDDs are hash-partitioned identically so matching keys
//   are colocated, aggregated by key so the join sees one pair per key per
//   side, then left-outer-joined; the search phase runs Algorithm 1 on every
//   cluster against its colocated SPE data and writes the identified pulses'
//   feature vectors back to the block store as an ML file.
//
// The two optimizations of Figure 3 can be disabled independently
// (DrapidConfig::copartition / aggregate_before_join) for the ablation
// benchmarks; the engine's metrics expose the shuffle-byte difference.
#pragma once

#include <string>
#include <vector>

#include "dataflow/block_store.hpp"
#include "dataflow/engine.hpp"
#include "rapid/features.hpp"
#include "rapid/search.hpp"
#include "spe/dm_grid.hpp"

namespace drapid {

struct DrapidConfig {
  RapidParams rapid;
  /// Partitions for the shared hash partitioner; 0 = engine default
  /// (cores × partitions_per_core, the paper's 32-per-core scheme).
  std::size_t num_partitions = 0;
  /// Pre-partition both inputs with the shared partitioner before joining
  /// (Figure 3 "Partition" phase). Off = the join shuffles on its own.
  bool copartition = true;
  /// Aggregate duplicate keys per side before the join (Figure 3
  /// "Aggregate" phase). Off = the join multiplies duplicate keys.
  bool aggregate_before_join = true;
};

struct DrapidResult {
  /// Identified pulses, sorted by (observation, cluster, pulse index).
  std::vector<MlRecord> records;
  /// Measured work of this run (copied out of the engine).
  JobMetrics metrics;
  std::size_t clusters_searched = 0;
  std::size_t spes_scanned = 0;
  /// Spill partitions of the cached SPE RDD recomputed from lineage after
  /// their on-disk copy failed validation (0 in a fault-free run).
  std::size_t partitions_recovered = 0;
  /// Block reads served by a non-primary replica (dead-node failover).
  std::size_t replica_failovers = 0;
  /// In-memory size estimate of the cached SPE RDD, and whether it spilled
  /// (it does when the estimate exceeds the engine's memory budget).
  std::size_t cache_bytes = 0;
  bool cache_spilled = false;
  double wall_seconds = 0.0;
};

/// Runs the full D-RAPID job: reads `data_file` and `cluster_file` from the
/// store, writes the ML file to `output_file` (empty = skip writing), and
/// returns the identified pulses plus the measured work.
DrapidResult run_drapid(Engine& engine, BlockStore& store,
                        const std::string& data_file,
                        const std::string& cluster_file,
                        const std::string& output_file, const DmGrid& grid,
                        const DrapidConfig& config);

}  // namespace drapid
