#include "drapid/driver.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <string_view>

#include "dataflow/rdd.hpp"
#include "dataflow/spill.hpp"
#include "obs/trace.hpp"
#include "spe/spe_io.hpp"
#include "util/stopwatch.hpp"

namespace drapid {

namespace {

using StringRdd = Rdd<std::string, std::string>;

/// Splits a CSV data/cluster row into the observation-descriptor key (the
/// first five fields, verbatim) and the per-record remainder — the KVP
/// mapping of Figure 3's "Map to KVPRDD" phase.
std::pair<std::string, std::string> split_key_value(std::string_view line) {
  std::size_t pos = 0;
  int commas = 0;
  for (; pos < line.size(); ++pos) {
    if (line[pos] == ',' && ++commas == 5) break;
  }
  if (commas < 5) {
    throw std::runtime_error("row with fewer than 6 fields: " +
                             std::string(line));
  }
  return {std::string(line.substr(0, pos)), std::string(line.substr(pos + 1))};
}

/// Parses one block chunk of a keyed CSV file into key/value records:
/// every nonempty line, minus the CSV header that opens partition 0. Fills
/// the load stage's task metrics; both the local body and the pooled
/// kernel run exactly this.
std::vector<std::pair<std::string, std::string>> parse_load_chunk(
    std::string_view chunk, std::size_t partition, TaskMetrics& task) {
  task.bytes_in = chunk.size();
  std::vector<std::pair<std::string, std::string>> records;
  bool header = (partition == 0);
  std::size_t start = 0;
  while (start < chunk.size()) {
    std::size_t end = chunk.find('\n', start);
    if (end == std::string_view::npos) end = chunk.size();
    const std::string_view line = chunk.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    if (header) {
      header = false;  // drop the CSV header
      continue;
    }
    records.push_back(split_key_value(line));
    ++task.records_in;
  }
  // Parsing dominates the load stage: a per-record cost plus a per-byte
  // scan cost (the cluster cost model prices these as CPU work).
  task.compute_cost = task.records_in + task.bytes_in / 32;
  detail::record_output(task, records);
  return records;
}

/// Pooled load kernel: the task input is the raw chunk text, the output the
/// encoded key/value partition, which stays resident in the worker.
std::string load_chunk_kernel(const PoolTaskCtx& ctx) {
  return ipc::encode_payload(
      parse_load_chunk(*ctx.inputs.at(0), ctx.partition, *ctx.metrics));
}

/// Loads a keyed CSV file from the block store as one RDD partition per
/// block chunk (data locality granularity), stripping the header.
/// `stage_prefix` distinguishes lineage-recomputation reloads from the
/// original load in the recorded metrics.
StringRdd load_keyed_file(Engine& engine, BlockStore& store,
                          const std::string& name,
                          const std::string& stage_prefix = {}) {
  auto chunks = store.line_chunks(name);
  StringRdd rdd;
  rdd.partitions.resize(chunks.size());
  auto& stage =
      engine.begin_stage(stage_prefix + "load:" + name, chunks.size());
  if (engine.pooled() && !chunks.empty()) {
    // Ship the raw chunk text to the pool; the parsed partitions never
    // travel back — downstream stages consume them worker-resident. Each
    // chunk moves into the one buffer that is both sent and kept as
    // lineage.
    std::vector<std::shared_ptr<const std::string>> shared;
    shared.reserve(chunks.size());
    for (auto& chunk : chunks) {
      shared.push_back(std::make_shared<const std::string>(std::move(chunk)));
    }
    PoolStagePlan plan;
    plan.kernel = &load_chunk_kernel;
    plan.inputs = [&shared](std::size_t task) {
      std::vector<PoolInputRef> refs(1);
      refs[0].inline_bytes = shared[task];
      return refs;
    };
    rdd.resident = engine.run_pooled_stage(stage, plan);
    return rdd;
  }
  engine.run_stage(stage, [&](TaskContext& ctx) {
    const std::size_t c = ctx.partition();
    rdd.partitions[c] = parse_load_chunk(chunks[c], c, ctx.metrics());
  });
  return rdd;
}

/// Joins per-key record lines into one blob ("Aggregate" phase of Figure 3).
StringRdd aggregate_lines(Engine& engine, const StringRdd& in,
                          const HashPartitioner& part,
                          const std::string& name) {
  return aggregate_by_key(
      engine, in, std::string{},
      [](std::string& agg, const std::string& line) {
        if (!agg.empty()) agg.push_back('\n');
        agg += line;
      },
      [](std::string& agg, std::string&& other) {
        if (other.empty()) return;
        if (!agg.empty()) agg.push_back('\n');
        agg += other;
      },
      part, name);
}

std::vector<std::string> split_lines(const std::string& blob) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start <= blob.size()) {
    const auto nl = blob.find('\n', start);
    if (nl == std::string::npos) {
      if (start < blob.size()) lines.push_back(blob.substr(start));
      break;
    }
    lines.push_back(blob.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

/// Search phase: runs Algorithm 1 for every cluster against the SPEs
/// colocated with it by the join, emitting ML-file rows.
std::vector<std::pair<std::string, std::string>> search_key(
    const std::string& key, const std::vector<std::string>& cluster_lines,
    const std::string& spe_blob, const DmGrid& grid,
    const RapidParams& params, std::size_t& cost) {
  std::vector<std::pair<std::string, std::string>> out;
  // Parse and DM-sort the observation's SPEs once per *pair*. With key
  // aggregation on, that is once per observation; without it, every cluster
  // drags its own copy of the blob through this parse — the measured cost
  // of the duplicate-key join inflation the paper warns about.
  std::vector<SinglePulseEvent> events;
  ObservationId obs;
  for (const auto& line : split_lines(spe_blob)) {
    SinglePulseEvent spe;
    parse_data_row(parse_csv_line(key + ',' + line), obs, spe);
    events.push_back(spe);
  }
  cost += events.size() + spe_blob.size() / 32;
  std::sort(events.begin(), events.end(),
            [](const SinglePulseEvent& a, const SinglePulseEvent& b) {
              if (a.dm != b.dm) return a.dm < b.dm;
              return a.time_s < b.time_s;
            });

  for (const auto& cluster_line : cluster_lines) {
    const ClusterRecord rec =
        parse_cluster_row(parse_csv_line(key + ',' + cluster_line));
    // Select the SPEs inside the cluster's bounding box: binary-search the
    // DM range, filter the time range.
    const auto lo = std::lower_bound(
        events.begin(), events.end(), rec.dm_min - 1e-9,
        [](const SinglePulseEvent& e, double dm) { return e.dm < dm; });
    std::vector<SinglePulseEvent> selected;
    for (auto it = lo; it != events.end() && it->dm <= rec.dm_max + 1e-9;
         ++it) {
      if (it->time_s >= rec.time_min - 1e-9 &&
          it->time_s <= rec.time_max + 1e-9) {
        selected.push_back(*it);
      }
    }
    cost += rapid_search_cost(selected.size());
    const auto pulses = rapid_search(selected, params);
    // PulseRank: 1 = brightest peak of this cluster.
    std::vector<std::size_t> order(pulses.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return selected[pulses[a].peak].snr > selected[pulses[b].peak].snr;
    });
    std::vector<int> rank(pulses.size());
    for (std::size_t r = 0; r < order.size(); ++r) {
      rank[order[r]] = static_cast<int>(r + 1);
    }
    for (std::size_t p = 0; p < pulses.size(); ++p) {
      MlRecord ml;
      ml.obs = rec.obs;
      ml.cluster_id = rec.cluster_id;
      ml.pulse_index = static_cast<int>(p);
      ml.features = extract_features(selected, pulses[p], rec, grid, rank[p]);
      out.emplace_back(key, format_csv_row(format_ml_row(ml)));
    }
  }
  return out;
}

/// The search stage's state: Algorithm 1's parameters and the DM grid. Pool
/// workers receive the grid's plan by value and rebuild it (DmGrid
/// construction from a plan is deterministic, so extracted features match
/// the driver's grid bit for bit).
struct SearchState {
  RapidParams params;
  DmGrid grid;

  void encode(ipc::WireWriter& w) const {
    ipc::encode_value(w, params);
    ipc::encode_value(w, grid.plan());
  }
  static SearchState decode(ipc::WireReader& r) {
    RapidParams params;
    ipc::decode_value(r, params);
    std::vector<DmPlanSegment> plan;
    ipc::decode_value(r, plan);
    return {params, DmGrid(std::move(plan))};
  }
};

}  // namespace

DrapidResult run_drapid(Engine& engine, BlockStore& store,
                        const std::string& data_file,
                        const std::string& cluster_file,
                        const std::string& output_file, const DmGrid& grid,
                        const DrapidConfig& config) {
  Stopwatch watch;
  engine.reset_metrics();
  DrapidResult result;

  // One span per Figure-3 phase, all nested under the driver span; the
  // per-stage/task spans the engine records nest inside whichever phase is
  // open. `phase` is an optional so each emplace closes the previous phase
  // before opening the next.
  obs::ScopedSpan run_span(engine.tracer(), "drapid", data_file, "driver");
  std::optional<obs::ScopedSpan> phase;

  // Apply the engine's fault plan to the storage layer: kill the planned
  // data nodes before any read, so block access exercises replica failover.
  for (const int node : engine.faults().dead_nodes(store.num_nodes())) {
    store.mark_node_dead(node);
  }

  const std::size_t num_partitions = config.num_partitions != 0
                                         ? config.num_partitions
                                         : engine.config().default_partitions();
  // The shared partitioner the join runs under. With copartitioning on,
  // every upstream stage lays data out with it, so the join is local; with
  // it off, upstream stages use an incompatible layout (different salt) and
  // the join must shuffle both sides again — the traffic the paper's
  // "uniform partitioning" eliminates.
  const HashPartitioner join_part{num_partitions};
  const HashPartitioner upstream_part =
      config.copartition ? join_part
                         : HashPartitioner{num_partitions, 0x5ca1ab1edeadbeefULL};

  // Stage 1 & 2: load and prepare the two input files.
  phase.emplace(engine.tracer(), "phase", "load", "driver");
  StringRdd data_kvp = load_keyed_file(engine, store, data_file);
  StringRdd cluster_kvp = load_keyed_file(engine, store, cluster_file);

  // Stage 3a: uniform partitioning (Figure 3 "Partition" phase).
  phase.emplace(engine.tracer(), "phase", "partition", "driver");
  if (config.copartition) {
    data_kvp = partition_by(engine, data_kvp, join_part, "partition:data");
    cluster_kvp =
        partition_by(engine, cluster_kvp, join_part, "partition:clusters");
  }

  // Stage 3b: key aggregation. The data side is always aggregated (one SPE
  // blob per observation); the cluster side only when the optimization is
  // on — turning it off reproduces the duplicate-key join inflation the
  // paper warns about, measurably.
  phase.emplace(engine.tracer(), "phase", "aggregate", "driver");
  StringRdd data_agg =
      aggregate_lines(engine, data_kvp, upstream_part, "aggregate:data");
  data_kvp = StringRdd{};  // drop local partitions and any pool residency

  StringRdd cluster_side =
      config.aggregate_before_join
          ? aggregate_lines(engine, cluster_kvp, upstream_part,
                            "aggregate:clusters")
          : std::move(cluster_kvp);

  // The big SPE RDD is cached under the executor-memory budget; if it does
  // not fit it spills to disk here and is read back for the join — the
  // Figure 4 one-executor mechanism. The producer closure records the
  // RDD's lineage: the spill partitions later found corrupt or missing are
  // recomputed by re-running the deterministic load→partition→aggregate
  // chain once (recorded under "recompute:" stages, so recovery work is
  // priced into the makespan) and keeping only the lost partitions.
  auto recompute_data_partitions =
      [&engine, &store, data_file, join_part, upstream_part,
       copartition = config.copartition](const std::vector<std::size_t>& lost) {
        StringRdd kvp =
            load_keyed_file(engine, store, data_file, "recompute:");
        if (copartition) {
          kvp = partition_by(engine, kvp, join_part,
                             "recompute:partition:data");
        }
        StringRdd agg = aggregate_lines(engine, kvp, upstream_part,
                                        "recompute:aggregate:data");
        std::vector<std::vector<StringRdd::Pair>> out;
        for (const std::size_t p : lost) {
          out.push_back(agg.resident
                            ? ipc::decode_payload<StringRdd::Pair>(
                                  pool_fetch(agg.resident, p))
                            : std::move(agg.partitions.at(p)));
        }
        return out;
      };
  phase.emplace(engine.tracer(), "phase", "cache", "driver");
  CachedStringRdd cached_data(engine, std::move(data_agg), "data",
                              recompute_data_partitions);
  // Borrow, don't copy: in-memory caches hand out a const reference in
  // O(1); spilled caches are read back (through checksum validation and,
  // if needed, lineage recovery) exactly once.
  const StringRdd& data_for_join = cached_data.borrow();

  // Stage 3c: the co-located left outer join.
  phase.emplace(engine.tracer(), "phase", "join", "driver");
  auto joined = left_outer_join(engine, cluster_side, data_for_join, join_part,
                                "join:clusters+data");

  // Stage 3d: the search phase.
  phase.emplace(engine.tracer(), "phase", "search", "driver");
  const StringRdd ml_rows = flat_map_metered(
      engine, joined,
      [](const std::string& key,
         const std::pair<std::string, std::optional<std::string>>& v,
         const SearchState& state, std::size_t& cost)
          -> std::vector<std::pair<std::string, std::string>> {
        if (!v.second || v.second->empty() || v.first.empty()) return {};
        return search_key(key, split_lines(v.first), *v.second, state.grid,
                          state.params, cost);
      },
      "search", SearchState{config.rapid, grid});

  // Collect, order deterministically, and write the ML file back.
  phase.emplace(engine.tracer(), "phase", "collect", "driver");
  for (const auto& [key, row] : ml_rows.collect()) {
    result.records.push_back(parse_ml_row(parse_csv_line(row)));
  }
  std::sort(result.records.begin(), result.records.end(),
            [](const MlRecord& a, const MlRecord& b) {
              const auto ka = a.obs.key(), kb = b.obs.key();
              if (ka != kb) return ka < kb;
              if (a.cluster_id != b.cluster_id) {
                return a.cluster_id < b.cluster_id;
              }
              return a.pulse_index < b.pulse_index;
            });
  if (!output_file.empty()) {
    std::ostringstream out;
    write_ml_file(out, result.records);
    store.put(output_file, out.str());
  }

  for (const auto& stage : engine.metrics().stages) {
    if (stage.name == "search") {
      result.spes_scanned = stage.total_compute_cost();
    }
    if (stage.name.rfind("load:" + std::string(cluster_file), 0) == 0) {
      result.clusters_searched = stage.total_records_in();
    }
  }
  phase.reset();
  result.partitions_recovered = cached_data.partitions_recovered();
  result.cache_bytes = cached_data.estimated_bytes();
  result.cache_spilled = cached_data.spilled();
  result.replica_failovers = store.replica_failovers();
  result.metrics = engine.metrics();
  result.wall_seconds = watch.elapsed_seconds();
  run_span.arg("records", static_cast<std::int64_t>(result.records.size()));
  run_span.arg("spes_scanned",
               static_cast<std::int64_t>(result.spes_scanned));
  run_span.arg("partitions_recovered",
               static_cast<std::int64_t>(result.partitions_recovered));
  run_span.arg("replica_failovers",
               static_cast<std::int64_t>(result.replica_failovers));
  return result;
}

}  // namespace drapid
