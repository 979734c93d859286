#include "dataflow/spill.hpp"

#include <cstdint>
#include <filesystem>
#include <fstream>

#include "dataflow/ipc/wire.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "util/sealed_file.hpp"

namespace drapid {

namespace {

/// A spill file is a sealed file (util/sealed_file.hpp) whose body is the
/// partition in the wire codec: the record count, then each key and value
/// as a u64 length and its bytes. The magic's version digit names the
/// container's checksum, so a file from another version fails on its magic.
constexpr std::uint64_t kSpillMagic = 0x3253504C4C495244ULL;  // "DRILLPS2"

/// Damages a freshly-written spill file per the injected fault: flips one
/// byte past the magic (detected by the checksum) or deletes the file
/// outright.
void apply_spill_fault(const std::string& path, SpillFault fault) {
  namespace fs = std::filesystem;
  if (fault == SpillFault::kLose) {
    std::error_code ec;
    fs::remove(path, ec);
    return;
  }
  if (fault != SpillFault::kCorrupt) return;
  const auto size = static_cast<std::size_t>(fs::file_size(path));
  const std::size_t offset = std::max<std::size_t>(8, size / 2);
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  file.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5a);
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(&byte, 1);
}

}  // namespace

CachedStringRdd::CachedStringRdd(Engine& engine, StringRdd rdd,
                                 const std::string& name, Producer producer)
    : engine_(engine), name_(name), producer_(std::move(producer)) {
  bytes_ = rdd.estimated_bytes();
  partitioner_id_ = rdd.partitioner_id;
  auto& stage = engine_.begin_stage(name_ + ":cache", rdd.num_partitions());
  if (bytes_ <= engine_.config().total_memory_bytes()) {
    in_memory_ = std::move(rdd);
    for (std::size_t p = 0; p < in_memory_.num_partitions(); ++p) {
      // A worker-resident RDD is cached as-is (the pool keeps the bytes);
      // the cache stage still records the counts the local backend sees.
      stage.tasks[p].records_in =
          in_memory_.resident ? pool_set_records(in_memory_.resident, p)
                              : in_memory_.partitions[p].size();
    }
    return;
  }
  spilled_ = true;
  // Spill writes walk the partitions directly, and the spill stage runs
  // without a pool plan (in-process on every backend) — pull any
  // worker-resident partitions back to the driver first.
  ensure_local(rdd);
  files_.resize(rdd.num_partitions());
  engine_.run_stage(stage, [&](TaskContext& ctx) {
    const std::size_t p = ctx.partition();
    auto& task = ctx.metrics();
    files_[p] = write_partition(rdd.partitions[p], task);
    task.records_in = rdd.partitions[p].size();
    rdd.partitions[p].clear();
    rdd.partitions[p].shrink_to_fit();
    // Injected spill damage (corrupt/lose) strikes after a healthy write,
    // the way silent disk corruption does.
    apply_spill_fault(files_[p], engine_.faults().spill_fault(name_, p));
  });
}

std::string CachedStringRdd::write_partition(
    const std::vector<StringRdd::Pair>& records, TaskMetrics& task) const {
  const std::string path = engine_.next_spill_path();
  try {
    write_sealed(path, kSpillMagic, ipc::encode_payload(records));
  } catch (const SealedFileError& e) {
    throw SpillError("spill file " + path + ": " + e.what());
  }
  // Spill traffic is a record's bytes plus its two length words, the same
  // on the write and the read side.
  for (const auto& [k, v] : records) {
    task.spill_bytes += k.size() + v.size() + 16;
  }
  return path;
}

void CachedStringRdd::read_partition(std::size_t p,
                                     std::vector<StringRdd::Pair>& out,
                                     TaskMetrics& task) const {
  const std::string& file = files_[p];
  try {
    out = ipc::decode_payload<StringRdd::Pair>(read_sealed(file, kSpillMagic));
  } catch (const std::runtime_error& e) {
    throw SpillError("spill file " + file + ": " + e.what());
  }
  for (const auto& [k, v] : out) {
    task.spill_bytes += k.size() + v.size() + 16;
  }
  task.records_out = out.size();
}

CachedStringRdd::StringRdd CachedStringRdd::materialize() {
  if (!spilled_) return in_memory_;
  StringRdd rdd;
  rdd.partitions.resize(files_.size());
  rdd.partitioner_id = partitioner_id_;
  auto& stage = engine_.begin_stage(name_ + ":materialize", files_.size());
  std::vector<char> lost(files_.size(), 0);
  engine_.run_stage(stage, [&](TaskContext& ctx) {
    const std::size_t p = ctx.partition();
    try {
      read_partition(p, rdd.partitions[p], ctx.metrics());
    } catch (const SpillError&) {
      // Lineage recovery happens below, outside the parallel phase — the
      // producer may itself run engine stages. Without a producer the
      // partition is unrecoverable: let the descriptive error fly.
      if (!producer_) throw;
      rdd.partitions[p].clear();
      lost[p] = 1;
    }
  });

  std::vector<std::size_t> lost_parts;
  for (std::size_t p = 0; p < lost.size(); ++p) {
    if (lost[p]) lost_parts.push_back(p);
  }
  if (!lost_parts.empty()) {
    auto& recover = engine_.begin_stage(name_ + ":recover", lost_parts.size());
    // One run of the lineage chain recomputes every lost partition.
    auto recomputed = producer_(lost_parts);
    for (std::size_t i = 0; i < lost_parts.size(); ++i) {
      const std::size_t p = lost_parts[i];
      auto& task = recover.tasks[i];
      task.partition = p;
      task.attempts = 1;
      rdd.partitions[p] = std::move(recomputed.at(i));
      detail::record_input(task, rdd.partitions[p]);
      // Re-spill the recomputed partition so later reads are healthy (no
      // fault re-injection: recovery writes are assumed to land).
      files_[p] = write_partition(rdd.partitions[p], task);
      // The failed read counts as a lost attempt of the materialize task.
      stage.tasks[p].attempts += 1;
      stage.tasks[p].retry_cost += stage.tasks[p].compute_cost;
      ++recovered_;
      obs::global_counters().add("spill.recoveries");
      if (engine_.tracer().enabled()) {
        obs::Json args = obs::Json::object();
        args.set("rdd", name_);
        args.set("partition", static_cast<std::int64_t>(p));
        engine_.tracer().instant("spill.recover", std::move(args), "fault");
      }
    }
  }
  return rdd;
}

const CachedStringRdd::StringRdd& CachedStringRdd::borrow() {
  if (!spilled_) return in_memory_;
  if (!restored_) restored_ = materialize();
  return *restored_;
}

}  // namespace drapid
