#include "dataflow/spill.hpp"

#include <cstdint>
#include <filesystem>
#include <fstream>

#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "util/checksum.hpp"

namespace drapid {

namespace {

/// Spill file layout: magic, record count, (klen, k, vlen, v)*, checksum.
/// The trailing checksum covers everything between magic and itself, so any
/// flipped byte — count, a length prefix, or payload — fails validation.
/// The checksum (util/checksum.hpp) is shared with the wire frames and the
/// candidate-archive segment format. The magic's version digit names the
/// checksum, so a file from another version fails on its magic.
constexpr std::uint64_t kSpillMagic = 0x3253504C4C495244ULL;  // "DRILLPS2"
constexpr std::size_t kHeaderBytes = 16;   // magic + count
constexpr std::size_t kTrailerBytes = 8;   // checksum

std::uint64_t read_u64(std::istream& in) {
  std::uint64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}

[[noreturn]] void spill_fail(const std::string& file, const std::string& why) {
  throw SpillError("spill file " + file + ": " + why);
}

/// Damages a freshly-written spill file per the injected fault: flips one
/// byte past the magic (detected by length validation or the checksum) or
/// deletes the file outright.
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
  std::ofstream out(path, std::ios::binary);
  if (!out) throw SpillError("cannot open spill file " + path);
  // Serialize the whole partition into one contiguous buffer and hand the
  // stream a single write, instead of four tiny writes per record that each
  // pay the stream's put-area bookkeeping. The byte layout (and therefore
  // the checksum and the read path) is unchanged.
  std::size_t payload = 0;
  for (const auto& [k, v] : records) payload += k.size() + v.size() + 16;
  std::string buffer;
  buffer.reserve(kHeaderBytes + payload + kTrailerBytes);
  const auto append_u64 = [&buffer](std::uint64_t v) {
    buffer.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  append_u64(kSpillMagic);
  append_u64(records.size());
  for (const auto& [k, v] : records) {
    append_u64(k.size());
    buffer.append(k);
    append_u64(v.size());
    buffer.append(v);
  }
  task.spill_bytes += payload;
  // The checksum streams over exactly the bytes between the magic and
  // itself, so digesting the assembled buffer once equals the reader's
  // field-by-field digest.
  Checksum sum;
  sum.update(buffer.data() + sizeof(kSpillMagic),
             buffer.size() - sizeof(kSpillMagic));
  append_u64(sum.digest());
  out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
  if (!out) throw SpillError("spill write failed: " + path);
  return path;
}

void CachedStringRdd::read_partition(std::size_t p,
                                     std::vector<StringRdd::Pair>& out,
                                     TaskMetrics& task) const {
  const std::string& file = files_[p];
  std::ifstream in(file, std::ios::binary);
  if (!in) spill_fail(file, "missing or unreadable (lost replica?)");
  std::error_code ec;
  const auto file_size =
      static_cast<std::size_t>(std::filesystem::file_size(file, ec));
  if (ec) spill_fail(file, "cannot stat: " + ec.message());
  if (file_size < kHeaderBytes + kTrailerBytes) {
    spill_fail(file, "truncated: " + std::to_string(file_size) +
                         " bytes is smaller than header + checksum");
  }
  if (read_u64(in) != kSpillMagic) {
    spill_fail(file, "bad header magic (not a spill file, or corrupted)");
  }
  // Bytes between the count prefix we are about to read and the trailing
  // checksum; every length prefix is validated against it so a corrupt
  // prefix cannot trigger a multi-GB allocation or a silent short read.
  std::size_t remaining = file_size - 8 - kTrailerBytes;
  const std::uint64_t count = read_u64(in);
  remaining -= 8;
  Checksum checksum;
  checksum.update_u64(count);
  if (count > remaining / 16) {
    spill_fail(file, "record count " + std::to_string(count) +
                         " impossible for " + std::to_string(remaining) +
                         " payload bytes");
  }
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto read_string = [&](const char* what) {
      if (remaining < 8) spill_fail(file, std::string(what) + ": truncated");
      const std::uint64_t len = read_u64(in);
      remaining -= 8;
      if (len > remaining) {
        spill_fail(file, std::string(what) + " length " + std::to_string(len) +
                             " exceeds the " + std::to_string(remaining) +
                             " bytes left in the file");
      }
      std::string s(len, '\0');
      in.read(s.data(), static_cast<std::streamsize>(len));
      remaining -= len;
      checksum.update_u64(len);
      checksum.update(s.data(), s.size());
      return s;
    };
    std::string k = read_string("record key");
    std::string v = read_string("record value");
    task.spill_bytes += k.size() + v.size() + 16;
    out.emplace_back(std::move(k), std::move(v));
  }
  if (remaining != 0) {
    spill_fail(file, std::to_string(remaining) +
                         " unexpected trailing payload bytes");
  }
  if (read_u64(in) != checksum.digest()) {
    spill_fail(file, "checksum mismatch (corrupted on disk)");
  }
  if (!in) spill_fail(file, "read failed");
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

  std::size_t lost_count = 0;
  for (char l : lost) lost_count += l != 0;
  if (lost_count > 0) {
    auto& recover = engine_.begin_stage(name_ + ":recover", lost_count);
    std::size_t slot = 0;
    for (std::size_t p = 0; p < files_.size(); ++p) {
      if (!lost[p]) continue;
      auto& task = recover.tasks[slot++];
      task.partition = p;
      task.attempts = 1;
      rdd.partitions[p] = producer_(p);
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
