#include "dataflow/ipc/pool.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/uio.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "dataflow/engine.hpp"
#include "dataflow/ipc/wire.hpp"
#include "obs/counters.hpp"
#include "util/sealed_file.hpp"

namespace drapid {

namespace {

using ipc::FrameKind;
using ipc::FrameView;
using ipc::TaskFrame;
using ipc::WireReader;
using ipc::WireWriter;

constexpr std::uint64_t kDieBeforeFlag = 1;   ///< kTaskAssign flags bit
constexpr std::uint64_t kInputInline = 0;     ///< kTaskAssign input modes
constexpr std::uint64_t kInputResident = 1;

/// Largest single read(2) from a pool socket, parent and worker alike.
constexpr std::size_t kReadChunk = 1 << 20;
/// Most iovecs handed to one sendmsg(2)/writev(2).
constexpr std::size_t kMaxIov = 64;

/// Writes the whole buffer with blocking write(2); child side only.
bool write_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Child side. Runs in the forked worker only; communicates exclusively over
// its socket. Never returns, never calls exit() — _exit() skips atexit
// handlers and stdio flushes that belong to the parent.

struct ChildStage {
  std::string name;
  bool wide = false;
  PoolKernelFn kernel = nullptr;
  std::string state;
  std::uint64_t out_set = 0;
  std::size_t nworkers = 1;
  std::size_t max_attempts = 1;
};

struct ChildState {
  int fd = -1;
  std::size_t slot = 0;
  const FaultInjector* faults = nullptr;
  ChildStage stage;
  std::string shuffle_dir;  ///< the engine's spill directory
  /// Resident partitions: set id -> partition -> serialized payload.
  std::unordered_map<std::uint64_t,
                     std::unordered_map<std::uint64_t, std::string>>
      resident;
};

bool child_send(ChildState& st, const TaskFrame& frame) {
  const std::string bytes = ipc::encode_frame(frame);
  return write_all(st.fd, bytes.data(), bytes.size());
}

/// Vectored send for data-bearing frames: header + payload spans + trailer
/// go out through one writev without concatenating the payload first.
bool child_send_parts(ChildState& st, const TaskFrame& frame,
                      const ipc::FrameSpan* spans, std::size_t num_spans) {
  const ipc::FrameParts parts = ipc::encode_frame_parts(frame, spans,
                                                        num_spans);
  std::vector<iovec> iov;
  iov.reserve(num_spans + 2);
  iov.push_back(iovec{const_cast<char*>(parts.header.data()),
                      parts.header.size()});
  for (std::size_t i = 0; i < num_spans; ++i) {
    if (spans[i].size == 0) continue;
    iov.push_back(iovec{const_cast<char*>(spans[i].data), spans[i].size});
  }
  iov.push_back(iovec{const_cast<char*>(parts.trailer.data()),
                      parts.trailer.size()});
  std::size_t idx = 0;
  std::size_t skip = 0;  // bytes of iov[idx] already written
  while (idx < iov.size()) {
    iovec local[kMaxIov];
    std::size_t n = 0;
    for (std::size_t i = idx; i < iov.size() && n < kMaxIov; ++i, ++n) {
      local[n] = iov[i];
      if (i == idx && skip > 0) {
        local[n].iov_base = static_cast<char*>(local[n].iov_base) + skip;
        local[n].iov_len -= skip;
      }
    }
    const ssize_t written = ::writev(st.fd, local, static_cast<int>(n));
    if (written < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    std::size_t left = static_cast<std::size_t>(written);
    while (left > 0) {
      const std::size_t head = iov[idx].iov_len - skip;
      if (left >= head) {
        left -= head;
        skip = 0;
        idx += 1;
      } else {
        skip += left;
        left = 0;
      }
    }
  }
  return true;
}

void child_handle_stage_begin(ChildState& st, const FrameView& frame) {
  WireReader r(frame.payload, frame.payload_size);
  ChildStage s;
  s.wide = r.get_u64() != 0;
  s.kernel = reinterpret_cast<PoolKernelFn>(
      static_cast<std::uintptr_t>(r.get_u64()));
  s.out_set = r.get_u64();
  s.nworkers = static_cast<std::size_t>(r.get_u64());
  s.max_attempts = static_cast<std::size_t>(r.get_u64());
  ipc::decode_value(r, s.name);
  ipc::decode_value(r, s.state);
  st.stage = std::move(s);
}

/// Runs one assigned task: the kernel, through the engine's attempt loop,
/// resumed after the attempts worker deaths already charged.
void child_handle_assign(ChildState& st, const FrameView& frame) {
  WireReader r(frame.payload, frame.payload_size);
  const std::size_t p = static_cast<std::size_t>(frame.partition);
  const std::size_t attempt_base = static_cast<std::size_t>(r.get_u64());
  const std::uint64_t flags = r.get_u64();
  const std::uint64_t ninputs = r.get_u64();
  if (flags & kDieBeforeFlag) {
    // Planned death: vanish without a frame, mid-"write" as far as the
    // coordinator can tell. SIGKILL is unmaskable, like the real thing.
    ::kill(::getpid(), SIGKILL);
  }
  std::vector<std::string> owned;      // inline payload copies
  std::vector<const std::string*> inputs;
  owned.reserve(static_cast<std::size_t>(ninputs));
  inputs.reserve(static_cast<std::size_t>(ninputs));
  for (std::uint64_t i = 0; i < ninputs; ++i) {
    const std::uint64_t mode = r.get_u64();
    if (mode == kInputInline) {
      std::string bytes;
      ipc::decode_value(r, bytes);
      owned.push_back(std::move(bytes));
      inputs.push_back(&owned.back());
    } else {
      const std::uint64_t set = r.get_u64();
      const std::uint64_t part = r.get_u64();
      inputs.push_back(&st.resident.at(set).at(part));
    }
  }

  ChildStage& stage = st.stage;
  TaskFrame reply;
  reply.partition = p;
  TaskMetrics task;
  task.partition = p;
  std::string out;
  try {
    PoolTaskCtx ctx;
    ctx.partition = p;
    ctx.state = &stage.state;
    ctx.inputs = inputs;
    ctx.metrics = &task;
    detail::run_attempts(*st.faults, stage.name, p, attempt_base,
                         stage.max_attempts, task,
                         [&](std::size_t) { out = stage.kernel(ctx); });
  } catch (const TaskFailure& failure) {
    reply.kind = FrameKind::kError;
    reply.error_kind = ipc::WireErrorKind::kTaskFailure;
    reply.metrics = task;
    reply.payload = failure.what();
    child_send(st, reply);
    ::_exit(0);
  } catch (const std::exception& error) {
    reply.kind = FrameKind::kError;
    reply.error_kind = ipc::WireErrorKind::kRuntime;
    reply.metrics = task;
    reply.payload = error.what();
    child_send(st, reply);
    ::_exit(0);
  }

  // Narrow: the output partition stays here, and the result frame carries
  // the metrics plus the resident size (for the coordinator's gauges), not
  // the data. Wide: the routed segments go to this source's shuffle files,
  // which the owners read at kStageEnd.
  WireWriter w;
  if (stage.wide) {
    pooldetail::write_shuffle_files(st.shuffle_dir, stage.out_set, p,
                                    stage.nworkers, out);
  } else {
    w.put_u64(out.size());
    st.resident[stage.out_set][p] = std::move(out);
  }
  reply.kind = FrameKind::kResult;
  reply.metrics = task;
  reply.payload = w.take();
  if (!child_send(st, reply)) ::_exit(1);
}

/// The barrier. A wide stage's frame names its source and target counts, and
/// this worker assembles the targets it owns from the stage's shuffle files;
/// a narrow stage's names no targets.
void child_handle_stage_end(ChildState& st, const FrameView& frame) {
  WireReader r(frame.payload, frame.payload_size);
  const std::size_t sources = static_cast<std::size_t>(r.get_u64());
  const std::size_t targets = static_cast<std::size_t>(r.get_u64());
  const ChildStage& stage = st.stage;
  std::vector<pooldetail::TargetAssembly> owned = pooldetail::assemble_targets(
      st.shuffle_dir, stage.out_set, sources, stage.nworkers, st.slot,
      targets);
  WireWriter w;
  w.put_u64(owned.size());
  for (std::size_t i = 0; i < owned.size(); ++i) {
    const std::size_t t = st.slot + i * stage.nworkers;
    w.put_u64(t);
    w.put_u64(owned[i].bytes.size());
    w.put_u64(owned[i].records);
    st.resident[stage.out_set][t] = std::move(owned[i].bytes);
  }
  TaskFrame ack;
  ack.kind = FrameKind::kAck;
  ack.payload = w.take();
  if (!child_send(st, ack)) ::_exit(1);
}

void child_handle_fetch(ChildState& st, const FrameView& frame) {
  WireReader r(frame.payload, frame.payload_size);
  const std::uint64_t set = r.get_u64();
  const std::uint64_t part = r.get_u64();
  const auto set_it = st.resident.find(set);
  const std::string* bytes = nullptr;
  if (set_it != st.resident.end()) {
    const auto part_it = set_it->second.find(part);
    if (part_it != set_it->second.end()) bytes = &part_it->second;
  }
  if (bytes == nullptr) {
    TaskFrame err;
    err.kind = FrameKind::kError;
    err.error_kind = ipc::WireErrorKind::kRuntime;
    err.payload = "pool worker: fetch of non-resident partition set=" +
                  std::to_string(set) + " p=" + std::to_string(part);
    child_send(st, err);
    ::_exit(1);
  }
  TaskFrame data;
  data.kind = FrameKind::kData;
  data.partition = part;
  WireWriter meta;
  meta.put_u64(set);
  meta.put_u64(part);
  meta.put_u64(bytes->size());
  const ipc::FrameSpan spans[2] = {
      {meta.buffer().data(), meta.buffer().size()},
      {bytes->data(), bytes->size()}};
  if (!child_send_parts(st, data, spans, 2)) ::_exit(1);
}

[[noreturn]] void child_main(int fd, std::size_t slot,
                             const FaultInjector& faults,
                             const std::string& shuffle_dir) {
  ::signal(SIGPIPE, SIG_IGN);
  ChildState st;
  st.fd = fd;
  st.slot = slot;
  st.faults = &faults;
  st.shuffle_dir = shuffle_dir;
  pooldetail::RecvBuffer buffer;
  while (true) {
    const ssize_t n = buffer.read_from(fd);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::_exit(1);
    }
    if (n == 0) ::_exit(0);  // parent vanished
    while (true) {
      FrameView frame;
      std::size_t consumed = 0;
      const auto status = ipc::try_decode_frame(buffer.data(), buffer.size(),
                                                frame, consumed);
      if (status == ipc::DecodeStatus::kIncomplete) break;
      if (status == ipc::DecodeStatus::kCorrupt) ::_exit(1);
      try {
        switch (frame.kind) {
          case FrameKind::kStageBegin:
            child_handle_stage_begin(st, frame);
            break;
          case FrameKind::kTaskAssign:
            child_handle_assign(st, frame);
            break;
          case FrameKind::kStageEnd:
            child_handle_stage_end(st, frame);
            break;
          case FrameKind::kFetch:
            child_handle_fetch(st, frame);
            break;
          case FrameKind::kRelease: {
            WireReader r(frame.payload, frame.payload_size);
            const std::uint64_t set = r.get_u64();
            st.resident.erase(set);
            break;
          }
          case FrameKind::kShutdown:
            ::_exit(0);
          default:
            ::_exit(1);  // protocol violation
        }
      } catch (const std::exception& error) {
        TaskFrame err;
        err.kind = FrameKind::kError;
        err.error_kind = ipc::WireErrorKind::kRuntime;
        err.payload = std::string("pool worker: ") + error.what();
        child_send(st, err);
        ::_exit(1);
      }
      buffer.consume(consumed);
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// RecvBuffer: both ends' socket reads.

namespace pooldetail {

ssize_t RecvBuffer::read_from(int fd) {
  if (cap_ - end_ < kReadChunk) {
    const std::size_t pending = end_ - begin_;
    if (cap_ - pending >= kReadChunk) {
      std::memmove(buf_.get(), buf_.get() + begin_, pending);
    } else {
      // Grow geometrically: a frame larger than one read is assembled in
      // place across reads, in amortized linear time.
      const std::size_t cap = std::max(2 * cap_, pending + kReadChunk);
      auto grown = std::make_unique_for_overwrite<char[]>(cap);
      if (pending > 0) std::memcpy(grown.get(), buf_.get() + begin_, pending);
      buf_ = std::move(grown);
      cap_ = cap;
    }
    begin_ = 0;
    end_ = pending;
  }
  const ssize_t n = ::read(fd, buf_.get() + end_, kReadChunk);
  if (n > 0) end_ += static_cast<std::size_t>(n);
  return n;
}

void RecvBuffer::consume(std::size_t n) {
  begin_ += n;
  if (begin_ == end_) begin_ = end_ = 0;
}

void RecvBuffer::clear() {
  buf_.reset();
  cap_ = begin_ = end_ = 0;
}

// ---------------------------------------------------------------------------
// Shuffle files: a wide stage's map outputs. The routing kernel returns its
// output as a segment bundle (detail::encode_bundle):
//   u64 num_targets, then per target: u64 record_count, u64 seg_size, bytes
// where the segment bytes are the target's records encoded back to back (no
// count prefix). The source task splits it by owning slot into sealed files
// (util/sealed_file.hpp), one per (source, slot), whose body is
//   u64 num_segments, then per nonempty segment: u64 target,
//   u64 record_count, u64 seg_size, bytes
// A target is assembled as u64 total_count + concat(its segments in source
// order), byte-identical to ipc::encode_payload of the same records.

namespace {

/// "DRSHUFF2"; like the spill magic, the digit names the container's
/// checksum version.
constexpr std::uint64_t kShuffleMagic = 0x3246465548535244ULL;

std::string shuffle_path(const std::string& dir, std::uint64_t set,
                         std::size_t source, std::size_t slot) {
  return dir + "/shuffle_" + std::to_string(set) + "_" +
         std::to_string(source) + "_" + std::to_string(slot) + ".bin";
}

}  // namespace

void write_shuffle_files(const std::string& dir, std::uint64_t set,
                         std::size_t source, std::size_t workers,
                         const std::string& bundle) {
  std::vector<WireWriter> bodies(workers);
  std::vector<std::uint64_t> segments(workers, 0);
  for (auto& body : bodies) body.put_u64(0);  // the count, patched below
  WireReader r(bundle);
  const std::uint64_t targets = r.get_u64();
  for (std::uint64_t t = 0; t < targets; ++t) {
    const std::uint64_t count = r.get_u64();
    const std::uint64_t size = r.get_u64();
    const char* data = r.get_bytes(static_cast<std::size_t>(size));
    if (count == 0 && size == 0) continue;
    WireWriter& body = bodies[t % workers];
    body.put_u64(t);
    body.put_u64(count);
    body.put_u64(size);
    body.put_bytes(data, static_cast<std::size_t>(size));
    segments[t % workers] += 1;
  }
  if (!r.done()) throw ipc::WireError("segment bundle has trailing bytes");
  for (std::size_t slot = 0; slot < workers; ++slot) {
    std::string body = bodies[slot].take();
    std::memcpy(body.data(), &segments[slot], sizeof(std::uint64_t));
    const std::string path = shuffle_path(dir, set, source, slot);
    try {
      write_sealed(path, kShuffleMagic, body);
    } catch (const SealedFileError& e) {
      throw std::runtime_error("shuffle file " + path + ": " + e.what());
    }
  }
}

std::vector<TargetAssembly> assemble_targets(const std::string& dir,
                                             std::uint64_t set,
                                             std::size_t sources,
                                             std::size_t workers,
                                             std::size_t slot,
                                             std::size_t targets) {
  std::vector<TargetAssembly> owned(
      slot < targets ? (targets - slot + workers - 1) / workers : 0);
  if (owned.empty()) return owned;
  for (auto& target : owned) target.bytes.assign(sizeof(std::uint64_t), '\0');
  for (std::size_t source = 0; source < sources; ++source) {
    const std::string path = shuffle_path(dir, set, source, slot);
    try {
      const std::string body = read_sealed(path, kShuffleMagic);
      WireReader r(body);
      for (std::uint64_t n = r.get_u64(); n > 0; --n) {
        const std::uint64_t t = r.get_u64();
        const std::uint64_t count = r.get_u64();
        const std::uint64_t size = r.get_u64();
        const char* data = r.get_bytes(static_cast<std::size_t>(size));
        if (t >= targets || t % workers != slot) {
          throw ipc::WireError("segment for target " + std::to_string(t) +
                               ", which the file's slot does not own");
        }
        TargetAssembly& target = owned[t / workers];
        target.records += count;
        target.bytes.append(data, static_cast<std::size_t>(size));
      }
      if (!r.done()) throw ipc::WireError("trailing bytes");
    } catch (const std::runtime_error& e) {
      throw std::runtime_error("shuffle file " + path + ": " + e.what());
    }
  }
  for (auto& target : owned) {
    std::memcpy(target.bytes.data(), &target.records, sizeof(target.records));
  }
  return owned;
}

void remove_shuffle_files(const std::string& dir, std::uint64_t set,
                          std::size_t sources, std::size_t workers) {
  std::error_code ec;  // best effort: the directory goes with the engine
  for (std::size_t source = 0; source < sources; ++source) {
    for (std::size_t slot = 0; slot < workers; ++slot) {
      std::filesystem::remove(shuffle_path(dir, set, source, slot), ec);
    }
  }
}

}  // namespace pooldetail

// ---------------------------------------------------------------------------
// PoolSet handle + engine-free accessors (declared in executor.hpp).

PoolSet::~PoolSet() {
  if (auto locked = core.lock()) locked->release(id);
}

std::string pool_fetch(const std::shared_ptr<PoolSet>& set,
                       std::size_t partition) {
  auto core = set ? set->core.lock() : nullptr;
  if (!core) {
    throw std::runtime_error(
        "pool_fetch: resident set outlived its engine's pool registry");
  }
  return core->fetch(set->id, partition);
}

std::size_t pool_set_estimated_bytes(const std::shared_ptr<PoolSet>& set) {
  auto core = set ? set->core.lock() : nullptr;
  return core ? core->set_estimated_bytes(set->id) : 0;
}

std::size_t pool_set_records(const std::shared_ptr<PoolSet>& set,
                             std::size_t partition) {
  auto core = set ? set->core.lock() : nullptr;
  return core ? core->set_records(set->id, partition) : 0;
}

// ---------------------------------------------------------------------------
// PoolRegistryCore.

std::string PoolRegistryCore::fetch(std::uint64_t set, std::size_t partition) {
  auto it = sets_.find(set);
  if (it == sets_.end()) {
    throw std::runtime_error("pool registry: unknown set " +
                             std::to_string(set));
  }
  pooldetail::PartState& part = it->second.parts.at(partition);
  if (!part.parent_bytes.empty()) return part.parent_bytes;
  if (part.owner >= 0 && pool_ != nullptr) {
    std::string bytes;
    if (pool_->fetch_from_worker(static_cast<std::size_t>(part.owner), set,
                                 partition, bytes)) {
      // Cache the parent copy: narrow rebuilds may read it again.
      part.parent_bytes = std::move(bytes);
      return part.parent_bytes;
    }
    // The holder died mid-fetch; its parts were marked dead. Fall through.
  }
  return rebuild(set, partition);
}

std::string PoolRegistryCore::rebuild(std::uint64_t set,
                                      std::size_t partition) {
  pooldetail::SetState& s = sets_.at(set);
  obs::global_counters().add("engine.pool_rebuilds");
  if (s.kind == PoolStagePlan::Kind::kWide) {
    // The set's lineage is its shuffle files. The dead owner took every
    // target of its slot with it; they come back together, assembled from
    // the slot's files by the routine owners run at kStageEnd.
    const std::size_t workers = pool_->nworkers_;
    const std::size_t slot = partition % workers;
    std::vector<pooldetail::TargetAssembly> rebuilt =
        pooldetail::assemble_targets(pool_->engine_.spill_dir(), set,
                                     s.sources, workers, slot, s.parts.size());
    for (std::size_t i = 0; i < rebuilt.size(); ++i) {
      pooldetail::PartState& part = s.parts[slot + i * workers];
      part.records = static_cast<std::size_t>(rebuilt[i].records);
      part.parent_bytes = std::move(rebuilt[i].bytes);
      part.bytes = part.parent_bytes.size();
    }
    return s.parts[partition].parent_bytes;
  }
  // Narrow: re-run the task's kernel. Chain-head bytes are read in place;
  // other sets' partitions are fetched.
  const auto& refs = s.task_inputs.at(partition);
  std::vector<std::string> fetched(refs.size());
  TaskMetrics scratch;  // lineage rebuilds charge no attempts, draw no faults
  PoolTaskCtx ctx;
  ctx.partition = partition;
  ctx.state = &s.state;
  ctx.metrics = &scratch;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    if (refs[i].set == 0) {
      ctx.inputs.push_back(refs[i].bytes.get());
      continue;
    }
    fetched[i] = fetch(refs[i].set, refs[i].partition);
    ctx.inputs.push_back(&fetched[i]);
  }
  pooldetail::PartState& part = s.parts.at(partition);
  part.parent_bytes = s.kernel(ctx);
  part.bytes = part.parent_bytes.size();
  return part.parent_bytes;
}

std::size_t PoolRegistryCore::set_estimated_bytes(std::uint64_t set) const {
  const auto it = sets_.find(set);
  return it == sets_.end() ? 0 : it->second.estimated_bytes;
}

std::size_t PoolRegistryCore::set_records(std::uint64_t set,
                                          std::size_t partition) const {
  const auto it = sets_.find(set);
  if (it == sets_.end()) return 0;
  return it->second.parts.at(partition).records;
}

void PoolRegistryCore::release(std::uint64_t set) {
  const auto it = sets_.find(set);
  if (it == sets_.end()) return;
  const std::size_t sources = it->second.sources;
  sets_.erase(it);
  if (pool_ != nullptr) pool_->release(set, sources);
}

// ---------------------------------------------------------------------------
// WorkerPool: the parent (coordinator) side.

/// Book-keeping of the one pooled stage currently in flight.
struct WorkerPool::StageCtx {
  struct Task {
    std::size_t partition = 0;
    /// Attempts already charged by deaths of this task's worker slot; the
    /// child's attempt loop resumes here.
    std::size_t attempt_base = 0;
  };

  StageCtx(StageMetrics& s, const PoolStagePlan& p) : stage(s), plan(p) {}

  StageMetrics& stage;
  const PoolStagePlan& plan;
  bool wide = false;
  std::uint64_t out_set = 0;
  pooldetail::SetState* out_state = nullptr;
  std::size_t ntasks = 0;
  std::size_t nparts = 0;
  std::size_t max_attempts = 1;
  std::size_t completed = 0;
  std::vector<std::vector<PoolInputRef>> inputs;  ///< per task, resolved once
  std::vector<std::vector<Task>> assigned;        ///< per slot, unfinished
  std::vector<std::size_t> death_attempts;        ///< per task
  std::vector<std::size_t> stage_deaths;          ///< per slot, this stage
  std::vector<std::size_t> task_slot;             ///< per task
  /// Slots respawned since the last drain; their pending tasks need
  /// re-dispatch. A flag per slot, not a queue: the pending list is the
  /// authority, and a second death before the drain must not double-send.
  std::vector<bool> need_reassign;
  bool ending = false;        ///< kStageEnd sent, awaiting acks
  std::vector<bool> acked;    ///< per slot (barrier bookkeeping)
};

WorkerPool::WorkerPool(Engine& engine, std::size_t workers)
    : engine_(engine),
      nworkers_(std::max<std::size_t>(1, workers)),
      core_(std::make_shared<PoolRegistryCore>()) {
  core_->pool_ = this;
  workers_.resize(nworkers_);
  for (std::size_t i = 0; i < nworkers_; ++i) workers_[i].slot = i;
}

WorkerPool::~WorkerPool() {
  shutdown();
  core_->pool_ = nullptr;
}

void WorkerPool::spawn(PoolWorker& w) {
  int fds[2];
  // Close-on-exec: a program the host execs later must not inherit the
  // parent side, or a worker would never see EOF if the coordinator died.
  // The workers themselves are forked, not exec'd, so they keep theirs.
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    throw std::runtime_error(std::string("socketpair failed: ") +
                             std::strerror(errno));
  }
  // Everything the child must NOT hold open: the other live workers'
  // parent-side sockets (an inherited duplicate would mask a sibling's
  // EOF) and its own parent side.
  std::vector<int> close_fds;
  for (const auto& other : workers_) {
    if (other.alive && other.fd >= 0) close_fds.push_back(other.fd);
  }
  close_fds.push_back(fds[0]);
  if (w.ever_spawned) w.incarnation += 1;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error(std::string("fork failed: ") +
                             std::strerror(errno));
  }
  if (pid == 0) {
    for (int fd : close_fds) ::close(fd);
    child_main(fds[1], w.slot, engine_.faults_, engine_.spill_dir());
  }
  ::close(fds[1]);
  // Parent side is nonblocking both ways: the pump must never block in a
  // write while a child is blocked writing to us (classic pipe deadlock),
  // and a stale poll event after a mid-loop respawn must read EAGAIN, not
  // hang.
  const int fl = ::fcntl(fds[0], F_GETFL, 0);
  ::fcntl(fds[0], F_SETFL, fl | O_NONBLOCK);
  w.pid = pid;
  w.fd = fds[0];
  w.alive = true;
  w.ever_spawned = true;
  w.inbuf.clear();
  w.outq.clear();
  w.outpos = 0;
  engine_.workers_forked_counter_.add();
}

void WorkerPool::ensure_spawned(StageMetrics* stage) {
  std::size_t reused = 0;
  for (const auto& w : workers_) reused += w.alive ? 1 : 0;
  for (auto& w : workers_) {
    if (w.alive) continue;
    spawn(w);
    if (stage != nullptr) stage->workers_used += 1;
  }
  if (stage != nullptr) stage->pool_reuses += reused;
  spawned_ = true;
  update_gauge();
}

void WorkerPool::retire(PoolWorker& w) {
  if (w.fd >= 0) ::close(w.fd);
  w.fd = -1;
  w.alive = false;
  w.inbuf.clear();
  w.outq.clear();
  w.outpos = 0;
  if (w.pid > 0) {
    int status = 0;
    ::waitpid(w.pid, &status, 0);
  }
}

void WorkerPool::handle_death(PoolWorker& w) {
  const std::size_t slot = w.slot;
  const std::size_t incarnation = w.incarnation;
  retire(w);
  update_gauge();
  // Everything resident on that worker is gone; lineage rebuild covers it.
  for (auto& entry : core_->sets_) {
    for (auto& part : entry.second.parts) {
      if (part.owner == static_cast<int>(slot)) {
        part.owner = pooldetail::PartState::kNone;
      }
    }
  }
  for (auto* f : fetches_) {
    if (f->slot == slot) f->failed = true;
  }
  engine_.worker_deaths_counter_.add();
  if (engine_.tracer_.enabled()) {
    obs::Json args = obs::Json::object();
    args.set("stage", ctx_ != nullptr ? ctx_->stage.name : std::string());
    args.set("worker", static_cast<std::int64_t>(slot));
    args.set("incarnation", static_cast<std::int64_t>(incarnation));
    args.set("tasks_lost",
             static_cast<std::int64_t>(
                 ctx_ != nullptr ? ctx_->assigned[slot].size() : 0));
    engine_.tracer_.instant("worker.death", std::move(args), "fault");
  }
  if (ctx_ == nullptr) return;  // death between stages; respawn lazily
  StageCtx& ctx = *ctx_;
  ctx.stage.worker_deaths += 1;
  ctx.stage_deaths[slot] += 1;
  if (ctx.ending) {
    // All tasks were absorbed before the barrier; nothing to re-run. Its
    // wide targets are reassembled from the shuffle files when next read.
    ctx.acked[slot] = true;
    return;
  }
  // Every unfinished task is charged one attempt — the same price as an
  // injected task kill under the local backend. A task whose budget this
  // spends fails in its attempt loop on the replacement worker.
  auto& pending = ctx.assigned[slot];
  for (auto& t : pending) {
    t.attempt_base += 1;
    ctx.death_attempts[t.partition] += 1;
    engine_.retries_counter_.add();
    if (engine_.tracer_.enabled()) {
      obs::Json args = obs::Json::object();
      args.set("stage", ctx.stage.name);
      args.set("partition", static_cast<std::int64_t>(t.partition));
      args.set("attempt", static_cast<std::int64_t>(t.attempt_base - 1));
      engine_.tracer_.instant("task.retry", std::move(args), "fault");
    }
  }
  if (pending.empty()) return;  // nothing to redo; respawn lazily
  spawn(w);
  ctx.stage.workers_used += 1;
  ctx.stage.worker_respawns += 1;
  update_gauge();
  send_stage_begin(w);
  // Reassignment is deferred: we may be deep inside a pump dispatch here,
  // and re-dispatch needs input re-resolution (possibly fetches, i.e. more
  // pumping), which must only happen from the top-level wait loop.
  ctx.need_reassign[slot] = true;
}

void WorkerPool::count_ipc(std::size_t bytes) {
  engine_.ipc_bytes_counter_.add(static_cast<std::int64_t>(bytes));
  if (ctx_ != nullptr) ctx_->stage.ipc_bytes += bytes;
}

void WorkerPool::enqueue(PoolWorker& w,
                         std::vector<pooldetail::OutChunk> chunks) {
  if (!w.alive) return;  // death recovery re-dispatches separately
  std::size_t bytes = 0;
  for (auto& chunk : chunks) {
    const std::size_t size = chunk.bytes().size();
    if (size == 0) continue;
    bytes += size;
    w.outq.push_back(std::move(chunk));
  }
  count_ipc(bytes);
  flush(w);
}

void WorkerPool::enqueue(PoolWorker& w, std::string frame) {
  std::vector<pooldetail::OutChunk> chunks(1);
  chunks[0].owned = std::move(frame);
  enqueue(w, std::move(chunks));
}

void WorkerPool::flush(PoolWorker& w) {
  while (w.alive && !w.outq.empty()) {
    iovec iov[kMaxIov];
    std::size_t n = 0;
    std::size_t skip = w.outpos;  // resume mid-chunk after a partial write
    for (auto it = w.outq.begin(); it != w.outq.end() && n < kMaxIov; ++it) {
      const std::string_view bytes = it->bytes();
      iov[n].iov_base = const_cast<char*>(bytes.data() + skip);
      iov[n].iov_len = bytes.size() - skip;
      skip = 0;
      ++n;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = n;
    const ssize_t sent = ::sendmsg(w.fd, &msg, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      // The worker is gone, but frames it sent before dying (a task's
      // result or error) may still be unread. Stop sending — the shutdown
      // also ends a worker that somehow lives on — and let the read side
      // handle the death once it has dispatched them.
      ::shutdown(w.fd, SHUT_WR);
      w.outq.clear();
      w.outpos = 0;
      return;
    }
    std::size_t left = static_cast<std::size_t>(sent);
    while (left > 0) {
      const std::size_t head = w.outq.front().bytes().size() - w.outpos;
      if (left < head) {
        w.outpos += left;
        break;
      }
      left -= head;
      w.outq.pop_front();
      w.outpos = 0;
    }
  }
}

void WorkerPool::pump() {
  std::vector<pollfd> fds;
  std::vector<std::size_t> slots;
  for (const auto& w : workers_) {
    if (!w.alive) continue;
    short events = POLLIN;
    if (!w.outq.empty()) events |= POLLOUT;
    fds.push_back(pollfd{w.fd, events, 0});
    slots.push_back(w.slot);
  }
  if (fds.empty()) {
    throw std::runtime_error(
        "worker pool: all workers dead with work outstanding");
  }
  const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), -1);
  if (rc < 0) {
    if (errno == EINTR) return;
    throw std::runtime_error(std::string("poll failed: ") +
                             std::strerror(errno));
  }
  for (std::size_t i = 0; i < fds.size(); ++i) {
    PoolWorker& w = workers_[slots[i]];
    // A dispatch earlier in this loop may have retired (and respawned) this
    // slot; a reused fd number then reads EAGAIN harmlessly.
    if (!w.alive || w.fd != fds[i].fd) continue;
    if (fds[i].revents & POLLOUT) flush(w);
    if (!w.alive || w.fd != fds[i].fd) continue;
    if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) read_and_dispatch(w);
  }
}

void WorkerPool::read_and_dispatch(PoolWorker& w) {
  const int fd = w.fd;
  const ssize_t n = w.inbuf.read_from(fd);
  if (n < 0) {
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) return;
    handle_death(w);
    return;
  }
  if (n == 0) {
    // EOF. Anything left in the buffer is a frame the worker died
    // mid-write; handle_death treats the remnant like the SIGKILL it
    // probably was.
    handle_death(w);
    return;
  }
  while (true) {
    FrameView frame;
    std::size_t consumed = 0;
    const auto status = ipc::try_decode_frame(w.inbuf.data(), w.inbuf.size(),
                                              frame, consumed);
    if (status == ipc::DecodeStatus::kIncomplete) return;
    if (status == ipc::DecodeStatus::kCorrupt) {
      // A worker emitting garbage is as dead as one that vanished: kill it
      // for real, then recover through the same path.
      ::kill(w.pid, SIGKILL);
      handle_death(w);
      return;
    }
    dispatch_frame(w, frame, consumed);
    // A dispatch that retired this slot also dropped its buffer.
    if (!w.alive || w.fd != fd) return;
    w.inbuf.consume(consumed);
  }
}

void WorkerPool::dispatch_frame(PoolWorker& w, const FrameView& frame,
                                std::size_t consumed) {
  count_ipc(consumed);
  switch (frame.kind) {
    case FrameKind::kError: {
      const std::string message(frame.payload, frame.payload_size);
      if (frame.error_kind == ipc::WireErrorKind::kTaskFailure) {
        // Every attempt that no worker death charged was an injected kill,
        // the last one included.
        const std::size_t p = static_cast<std::size_t>(frame.partition);
        if (ctx_ != nullptr && p < ctx_->ntasks) {
          engine_.retries_counter_.add(static_cast<std::int64_t>(
              frame.metrics.attempts - ctx_->death_attempts[p]));
        }
        engine_.failures_counter_.add();
        throw TaskFailure(message);
      }
      throw std::runtime_error(message);
    }

    case FrameKind::kResult: {
      if (ctx_ == nullptr) {
        throw std::runtime_error("worker pool: result frame outside a stage");
      }
      StageCtx& ctx = *ctx_;
      const std::size_t p = static_cast<std::size_t>(frame.partition);
      auto& pending = ctx.assigned[w.slot];
      const auto it = std::find_if(
          pending.begin(), pending.end(),
          [&](const StageCtx::Task& t) { return t.partition == p; });
      if (p >= ctx.ntasks || it == pending.end()) {
        throw std::runtime_error("worker pool: worker " +
                                 std::to_string(w.slot) +
                                 " returned unassigned partition " +
                                 std::to_string(p));
      }
      ctx.stage.tasks[p] = frame.metrics;
      ctx.stage.tasks[p].partition = p;
      ctx.out_state->estimated_bytes += frame.metrics.bytes_out;
      engine_.tasks_counter_.add();
      // attempts = 1 clean run + death-charged attempts + injected kills
      // the child drew; credit the injected share to the retry counter
      // (deaths were credited when they happened).
      const std::size_t base = 1 + ctx.death_attempts[p];
      if (frame.metrics.attempts > base) {
        engine_.retries_counter_.add(
            static_cast<std::int64_t>(frame.metrics.attempts - base));
      }
      if (!ctx.wide) {
        ipc::WireReader r(frame.payload, frame.payload_size);
        pooldetail::PartState& part = ctx.out_state->parts[p];
        part.owner = static_cast<int>(w.slot);
        part.bytes = static_cast<std::size_t>(r.get_u64());
        part.records = frame.metrics.records_out;
      }
      pending.erase(it);
      ctx.completed += 1;
      break;
    }

    case FrameKind::kAck: {
      if (ctx_ == nullptr || !ctx_->ending) {
        throw std::runtime_error("worker pool: stray stage-end ack");
      }
      StageCtx& ctx = *ctx_;
      ipc::WireReader r(frame.payload, frame.payload_size);
      const std::uint64_t n = r.get_u64();
      for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t t = r.get_u64();
        pooldetail::PartState& part = ctx.out_state->parts.at(
            static_cast<std::size_t>(t));
        part.owner = static_cast<int>(w.slot);
        part.bytes = static_cast<std::size_t>(r.get_u64());
        part.records = static_cast<std::size_t>(r.get_u64());
      }
      ctx.acked[w.slot] = true;
      break;
    }

    case FrameKind::kData: {
      ipc::WireReader r(frame.payload, frame.payload_size);
      const std::uint64_t set = r.get_u64();
      const std::uint64_t part = r.get_u64();
      const std::uint64_t size = r.get_u64();
      const char* data = r.get_bytes(static_cast<std::size_t>(size));
      for (auto* f : fetches_) {
        if (!f->done && !f->failed && f->set == set &&
            f->partition == static_cast<std::size_t>(part)) {
          f->bytes.assign(data, static_cast<std::size_t>(size));
          f->done = true;
          break;
        }
      }
      break;
    }

    default:
      throw std::runtime_error("worker pool: unexpected frame kind " +
                               std::to_string(static_cast<std::uint64_t>(
                                   frame.kind)) +
                               " from worker " + std::to_string(w.slot));
  }
}

bool WorkerPool::fetch_from_worker(std::size_t slot, std::uint64_t set,
                                   std::size_t partition, std::string& out) {
  PoolWorker& w = workers_[slot];
  if (!w.alive) return false;
  Fetch f;
  f.set = set;
  f.partition = partition;
  f.slot = slot;
  fetches_.push_back(&f);
  ipc::TaskFrame req;
  req.kind = FrameKind::kFetch;
  req.partition = partition;
  WireWriter pw;
  pw.put_u64(set);
  pw.put_u64(partition);
  req.payload = pw.take();
  enqueue(w, ipc::encode_frame(req));
  try {
    while (!f.done && !f.failed) pump();
  } catch (...) {
    fetches_.erase(std::find(fetches_.begin(), fetches_.end(), &f));
    throw;
  }
  fetches_.erase(std::find(fetches_.begin(), fetches_.end(), &f));
  if (f.failed) return false;
  out = std::move(f.bytes);
  return true;
}

void WorkerPool::send_stage_begin(PoolWorker& w) {
  StageCtx& ctx = *ctx_;
  ipc::TaskFrame frame;
  frame.kind = FrameKind::kStageBegin;
  WireWriter pw;
  pw.put_u64(ctx.wide ? 1 : 0);
  pw.put_u64(static_cast<std::uint64_t>(
      reinterpret_cast<std::uintptr_t>(ctx.plan.kernel)));
  pw.put_u64(ctx.out_set);
  pw.put_u64(nworkers_);
  pw.put_u64(ctx.max_attempts);
  ipc::encode_value(pw, ctx.stage.name);
  ipc::encode_value(pw, ctx.plan.state);
  frame.payload = pw.take();
  enqueue(w, ipc::encode_frame(frame));
}

void WorkerPool::send_assign(PoolWorker& w, std::size_t task,
                             std::size_t attempt_base, bool die_before) {
  StageCtx& ctx = *ctx_;
  // Resolve each declared input against current residency: a partition
  // already resident on the assignee rides as a (set, partition) marker;
  // everything else ships inline — chain-head bytes, the parent cache, or a
  // lineage rebuild if the holder died. The frame is queued as chunks:
  // header words accumulate in small owned chunks and every inline payload
  // is sent by reference, so no payload byte is copied on the way out.
  std::vector<pooldetail::OutChunk> chunks(1);  // [0] = frame header
  const auto put_u64 = [&chunks](std::uint64_t v) {
    if (chunks.size() == 1 || chunks.back().shared) chunks.emplace_back();
    chunks.back().owned.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  const auto& refs = ctx.inputs[task];
  put_u64(attempt_base);
  put_u64(die_before ? kDieBeforeFlag : 0);
  put_u64(refs.size());
  for (const auto& ref : refs) {
    std::shared_ptr<const std::string> payload = ref.inline_bytes;
    if (ref.set) {
      const pooldetail::PartState& part =
          core_->sets_.at(ref.set->id).parts.at(ref.partition);
      if (part.owner == static_cast<int>(w.slot) && w.alive) {
        put_u64(kInputResident);
        put_u64(ref.set->id);
        put_u64(ref.partition);
        continue;
      }
      // May pump (fetch from another worker) and even observe this very
      // worker dying; enqueue below then drops the frame and the death
      // path re-dispatches the task with a bumped attempt_base.
      payload = std::make_shared<const std::string>(
          core_->fetch(ref.set->id, ref.partition));
    }
    put_u64(kInputInline);
    put_u64(payload->size());
    chunks.emplace_back().shared = std::move(payload);
  }
  std::vector<ipc::FrameSpan> spans;
  spans.reserve(chunks.size() - 1);
  for (std::size_t i = 1; i < chunks.size(); ++i) {
    const std::string_view bytes = chunks[i].bytes();
    spans.push_back({bytes.data(), bytes.size()});
  }
  ipc::FrameHeader frame;
  frame.kind = FrameKind::kTaskAssign;
  frame.partition = task;
  ipc::FrameParts parts =
      ipc::encode_frame_parts(frame, spans.data(), spans.size());
  chunks[0].owned = std::move(parts.header);
  chunks.emplace_back().owned = std::move(parts.trailer);
  enqueue(w, std::move(chunks));
}

void WorkerPool::broadcast(FrameKind kind, std::string payload) {
  ipc::TaskFrame frame;
  frame.kind = kind;
  frame.payload = std::move(payload);
  const std::string bytes = ipc::encode_frame(frame);
  for (auto& w : workers_) {
    if (w.alive) enqueue(w, bytes);
  }
}

void WorkerPool::drain_reassign() {
  StageCtx& ctx = *ctx_;
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t slot = 0; slot < nworkers_; ++slot) {
      if (!ctx.need_reassign[slot]) continue;
      ctx.need_reassign[slot] = false;
      progress = true;
      PoolWorker& w = workers_[slot];
      if (!w.alive) continue;  // died again; its next respawn re-flags
      const std::size_t deaths = ctx.stage_deaths[slot];
      const std::vector<StageCtx::Task> snapshot = ctx.assigned[slot];
      for (const auto& t : snapshot) {
        // A death during one of these sends re-flags the slot; stop so the
        // next round re-dispatches everything to the new incarnation once.
        if (ctx.stage_deaths[slot] != deaths) break;
        send_assign(w, t.partition, t.attempt_base, false);
      }
    }
  }
}

std::shared_ptr<PoolSet> WorkerPool::run_stage(StageMetrics& stage,
                                               const PoolStagePlan& plan) {
  ensure_spawned(&stage);

  StageCtx ctx(stage, plan);
  ctx.wide = plan.kind == PoolStagePlan::Kind::kWide;
  ctx.ntasks = stage.tasks.size();
  ctx.nparts = ctx.wide ? plan.num_targets : ctx.ntasks;
  ctx.max_attempts =
      std::max<std::size_t>(1, engine_.config_.max_task_attempts);
  ctx.inputs.resize(ctx.ntasks);
  ctx.assigned.resize(nworkers_);
  ctx.death_attempts.assign(ctx.ntasks, 0);
  ctx.stage_deaths.assign(nworkers_, 0);
  ctx.task_slot.assign(ctx.ntasks, 0);
  ctx.need_reassign.assign(nworkers_, false);
  ctx.acked.assign(nworkers_, false);

  // Register the output set up front: lineage is recorded before anything
  // runs, so recovery never depends on the stage having finished. A narrow
  // set's is its kernel, state and input refs; a wide set's is its shuffle
  // files, so it records no inputs and keeps no upstream set alive.
  ctx.out_set = core_->next_id_++;
  pooldetail::SetState& out = core_->sets_[ctx.out_set];
  out.kind = plan.kind;
  out.kernel = plan.kernel;
  out.state = plan.state;
  out.task_inputs.resize(ctx.wide ? 0 : ctx.ntasks);
  out.sources = ctx.wide ? ctx.ntasks : 0;
  out.parts.resize(ctx.nparts);
  ctx.out_state = &out;

  // Resolve inputs once, record lineage, and place each task: on the worker
  // already holding its first resident input (zero-copy chain / co-located
  // join), round-robin otherwise.
  std::vector<std::shared_ptr<PoolSet>> upstream;
  for (std::size_t p = 0; p < ctx.ntasks; ++p) {
    ctx.inputs[p] = plan.inputs(p);
    std::size_t slot = p % nworkers_;
    bool placed = false;
    for (const auto& ref : ctx.inputs[p]) {
      if (ref.set && !placed) {
        const pooldetail::PartState& part =
            core_->sets_.at(ref.set->id).parts.at(ref.partition);
        if (part.owner >= 0 &&
            workers_[static_cast<std::size_t>(part.owner)].alive) {
          slot = static_cast<std::size_t>(part.owner);
          placed = true;
        }
      }
      if (ctx.wide) continue;
      pooldetail::StoredInput in;
      if (ref.set) {
        in.set = ref.set->id;
        in.partition = ref.partition;
        bool known = false;
        for (const auto& u : upstream) known = known || u->id == ref.set->id;
        if (!known) upstream.push_back(ref.set);
      } else {
        in.bytes = ref.inline_bytes;  // the sent buffer itself, shared
      }
      out.task_inputs[p].push_back(std::move(in));
    }
    ctx.task_slot[p] = slot;
    ctx.assigned[slot].push_back(StageCtx::Task{p, 0});
  }

  ctx_ = &ctx;
  try {
    std::vector<bool> die(nworkers_, false);
    for (auto& w : workers_) {
      if (!w.alive) continue;
      send_stage_begin(w);
      // Planned kills draw at stage-local incarnation 0; replacements
      // (stage_deaths > 0) never die, so planned kills always recover.
      die[w.slot] = engine_.faults_.kill_worker(stage.name, w.slot, 0);
    }
    for (std::size_t p = 0; p < ctx.ntasks; ++p) {
      const std::size_t slot = ctx.task_slot[p];
      // Slot already died during dispatch (a fetch pumped); the drain below
      // re-dispatches its whole pending list against the replacement.
      if (ctx.stage_deaths[slot] != 0) continue;
      const bool last = !ctx.assigned[slot].empty() &&
                        ctx.assigned[slot].back().partition == p;
      send_assign(workers_[slot], p, 0, die[slot] && last);
    }
    while (ctx.completed < ctx.ntasks) {
      drain_reassign();
      if (ctx.completed >= ctx.ntasks) break;
      pump();
    }
    // Barrier: narrow workers just ack. In a wide stage every live worker,
    // a replacement forked mid-stage too, assembles the targets it owns from
    // the shuffle files into resident partitions and reports their sizes.
    ctx.ending = true;
    WireWriter end;
    end.put_u64(ctx.ntasks);
    end.put_u64(ctx.wide ? ctx.nparts : 0);
    broadcast(FrameKind::kStageEnd, end.take());
    const auto barrier_done = [&]() {
      for (const auto& w : workers_) {
        if (w.alive && !ctx.acked[w.slot]) return false;
      }
      return true;
    };
    while (!barrier_done()) pump();
  } catch (...) {
    ctx_ = nullptr;
    kill_all();
    core_->release(ctx.out_set);  // no handle exists yet
    throw;
  }
  ctx_ = nullptr;

  std::size_t resident = 0;
  for (const auto& part : out.parts) resident += part.bytes;
  stage.resident_bytes += resident;

  auto handle = std::make_shared<PoolSet>();
  handle->id = ctx.out_set;
  handle->core = core_;
  handle->upstream = std::move(upstream);
  return handle;
}

void WorkerPool::release(std::uint64_t set, std::size_t sources) {
  WireWriter pw;
  pw.put_u64(set);
  broadcast(FrameKind::kRelease, pw.take());
  pooldetail::remove_shuffle_files(engine_.spill_dir(), set, sources,
                                   nworkers_);
}

void WorkerPool::kill_all() noexcept {
  for (auto& w : workers_) {
    if (!w.alive) continue;
    ::kill(w.pid, SIGKILL);
    retire(w);
  }
  for (auto& entry : core_->sets_) {
    for (auto& part : entry.second.parts) {
      if (part.owner >= 0) part.owner = pooldetail::PartState::kNone;
    }
  }
  for (auto* f : fetches_) f->failed = true;
  update_gauge();
}

void WorkerPool::shutdown() noexcept {
  bool any = false;
  for (const auto& w : workers_) any = any || w.alive;
  if (!any) return;
  // Clean shutdown: drain the submit queue (pending releases and friends),
  // append the shutdown marker, give the flush a bounded window, then let
  // EOF finish the job. Children exit on either signal.
  broadcast(FrameKind::kShutdown, {});
  for (int round = 0; round < 200; ++round) {
    std::vector<pollfd> fds;
    for (auto& w : workers_) {
      if (!w.alive) continue;
      flush(w);
      if (w.alive && !w.outq.empty()) {
        fds.push_back(pollfd{w.fd, POLLOUT, 0});
      }
    }
    if (fds.empty()) break;
    ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 50);
  }
  for (auto& w : workers_) {
    if (w.alive) retire(w);
  }
  update_gauge();
}

void WorkerPool::update_gauge() const {
  std::size_t alive = 0;
  for (const auto& w : workers_) alive += w.alive ? 1 : 0;
  obs::global_counters().set_gauge("engine.pool.workers_alive",
                                   static_cast<double>(alive));
}

}  // namespace drapid
