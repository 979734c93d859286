// Job-lifetime worker pool with partition-resident shuffles (PR 10).
//
// WorkerPool is the process backend's counterpart of the paper's Spark
// executors, which live for the whole job and keep partitions in memory
// between stages. It pays neither a fork+teardown per stage nor a ship-up of
// every stage's output partitions to the coordinator: the pool forks its N
// workers once — lazily, inside the first pooled stage — and drives them
// through a multi-stage dispatch protocol over DRASPIPC framed sockets
// (wire.hpp kinds kStageBegin..kShutdown).
//
// What makes a persistent pool possible at all: a worker forked at job start
// can only see parent state that existed at fork time, and stage closures are
// created later. Pooled stages therefore never run the body closure in the
// child. Each transformation ships *code by address* (a PoolKernelFn — valid
// across fork, same binary) plus *state by value* (the codec-encoded stage
// state and serialized inputs), and the worker keeps the serialized
// output partition **resident** under a set id instead of shipping it up.
// The next stage's task is placed on the worker that already holds its input,
// so a narrow chain's steady-state IPC is task-assign and result-metric
// frames, not data.
//
// Wide stages (partition_by) shuffle through sealed map-output files, as
// Spark's do: each source task runs the one routing function
// (detail::RoutePartition in dataflow/rdd.hpp, the local backend's body too)
// and writes its per-target runs as segments into one shuffle file per
// owning slot (target % workers == slot) in the engine's spill directory.
// At kStageEnd every live worker, a replacement forked mid-stage included,
// assembles the targets it owns from those files in source order and keeps
// them resident. No shuffle record crosses a socket.
//
// Failure model: worker death (EOF / corrupt frame) charges one attempt to
// each unfinished task it held — identical accounting to an injected task
// kill under the local backend — and a replacement is forked at
// incarnation + 1, where each task's attempt loop (detail::run_attempts, the
// local backend's too) resumes after the charged attempts and fails the
// task if they spent its budget. Partitions that were resident on
// the dead worker are *not* re-shipped: the parent registry stores each
// narrow set's lineage (kernel, stage state, and input refs down to the
// chain-head bytes) and a wide set's lineage is its shuffle files, so a lost
// partition is rebuilt on demand in the parent: a narrow one by re-running
// its kernel, a wide one by reassembling its slot's targets from the files
// with the owners' routine. Lineage rebuilds consume no fault draws and
// charge no attempts (they are the recomputation path, not retries), which
// keeps attempt accounting equal to the local backend's.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "dataflow/executor.hpp"
#include "dataflow/ipc/wire.hpp"

namespace drapid {

class Engine;
class WorkerPool;

namespace pooldetail {

/// One resident partition as the parent tracks it.
struct PartState {
  static constexpr int kNone = -1;  ///< not on any live worker
  int owner = kNone;                ///< worker slot, or kNone (dead/unbuilt)
  std::string parent_bytes;         ///< parent-side copy (fetched or rebuilt)
  std::size_t bytes = 0;            ///< serialized payload size
  std::size_t records = 0;          ///< records_out reported by the producer
};

/// A lineage input of one task: either another set's partition or stored
/// chain-head bytes (kept so the chain is rebuildable after its source Rdd
/// died in the parent). The bytes are the very buffer that was sent.
struct StoredInput {
  std::uint64_t set = 0;  ///< 0 = inline bytes below
  std::size_t partition = 0;
  std::shared_ptr<const std::string> bytes;
};

/// Parent-side state of one resident set: where each partition lives plus
/// everything needed to rebuild a lost one.
struct SetState {
  PoolStagePlan::Kind kind = PoolStagePlan::Kind::kNarrow;
  PoolKernelFn kernel = nullptr;
  std::string state;
  std::vector<std::vector<StoredInput>> task_inputs;  ///< narrow: per task
  /// Wide: source tasks, whose shuffle files are the set's lineage.
  std::size_t sources = 0;
  std::vector<PartState> parts;
  /// Sum of the producing tasks' bytes_out (Rdd::estimated_bytes).
  std::size_t estimated_bytes = 0;
};

/// One piece of a queued outgoing frame: small header/meta bytes the queue
/// owns, or a payload it sends by reference without copying.
struct OutChunk {
  std::string owned;
  std::shared_ptr<const std::string> shared;  ///< when set, `owned` is unused
  std::string_view bytes() const {
    return shared ? std::string_view(*shared) : std::string_view(owned);
  }
};

/// The receive side of one socket: unconsumed bytes plus room for the next
/// read(2) of up to 1 MiB, in one buffer reused for the socket's lifetime so
/// steady-state reads neither copy through a bounce buffer nor touch fresh
/// pages.
class RecvBuffer {
 public:
  /// One read(2) from `fd` appended after the pending bytes; returns its
  /// result (bytes read, 0 at EOF, -1 with errno set).
  ssize_t read_from(int fd);
  const char* data() const { return buf_.get() + begin_; }
  std::size_t size() const { return end_ - begin_; }
  /// Drops `n` bytes from the front.
  void consume(std::size_t n);
  /// Drops everything and releases the memory.
  void clear();

 private:
  std::unique_ptr<char[]> buf_;
  std::size_t cap_ = 0;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
};

/// One assembled wide target partition: its record count, and its bytes,
/// byte for byte ipc::encode_payload of the records the local backend holds
/// for it.
struct TargetAssembly {
  std::string bytes;
  std::uint64_t records = 0;
};

/// Writes wide source task `source`'s routed output, a detail::encode_bundle
/// segment bundle, as one sealed shuffle file per worker slot in `dir`: the
/// slot's file holds the segments of the targets it owns.
void write_shuffle_files(const std::string& dir, std::uint64_t set,
                         std::size_t source, std::size_t workers,
                         const std::string& bundle);

/// Assembles, in target order, every target `slot` owns among a wide set's
/// `targets`, from the shuffle files of sources 0..sources-1 in source order:
/// what an owner runs at kStageEnd and the parent when an owner died. Throws
/// std::runtime_error naming the file when one is missing or damaged.
std::vector<TargetAssembly> assemble_targets(const std::string& dir,
                                             std::uint64_t set,
                                             std::size_t sources,
                                             std::size_t workers,
                                             std::size_t slot,
                                             std::size_t targets);

/// Deletes a released wide set's shuffle files.
void remove_shuffle_files(const std::string& dir, std::uint64_t set,
                          std::size_t sources, std::size_t workers);

}  // namespace pooldetail

/// Parent-side residency registry. Owned (shared) by the WorkerPool; PoolSet
/// handles reference it weakly so Rdds outliving the engine degrade
/// gracefully instead of dangling.
class PoolRegistryCore {
 public:
  /// Fetches partition bytes: parent copy, live worker, or lineage rebuild.
  std::string fetch(std::uint64_t set, std::size_t partition);
  std::size_t set_estimated_bytes(std::uint64_t set) const;
  std::size_t set_records(std::uint64_t set, std::size_t partition) const;
  /// Drops a set (from a PoolSet destructor); notifies workers.
  void release(std::uint64_t set);

 private:
  friend class WorkerPool;
  std::string rebuild(std::uint64_t set, std::size_t partition);

  WorkerPool* pool_ = nullptr;  ///< nulled when the pool dies first
  std::unordered_map<std::uint64_t, pooldetail::SetState> sets_;
  std::uint64_t next_id_ = 1;
};

/// The job-lifetime pool. One per Engine on the process backend.
class WorkerPool {
 public:
  WorkerPool(Engine& engine, std::size_t workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  std::size_t workers() const { return nworkers_; }

  /// Runs one pooled stage (tasks nonempty) through the pool, forking it
  /// first if this is the job's first pooled stage, and returns the stage's
  /// resident output set (Engine::run_pooled_stage).
  std::shared_ptr<PoolSet> run_stage(StageMetrics& stage,
                                     const PoolStagePlan& plan);

  const std::shared_ptr<PoolRegistryCore>& core() const { return core_; }

 private:
  friend class PoolRegistryCore;

  struct PoolWorker {
    pid_t pid = -1;
    int fd = -1;
    std::size_t slot = 0;
    std::size_t incarnation = 0;
    bool ever_spawned = false;
    bool alive = false;
    pooldetail::RecvBuffer inbuf;
    /// Pending sends (the socket is nonblocking), flushed with sendmsg.
    std::deque<pooldetail::OutChunk> outq;
    std::size_t outpos = 0;  ///< bytes of outq.front() already sent
  };

  struct StageCtx;
  struct Fetch {
    std::uint64_t set = 0;
    std::size_t partition = 0;
    std::size_t slot = 0;  ///< worker the kFetch went to
    bool done = false;
    bool failed = false;  ///< holder died before replying
    std::string bytes;
  };

  void ensure_spawned(StageMetrics* stage);
  void spawn(PoolWorker& w);
  void retire(PoolWorker& w);
  void handle_death(PoolWorker& w);
  /// Queues one whole frame, as consecutive chunks, and tries to send it.
  void enqueue(PoolWorker& w, std::vector<pooldetail::OutChunk> chunks);
  void enqueue(PoolWorker& w, std::string frame);
  void flush(PoolWorker& w);
  /// One poll round: flush pending sends, read, decode, dispatch frames.
  /// Re-entered only from top-level waits (fetches), never from inside a
  /// frame handler — death recovery defers reassignment to drain_reassign.
  void pump();
  void read_and_dispatch(PoolWorker& w);
  /// `frame` points into w.inbuf, which is consumed afterwards.
  void dispatch_frame(PoolWorker& w, const ipc::FrameView& frame,
                      std::size_t consumed);
  /// Fetches (set, partition) bytes from the worker holding it; false when
  /// the holder died first (caller falls back to lineage rebuild).
  bool fetch_from_worker(std::size_t slot, std::uint64_t set,
                         std::size_t partition, std::string& out);
  void send_stage_begin(PoolWorker& w);
  void send_assign(PoolWorker& w, std::size_t task, std::size_t attempt_base,
                   bool die_before);
  /// Queues one frame to every live worker.
  void broadcast(ipc::FrameKind kind, std::string payload);
  /// Re-dispatches the pending tasks of slots respawned since the last call.
  void drain_reassign();
  /// Tells every live worker to drop a released set's resident bytes, and
  /// deletes its shuffle files (`sources` of them per slot; 0 if narrow).
  void release(std::uint64_t set, std::size_t sources);
  void kill_all() noexcept;
  void shutdown() noexcept;
  void update_gauge() const;
  void count_ipc(std::size_t bytes);

  Engine& engine_;
  std::size_t nworkers_;
  std::vector<PoolWorker> workers_;
  bool spawned_ = false;
  std::shared_ptr<PoolRegistryCore> core_;
  StageCtx* ctx_ = nullptr;  ///< current pooled stage, null between stages
  std::vector<Fetch*> fetches_;  ///< outstanding kFetch waits (stack order)
};

}  // namespace drapid
