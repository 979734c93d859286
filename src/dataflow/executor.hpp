// What a pooled stage ships to the process backend's workers.
//
// The job-lifetime WorkerPool (dataflow/ipc/pool.hpp) forks before most of a
// job's closures and data exist, so a pooled stage cannot run a body closure
// in the worker. It ships a plan instead: *code by address* (a kernel
// function pointer, valid across fork because parent and child are the same
// binary) plus *state by value* (the stage state and the input partitions,
// both serialized by the ipc value codec), and the worker keeps the
// serialized output resident for the next stage. Engine::run_pooled_stage
// hands the plan to the pool. Every RDD transformation (dataflow/rdd.hpp)
// builds its plan from the same per-partition function its local body
// calls, with a captureless closure the worker rebuilds as Fn{}; stages
// without a plan (spill I/O, in-memory bookkeeping) run their body through
// Engine::run_stage in-process on every backend.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dataflow/metrics.hpp"

namespace drapid {

/// Type-erased context a pool kernel runs under in the worker (or in the
/// parent, when rebuilding a lost narrow partition from lineage).
struct PoolTaskCtx {
  std::size_t partition = 0;  ///< task index within the stage
  /// The stage state as the transformation encoded it (ipc::encode_value).
  const std::string* state = nullptr;
  /// One serialized payload per declared input (kernels define the format;
  /// data-plane kernels use ipc::encode_payload, the load kernel raw text).
  std::vector<const std::string*> inputs;
  TaskMetrics* metrics = nullptr;
};

/// A pooled stage kernel: consumes the ctx inputs, fills ctx.metrics exactly
/// as the local body would, and returns the serialized output — one
/// encode_payload for narrow stages, a per-target segment bundle (see
/// dataflow/ipc/pool.hpp) for wide ones.
using PoolKernelFn = std::string (*)(const PoolTaskCtx&);

class PoolRegistryCore;

/// Handle to one worker-resident partition set. Rdds carry it via
/// shared_ptr; a narrow set keeps its lineage parents alive through
/// `upstream` so a lost partition can always be rebuilt, while a wide set's
/// lineage is its shuffle files and keeps none. The destructor releases the
/// set's worker-side bytes and files (through the registry, if it still
/// exists).
struct PoolSet {
  std::uint64_t id = 0;
  std::weak_ptr<PoolRegistryCore> core;
  std::vector<std::shared_ptr<PoolSet>> upstream;
  ~PoolSet();
};

/// Fetches one partition of a resident set as serialized bytes, rebuilding
/// from lineage if its owning worker died. Works without an Engine in hand
/// (collect() on a resident Rdd), as long as the producing engine is alive.
std::string pool_fetch(const std::shared_ptr<PoolSet>& set,
                       std::size_t partition);
/// The set's in-memory size estimate: the bytes_out its producing tasks
/// reported (byte_size over their output records), summed as results arrived.
/// Moves no bytes; 0 once the producing engine is gone.
std::size_t pool_set_estimated_bytes(const std::shared_ptr<PoolSet>& set);
/// Records-out count of one partition as reported by the producing task.
std::size_t pool_set_records(const std::shared_ptr<PoolSet>& set,
                             std::size_t partition);

/// Where one pooled task input comes from.
struct PoolInputRef {
  /// Resident set (owned partition `partition`), or nullptr for inline.
  std::shared_ptr<PoolSet> set;
  std::size_t partition = 0;
  /// Inline payload (chain heads). The pool sends this buffer and records
  /// it for lineage by reference; nobody copies it.
  std::shared_ptr<const std::string> inline_bytes;
};

/// Everything the pool needs to run one stage without the body closure.
struct PoolStagePlan {
  enum class Kind { kNarrow, kWide };
  Kind kind = Kind::kNarrow;
  PoolKernelFn kernel = nullptr;
  std::string state;  ///< handed to every task as PoolTaskCtx::state
  /// Wide stages: output partition count (narrow: outputs mirror tasks).
  /// The pool cannot read it from the opaque stage state.
  std::size_t num_targets = 0;
  /// Called once per task at dispatch to name its input partitions.
  std::function<std::vector<PoolInputRef>(std::size_t task)> inputs;
};

}  // namespace drapid
