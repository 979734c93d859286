// Key-value-pair RDDs and their transformations (the Spark stand-in).
//
// An Rdd<K, V> is a dataset physically split into partitions. Transformations
// execute eagerly — one task per partition, in-process or on the process
// backend's worker pool, through the same per-partition function either way
// — and record measured work (records, bytes, shuffle traffic) into the
// engine's job metrics. Their closures must be captureless lambdas; values a
// closure needs travel as codec-encoded stage state (see "Transformations"
// below). The three mechanisms the paper's D-RAPID design leans on are all
// implemented for real:
//
//   * HashPartitioner — deterministic key → partition mapping, shared between
//     datasets so matching keys are colocated ("uniform partitioning",
//     Figure 3), which makes the join below shuffle-free;
//   * aggregate_by_key — map-side combining that collapses duplicate keys
//     before the expensive join ("key aggregation", Figure 3);
//   * left_outer_join — co-partitioned fast path joins partition i of the
//     left dataset against partition i of the right locally; inputs with
//     unknown or mismatched partitioning are shuffled first and the extra
//     bytes show up in the metrics (the ablation benchmark measures exactly
//     this difference).
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "dataflow/engine.hpp"
#include "dataflow/ipc/wire.hpp"  // value codecs backing pool kernels
#include "util/flat_hash.hpp"  // stable_hash + the per-partition hash tables

namespace drapid {

// --- In-memory size estimation (for memory budgets and shuffle byte counts) -
//
// Contract: byte_size is a deterministic *estimator* of resident bytes, not
// allocator-exact accounting. It must be (a) stable across runs, platforms
// and container layout choices — it feeds shuffle-byte metrics that tests
// and the cluster model compare across configurations — and (b) cheap:
// O(1) wherever the element representation allows it. It estimates object
// footprint + owned heap payload; it ignores allocator slack, capacity
// beyond size, and heap-block headers.

inline std::size_t byte_size(const std::string& s) {
  // A short string stores its bytes inside the object (SSO): counting
  // s.size() on top of sizeof(std::string) would double-count them. The
  // bytes live out-of-line exactly when data() points outside the object.
  const auto obj = reinterpret_cast<std::uintptr_t>(&s);
  const auto data = reinterpret_cast<std::uintptr_t>(s.data());
  const bool inline_sso = data >= obj && data < obj + sizeof(std::string);
  return sizeof(std::string) + (inline_sso ? 0 : s.size());
}
template <typename T>
  requires std::is_arithmetic_v<T> || std::is_enum_v<T>
std::size_t byte_size(T) {
  return sizeof(T);
}
/// Fallback for flat user structs (no owned heap memory to account for).
template <typename T>
  requires(std::is_trivially_copyable_v<T> && !std::is_arithmetic_v<T> &&
           !std::is_enum_v<T>)
std::size_t byte_size(const T&) {
  return sizeof(T);
}
template <typename A, typename B>
std::size_t byte_size(const std::pair<A, B>& p);
template <typename T>
std::size_t byte_size(const std::vector<T>& v);
template <typename T>
std::size_t byte_size(const std::optional<T>& o);

namespace detail {
/// True when byte_size(e) == sizeof(T) for every value of T, i.e. the
/// element estimate is a constant. pair/optional are trivially copyable for
/// flat component types but their estimates sum components (skipping
/// padding), so they are excluded explicitly.
template <typename T>
inline constexpr bool flat_byte_size_v = std::is_trivially_copyable_v<T>;
template <typename A, typename B>
inline constexpr bool flat_byte_size_v<std::pair<A, B>> = false;
template <typename T>
inline constexpr bool flat_byte_size_v<std::optional<T>> = false;
}  // namespace detail

template <typename A, typename B>
std::size_t byte_size(const std::pair<A, B>& p) {
  return byte_size(p.first) + byte_size(p.second);
}
template <typename T>
std::size_t byte_size(const std::vector<T>& v) {
  // O(1) when the per-element estimate is the constant sizeof(T) — metrics
  // accounting for large flat vectors must not walk every record.
  if constexpr (detail::flat_byte_size_v<T>) {
    return sizeof(std::vector<T>) + v.size() * sizeof(T);
  } else {
    std::size_t total = sizeof(std::vector<T>);
    for (const auto& e : v) total += byte_size(e);
    return total;
  }
}
template <typename T>
std::size_t byte_size(const std::optional<T>& o) {
  return sizeof(bool) + (o ? byte_size(*o) : 0);
}

// --- Partitioner -------------------------------------------------------------

/// Deterministic hash partitioner. Two instances with the same partition
/// count and salt produce identical layouts — datasets partitioned by them
/// are co-partitioned, and id() encodes that equivalence.
struct HashPartitioner {
  std::size_t num_partitions = 1;
  std::uint64_t salt = 0x9e3779b97f4a7c15ULL;

  template <typename K>
  std::size_t of(const K& key) const {
    const std::uint64_t mixed = stable_hash(key) ^ salt;
    const auto n = static_cast<std::uint64_t>(num_partitions);
    // x % n == x & (n-1) for power-of-two n — same layout, no 64-bit divide
    // on the per-record shuffle path.
    if ((n & (n - 1)) == 0) return static_cast<std::size_t>(mixed & (n - 1));
    return static_cast<std::size_t>(mixed % n);
  }
  /// Nonzero identity; equal iff layouts are identical.
  std::uint64_t id() const {
    return (static_cast<std::uint64_t>(num_partitions) * 0x9e3779b97f4a7c15ULL) ^
           salt ^ 1ULL;
  }
};

// --- Rdd ---------------------------------------------------------------------

template <typename K, typename V>
struct Rdd {
  using Pair = std::pair<K, V>;
  std::vector<std::vector<Pair>> partitions;
  /// id() of the HashPartitioner that laid this dataset out; 0 = unknown.
  std::uint64_t partitioner_id = 0;
  /// Under the process backend (PR 10) a transformation's output can stay
  /// resident in the worker processes instead of being shipped back: this
  /// handle names the worker-side partition set and the `partitions` vectors
  /// above are empty placeholders (sized for num_partitions()). All read
  /// paths below fetch through the handle; dropping the last Rdd that holds
  /// it releases the worker memory.
  std::shared_ptr<PoolSet> resident;

  std::size_t num_partitions() const { return partitions.size(); }
  std::size_t size() const {
    if (resident) {
      std::size_t total = 0;
      for (std::size_t p = 0; p < partitions.size(); ++p) {
        total += pool_set_records(resident, p);
      }
      return total;
    }
    std::size_t total = 0;
    for (const auto& p : partitions) total += p.size();
    return total;
  }
  std::size_t estimated_bytes() const {
    // A resident set answers from the bytes_out its producing tasks
    // reported: the same byte_size estimator over the same output records
    // the local backend walks here, so cache/spill decisions cannot diverge
    // between backends, and no partition leaves the workers for it.
    if (resident) return pool_set_estimated_bytes(resident);
    std::size_t total = 0;
    for (const auto& p : partitions) {
      for (const auto& kv : p) total += byte_size(kv);
    }
    return total;
  }
  /// All pairs, partition by partition (deterministic).
  std::vector<Pair> collect() const {
    std::vector<Pair> all;
    if (resident) {
      for (std::size_t p = 0; p < partitions.size(); ++p) {
        auto part = ipc::decode_payload<Pair>(pool_fetch(resident, p));
        all.insert(all.end(), std::make_move_iterator(part.begin()),
                   std::make_move_iterator(part.end()));
      }
      return all;
    }
    all.reserve(size());
    for (const auto& p : partitions) all.insert(all.end(), p.begin(), p.end());
    return all;
  }
};

/// Materializes a resident Rdd's partitions into the coordinator's memory
/// and drops the residency handle (releasing the worker-side copy once no
/// other Rdd shares it). No-op for already-local datasets. Call before code
/// that indexes `partitions` directly.
template <typename K, typename V>
void ensure_local(Rdd<K, V>& rdd) {
  if (!rdd.resident) return;
  for (std::size_t p = 0; p < rdd.partitions.size(); ++p) {
    rdd.partitions[p] =
        ipc::decode_payload<std::pair<K, V>>(pool_fetch(rdd.resident, p));
  }
  rdd.resident.reset();
}

// --- Transformations ---------------------------------------------------------
//
// Each narrow transformation is written once, as a *per-partition function*:
// a stateless functor mapping (input partition(s), closure, stage state,
// TaskMetrics&) to its output partition. detail::run_partitions runs it over
// a stage on either backend. Locally each task calls it on partitions[p]; on
// the process backend the stage ships as a pool plan whose kernel
// (detail::pool_kernel) decodes the state and inputs, calls the very same
// function and encodes the result. The wide stage (partition_by) is written
// once the same way, as detail::RoutePartition: a per-source function that
// groups the source's records into per-target runs. Locally the runs are
// laid out target by target in source order; on the pool the kernel
// detail::route_kernel encodes them as a segment bundle, the source task
// writes it to shuffle files, and each target's owner concatenates its
// segments from them in source order. Output bytes and
// TaskMetrics therefore cannot diverge between backends.
//
// The closure contract: pool workers fork before any stage closure exists,
// so a worker runs `Fn{}` rather than the caller's object. That is the same
// closure only when it holds no state, so every closure must be captureless
// (captureless_closure_v, enforced by static_assert). A value a closure
// needs travels as the stage *state* instead, which crosses to the workers
// through the ipc value codec (aggregate_by_key's init, flat_map_metered's
// state argument).

/// The rule every transformation closure must satisfy: an empty,
/// default-constructible function object. In C++20 that is exactly a
/// captureless lambda; a capture by pointer, reference or value fails it.
template <typename Fn>
inline constexpr bool captureless_closure_v =
    std::is_empty_v<Fn> && std::is_default_constructible_v<Fn>;

/// Distributes `pairs` round-robin into `num_partitions` chunks.
template <typename K, typename V>
Rdd<K, V> parallelize(Engine& engine, std::vector<std::pair<K, V>> pairs,
                      std::size_t num_partitions) {
  if (num_partitions == 0) num_partitions = 1;
  Rdd<K, V> rdd;
  rdd.partitions.resize(num_partitions);
  const std::size_t chunk = (pairs.size() + num_partitions - 1) /
                            std::max<std::size_t>(1, num_partitions);
  for (std::size_t p = 0; p < num_partitions; ++p) {
    const std::size_t begin = p * chunk;
    const std::size_t end = std::min(begin + chunk, pairs.size());
    if (begin >= end) continue;
    rdd.partitions[p].assign(std::make_move_iterator(pairs.begin() + begin),
                             std::make_move_iterator(pairs.begin() + end));
  }
  auto& stage = engine.begin_stage("parallelize", num_partitions);
  for (std::size_t p = 0; p < num_partitions; ++p) {
    stage.tasks[p].records_out = rdd.partitions[p].size();
  }
  return rdd;
}

namespace detail {
template <typename K, typename V>
void record_input(TaskMetrics& task, const std::vector<std::pair<K, V>>& part) {
  task.records_in = part.size();
  for (const auto& kv : part) task.bytes_in += byte_size(kv);
  task.compute_cost = task.records_in;
}
template <typename K, typename V>
void record_output(TaskMetrics& task,
                   const std::vector<std::pair<K, V>>& part) {
  task.records_out = part.size();
  for (const auto& kv : part) task.bytes_out += byte_size(kv);
}

template <typename Fn>
constexpr void require_captureless() {
  static_assert(captureless_closure_v<Fn>,
                "RDD transformation closures must be captureless lambdas: "
                "pool workers run Fn{}, so no capture can reach them. Pass "
                "per-stage values as the stage state instead.");
}

/// The closure or state of a stage that has none.
struct None {};

/// A stage state the value codec cannot express member by member (one
/// holding a DmGrid, say) encodes and decodes itself.
template <typename State>
concept SelfEncodingState =
    requires(const State& s, ipc::WireWriter& w, ipc::WireReader& r) {
      s.encode(w);
      { State::decode(r) } -> std::same_as<State>;
    };

/// Stateless stages (an empty State) ship no state bytes at all.
template <typename State>
std::string encode_state(const State& state) {
  ipc::WireWriter w;
  if constexpr (std::is_empty_v<State>) {
    // nothing to ship
  } else if constexpr (SelfEncodingState<State>) {
    state.encode(w);
  } else {
    ipc::encode_value(w, state);
  }
  return w.take();
}

template <typename State>
State decode_state(const std::string& bytes) {
  ipc::WireReader r(bytes);
  State state = [&] {
    if constexpr (std::is_empty_v<State>) {
      return State{};
    } else if constexpr (SelfEncodingState<State>) {
      return State::decode(r);
    } else {
      State decoded{};
      ipc::decode_value(r, decoded);
      return decoded;
    }
  }();
  if (!r.done()) throw ipc::WireError("stage state has trailing bytes");
  return state;
}

// --- Per-partition functions -------------------------------------------------

struct MapPairsPartition {
  template <typename K, typename V, typename Fn>
  auto operator()(const std::vector<std::pair<K, V>>& part, const Fn& fn,
                  None, TaskMetrics& task) const {
    std::vector<std::invoke_result_t<const Fn&, const std::pair<K, V>&>> out;
    record_input(task, part);
    out.reserve(part.size());
    for (const auto& kv : part) out.push_back(fn(kv));
    record_output(task, out);
    return out;
  }
};

struct MapValuesPartition {
  template <typename K, typename V, typename Fn>
  auto operator()(const std::vector<std::pair<K, V>>& part, const Fn& fn,
                  None, TaskMetrics& task) const {
    std::vector<std::pair<K, std::invoke_result_t<const Fn&, const V&>>> out;
    record_input(task, part);
    out.reserve(part.size());
    for (const auto& kv : part) out.emplace_back(kv.first, fn(kv.second));
    record_output(task, out);
    return out;
  }
};

struct FilterPartition {
  template <typename K, typename V, typename Pred>
  std::vector<std::pair<K, V>> operator()(
      const std::vector<std::pair<K, V>>& part, const Pred& pred, None,
      TaskMetrics& task) const {
    std::vector<std::pair<K, V>> out;
    record_input(task, part);
    for (const auto& kv : part) {
      if (pred(kv)) out.push_back(kv);
    }
    record_output(task, out);
    return out;
  }
};

/// fn(key, value, cost) for stateless stages, fn(key, value, state, cost)
/// otherwise.
struct FlatMapPartition {
  template <typename K, typename V, typename Fn, typename State>
  auto operator()(const std::vector<std::pair<K, V>>& part, const Fn& fn,
                  const State& state, TaskMetrics& task) const {
    const auto produce = [&](const std::pair<K, V>& kv, std::size_t& cost) {
      if constexpr (std::is_same_v<State, None>) {
        return fn(kv.first, kv.second, cost);
      } else {
        return fn(kv.first, kv.second, state, cost);
      }
    };
    std::vector<typename decltype(produce(
        std::declval<const std::pair<K, V>&>(),
        std::declval<std::size_t&>()))::value_type>
        out;
    record_input(task, part);
    task.compute_cost = 0;  // reported by fn instead of records_in
    for (const auto& kv : part) {
      std::size_t cost = 0;
      auto produced = produce(kv, cost);
      task.compute_cost += cost;
      for (auto& item : produced) out.push_back(std::move(item));
    }
    record_output(task, out);
    return out;
  }
};

/// Map-side combine; the stage state is the accumulator's init value.
struct CombinePartition {
  template <typename K, typename V, typename Fold, typename Agg>
  std::vector<std::pair<K, Agg>> operator()(
      const std::vector<std::pair<K, V>>& part, const Fold& fold,
      const Agg& init, TaskMetrics& task) const {
    record_input(task, part);
    task.compute_cost = task.records_in / 4;  // hash-fold per record
    // Accumulators live densely in the flat map in first-encounter order —
    // a pure function of the partition's record sequence, so the emitted
    // layout is identical across thread counts and hash-table capacities.
    FlatHashMap<K, Agg> local;
    local.reserve(part.size());
    for (const auto& kv : part) {
      auto [entry, inserted] = local.try_emplace(kv.first, init);
      fold(entry->second, kv.second);
    }
    auto out = local.take_entries();
    record_output(task, out);
    return out;
  }
};

/// Final merge of accumulators; consumes its input partition.
struct MergePartition {
  template <typename K, typename Agg, typename Merge>
  std::vector<std::pair<K, Agg>> operator()(
      std::vector<std::pair<K, Agg>>& part, const Merge& merge, None,
      TaskMetrics& task) const {
    record_input(task, part);
    task.compute_cost = task.records_in / 4;  // hash-merge per record
    FlatHashMap<K, Agg> local;
    local.reserve(part.size());
    for (auto& kv : part) {
      auto [entry, inserted] =
          local.try_emplace(kv.first, std::move(kv.second));
      if (!inserted) merge(entry->second, std::move(kv.second));
    }
    auto out = local.take_entries();
    record_output(task, out);
    return out;
  }
};

/// Left outer join of partition p of both (co-partitioned) sides.
struct JoinPartition {
  template <typename K, typename V, typename W>
  auto operator()(const std::vector<std::pair<K, V>>& lhs,
                  const std::vector<std::pair<K, W>>& rhs, None, None,
                  TaskMetrics& task) const {
    std::vector<std::pair<K, std::pair<V, std::optional<W>>>> out;
    record_input(task, lhs);
    // Build side: duplicate right keys keep partition order in the chain,
    // so matches are emitted deterministically per left record.
    FlatHashMultiMap<K, const W*> index;
    index.reserve(rhs.size());
    for (const auto& kv : rhs) {
      index.emplace(kv.first, &kv.second);
      task.bytes_in += byte_size(kv);
    }
    task.records_in += rhs.size();
    // Exact when right keys are unique, a lower bound otherwise.
    out.reserve(lhs.size());
    for (const auto& kv : lhs) {
      const bool matched = index.for_each(kv.first, [&](const W* w) {
        out.emplace_back(std::piecewise_construct,
                         std::forward_as_tuple(kv.first),
                         std::forward_as_tuple(kv.second, *w));
      });
      if (!matched) {
        out.emplace_back(std::piecewise_construct,
                         std::forward_as_tuple(kv.first),
                         std::forward_as_tuple(kv.second, std::nullopt));
      }
    }
    record_output(task, out);
    return out;
  }
};

// --- Running a stage on either backend --------------------------------------

/// The one pool kernel: decodes the stage state and the task's input
/// partition(s), runs the per-partition function with a default-constructed
/// closure, and encodes the output. Kernels travel by function pointer —
/// parent and child are the same binary.
template <typename Partition, typename Fn, typename State, typename... In>
std::string pool_kernel(const PoolTaskCtx& ctx) {
  const State state = decode_state<State>(*ctx.state);
  return [&]<std::size_t... I>(std::index_sequence<I...>) {
    std::tuple<std::vector<In>...> parts{
        ipc::decode_payload<In>(*ctx.inputs.at(I))...};
    return ipc::encode_payload(
        Partition{}(std::get<I>(parts)..., Fn{}, state, *ctx.metrics));
  }(std::index_sequence_for<In...>{});
}

/// Names where task p's input partition lives: by residency handle when the
/// upstream set is worker-resident (the zero-copy chain case), otherwise as
/// inline bytes (chain heads), recorded by the pool for lineage. Tasks past
/// the source count (partition_by's >= 1 source clamp) get an empty payload.
template <typename K, typename V>
PoolInputRef pool_input(const Rdd<K, V>& in, std::size_t p) {
  PoolInputRef ref;
  if (in.resident) {
    ref.set = in.resident;
    ref.partition = p;
  } else {
    ref.inline_bytes = std::make_shared<const std::string>(
        p < in.num_partitions()
            ? ipc::encode_payload(in.partitions[p])
            : ipc::encode_payload(std::vector<std::pair<K, V>>{}));
  }
  return ref;
}

/// The local view of a stage input: `in` itself, or, if it is resident in
/// the workers of another (pooled) engine, its partitions decoded into
/// `storage`. A non-const input is the stage's to consume and is
/// materialized in place.
template <typename K, typename V>
const Rdd<K, V>& localized(const Rdd<K, V>& in, Rdd<K, V>& storage) {
  if (!in.resident) return in;
  storage.partitions.resize(in.num_partitions());
  storage.partitioner_id = in.partitioner_id;
  for (std::size_t p = 0; p < in.num_partitions(); ++p) {
    storage.partitions[p] =
        ipc::decode_payload<std::pair<K, V>>(pool_fetch(in.resident, p));
  }
  return storage;
}
template <typename K, typename V>
Rdd<K, V>& localized(Rdd<K, V>& in, Rdd<K, V>&) {
  ensure_local(in);
  return in;
}

/// The local half of run_partitions: each task calls `Partition` on its
/// partition(s) of the locally materialized inputs `src`.
template <typename Partition, typename OutRdd, typename Fn, typename State,
          typename... Srcs>
void run_local(Engine& engine, StageMetrics& stage, OutRdd& out, const Fn& fn,
               const State& state, Srcs&... src) {
  engine.run_stage(stage, [&](TaskContext& ctx) {
    const std::size_t p = ctx.partition();
    out.partitions[p] =
        Partition{}(src.partitions[p]..., fn, state, ctx.metrics());
  });
}

/// Runs `Partition` as stage `name`, one task per input partition, and
/// returns its output Rdd (partitioner_id left unknown for the caller to
/// set). On the process backend the stage is a pool plan and the output
/// stays worker-resident; resident inputs are never pulled back for it.
/// Elsewhere each task calls `Partition` on its local partition(s).
template <typename Partition, typename Fn, typename State, typename... Ins>
auto run_partitions(Engine& engine, const std::string& name, const Fn& fn,
                    const State& state, Ins&... in) {
  require_captureless<Fn>();
  using OutPart = std::invoke_result_t<
      const Partition&, decltype(std::declval<Ins&>().partitions[0])...,
      const Fn&, const State&, TaskMetrics&>;
  using OutPair = typename OutPart::value_type;
  Rdd<typename OutPair::first_type, typename OutPair::second_type> out;
  const std::size_t tasks = std::max({in.num_partitions()...});
  out.partitions.resize(tasks);
  auto& stage = engine.begin_stage(name, tasks);
  if (engine.pooled() && tasks > 0) {
    PoolStagePlan plan;
    plan.kernel = &pool_kernel<Partition, Fn, State, typename Ins::Pair...>;
    plan.state = encode_state(state);
    plan.inputs = [&](std::size_t task) {
      return std::vector<PoolInputRef>{pool_input(in, task)...};
    };
    out.resident = engine.run_pooled_stage(stage, plan);
    return out;
  }
  std::tuple<std::remove_const_t<Ins>...> storage;
  std::apply(
      [&](auto&... stor) {
        run_local<Partition>(engine, stage, out, fn, state,
                             localized(in, stor)...);
      },
      storage);
  return out;
}
}  // namespace detail

/// 1:1 transformation of whole pairs. Set `preserves_partitioning` only when
/// `fn` never changes keys.
template <typename K, typename V, typename Fn>
auto map_pairs(Engine& engine, const Rdd<K, V>& in, Fn&& fn,
               const std::string& name = "map_pairs",
               bool preserves_partitioning = false) {
  auto out = detail::run_partitions<detail::MapPairsPartition>(
      engine, name, fn, detail::None{}, in);
  out.partitioner_id = preserves_partitioning ? in.partitioner_id : 0;
  return out;
}

/// Value-only transformation; always preserves partitioning.
template <typename K, typename V, typename Fn>
auto map_values(Engine& engine, const Rdd<K, V>& in, Fn&& fn,
                const std::string& name = "map_values") {
  auto out = detail::run_partitions<detail::MapValuesPartition>(
      engine, name, fn, detail::None{}, in);
  out.partitioner_id = in.partitioner_id;
  return out;
}

/// Keeps pairs where `pred(pair)` is true; preserves partitioning.
template <typename K, typename V, typename Pred>
Rdd<K, V> filter_pairs(Engine& engine, const Rdd<K, V>& in, Pred&& pred,
                       const std::string& name = "filter") {
  auto out = detail::run_partitions<detail::FilterPartition>(
      engine, name, pred, detail::None{}, in);
  out.partitioner_id = in.partitioner_id;
  return out;
}

/// 1:many transformation with caller-reported compute cost:
/// fn(key, value, cost_inout) -> vector<pair<K2, V2>>. A closure that needs
/// per-stage values takes them as `state` instead of capturing them:
/// fn(key, value, state, cost_inout). The state is passed by reference
/// locally and through the value codec (or its own encode/decode members)
/// to pool workers.
template <typename K, typename V, typename Fn, typename State = detail::None>
auto flat_map_metered(Engine& engine, const Rdd<K, V>& in, Fn&& fn,
                      const std::string& name = "flat_map",
                      const State& state = {}) {
  return detail::run_partitions<detail::FlatMapPartition>(engine, name, fn,
                                                          state, in);
}

namespace detail {
/// State of a wide stage: the partitioner that picks each record's target
/// and the modeled executor count that prices cross-executor bytes.
struct WideSpec {
  HashPartitioner part;
  std::uint64_t executors = 1;
};

/// The one wide stage body. For source partition `source` it picks each
/// record's target, fills the task's metrics and returns the records
/// grouped by target, each run in source order. Bytes that land on a
/// different modeled executor than they started on are shuffle traffic
/// (partition p lives on executor p mod executors). Target t of the output
/// is run t of every source, concatenated in source order, on both
/// backends.
struct RoutePartition {
  template <typename K, typename V>
  std::vector<std::vector<std::pair<K, V>>> operator()(
      std::vector<std::pair<K, V>> part, std::size_t source,
      const WideSpec& spec, TaskMetrics& task) const {
    if (spec.part.num_partitions == 0) {
      throw std::invalid_argument(
          "partition_by: the partitioner has 0 partitions");
    }
    std::vector<std::vector<std::pair<K, V>>> runs(spec.part.num_partitions);
    task.records_in = part.size();
    // Routing is a hash + move per record — far cheaper than a parse or
    // search step; the bytes cost is paid at the network term.
    task.compute_cost = task.records_in / 4;
    for (auto& kv : part) {
      const std::size_t target = spec.part.of(kv.first);
      // One byte_size walk, shared by the input and shuffle byte counts.
      const std::size_t bytes = byte_size(kv);
      task.bytes_in += bytes;
      if (target % spec.executors != source % spec.executors) {
        task.shuffle_bytes += bytes;
      }
      runs[target].push_back(std::move(kv));
    }
    task.records_out = task.records_in;
    task.bytes_out = task.bytes_in;
    return runs;
  }
};

/// Encodes routed runs as a segment bundle (the input of
/// pooldetail::write_shuffle_files): u64 run count, then per run its record
/// count, its byte size and its records encoded back to back.
template <typename K, typename V>
std::string encode_bundle(
    const std::vector<std::vector<std::pair<K, V>>>& runs) {
  ipc::WireWriter w;
  w.put_u64(runs.size());
  // (offset of a run's size word, its size): sizes are known only once the
  // run's records are written, so they are patched in afterwards.
  std::vector<std::pair<std::size_t, std::uint64_t>> sizes;
  sizes.reserve(runs.size());
  for (const auto& run : runs) {
    w.put_u64(run.size());
    const std::size_t at = w.buffer().size();
    w.put_u64(0);
    for (const auto& kv : run) ipc::encode_value(w, kv);
    sizes.emplace_back(at, w.buffer().size() - at - sizeof(std::uint64_t));
  }
  std::string bundle = w.take();
  for (const auto& [at, size] : sizes) {
    std::memcpy(bundle.data() + at, &size, sizeof(size));
  }
  return bundle;
}

/// The wide pool kernel, generated from RoutePartition the way pool_kernel
/// is from a narrow stage's function. The worker writes its segments to
/// shuffle files; record bytes never pass through the coordinator.
template <typename K, typename V>
std::string route_kernel(const PoolTaskCtx& ctx) {
  return encode_bundle(RoutePartition{}(
      ipc::decode_payload<std::pair<K, V>>(*ctx.inputs.at(0)), ctx.partition,
      decode_state<WideSpec>(*ctx.state), *ctx.metrics));
}
}  // namespace detail

/// Wide transformation: re-buckets every pair by `partitioner` through
/// detail::RoutePartition, one task per source partition. On the process
/// backend the routed runs shuffle through files and the output stays
/// resident; locally each target is laid out from the runs in source order.
template <typename K, typename V>
Rdd<K, V> partition_by(Engine& engine, const Rdd<K, V>& in,
                       const HashPartitioner& partitioner,
                       const std::string& name = "partition_by") {
  using Pair = std::pair<K, V>;
  const std::size_t sources = std::max<std::size_t>(1, in.num_partitions());
  const std::size_t targets = partitioner.num_partitions;
  const detail::WideSpec spec{partitioner, engine.config().num_executors};
  Rdd<K, V> out;
  out.partitions.resize(targets);
  out.partitioner_id = partitioner.id();
  auto& stage = engine.begin_stage(name, sources);

  if (engine.pooled()) {
    PoolStagePlan plan;
    plan.kind = PoolStagePlan::Kind::kWide;
    plan.kernel = &detail::route_kernel<K, V>;
    plan.state = detail::encode_state(spec);
    plan.num_targets = targets;
    plan.inputs = [&in](std::size_t task) {
      return std::vector<PoolInputRef>{detail::pool_input(in, task)};
    };
    out.resident = engine.run_pooled_stage(stage, plan);
    return out;
  }
  Rdd<K, V> stor;
  const Rdd<K, V>& src = detail::localized(in, stor);
  std::vector<std::vector<std::vector<Pair>>> runs(sources);
  engine.run_stage(stage, [&](TaskContext& ctx) {
    const std::size_t p = ctx.partition();
    // Tasks past the source count (the >= 1 clamp) route nothing.
    runs[p] = detail::RoutePartition{}(
        p < src.num_partitions() ? src.partitions[p] : std::vector<Pair>{},
        p, spec, ctx.metrics());
  });
  // Targets are disjoint, so this parallelizes without synchronization.
  engine.pool().parallel_for(targets, [&](std::size_t t) {
    std::size_t total = 0;
    for (const auto& source : runs) total += source[t].size();
    out.partitions[t].reserve(total);
    for (auto& source : runs) {
      std::move(source[t].begin(), source[t].end(),
                std::back_inserter(out.partitions[t]));
      source[t] = {};
    }
  });
  return out;
}

/// Map-side combine + (if needed) shuffle + final merge. `fold(agg, v)`
/// folds one value into a per-key accumulator initialized with `init`;
/// `merge(agg, other)` combines accumulators from different partitions.
/// The result is partitioned by `partitioner`; if `in` already is, the
/// aggregation is purely local (zero shuffle — the Figure 3 optimization).
/// `init` is the combine stage's state: it reaches pool workers through the
/// value codec, like the Agg partitions themselves.
template <typename K, typename V, typename Agg, typename Fold, typename Merge>
Rdd<K, Agg> aggregate_by_key(Engine& engine, const Rdd<K, V>& in,
                             const Agg& init, Fold&& fold, Merge&& merge,
                             const HashPartitioner& partitioner,
                             const std::string& name = "aggregate_by_key") {
  Rdd<K, Agg> combined = detail::run_partitions<detail::CombinePartition>(
      engine, name + ":combine", fold, init, in);
  combined.partitioner_id = in.partitioner_id;

  const bool copartitioned =
      combined.partitioner_id == partitioner.id() &&
      combined.num_partitions() == partitioner.num_partitions;
  Rdd<K, Agg> shuffled =
      copartitioned ? std::move(combined)
                    : partition_by(engine, combined, partitioner,
                                   name + ":shuffle");

  // Final merge of accumulators that met in the same partition.
  Rdd<K, Agg> out = detail::run_partitions<detail::MergePartition>(
      engine, name + ":merge", merge, detail::None{}, shuffled);
  out.partitioner_id = partitioner.id();
  return out;
}

/// reduce_by_key specialization of aggregate_by_key. `reduce` must be
/// captureless like every closure; the fold and merge below call Reduce{}.
template <typename K, typename V, typename Reduce>
Rdd<K, V> reduce_by_key(Engine& engine, const Rdd<K, V>& in, Reduce&&,
                        const HashPartitioner& partitioner,
                        const std::string& name = "reduce_by_key") {
  using ReduceT = std::decay_t<Reduce>;
  detail::require_captureless<ReduceT>();
  auto wrapped = aggregate_by_key(
      engine, in, std::optional<V>{},
      [](std::optional<V>& agg, const V& v) {
        if (agg) {
          *agg = ReduceT{}(*agg, v);
        } else {
          agg = v;
        }
      },
      [](std::optional<V>& agg, std::optional<V>&& other) {
        if (agg && other) {
          *agg = ReduceT{}(*agg, *other);
        } else if (other) {
          agg = std::move(other);
        }
      },
      partitioner, name);
  // Unwrap the optional: every surviving key folded at least one value.
  return map_values(
      engine, wrapped, [](const std::optional<V>& v) { return *v; },
      name + ":unwrap");
}

/// Left outer join. Every left pair yields (v, matching right value or
/// nullopt). If both inputs are already laid out by `partitioner`, the join
/// is partition-local with zero shuffle; otherwise the non-conforming side(s)
/// are shuffled first and the traffic is recorded (the ablation measures
/// this difference). On the process backend, conforming sets produced by
/// the pool's wide stages place partition p on the same worker slot, so a
/// co-partitioned join reads both inputs locally in the worker.
template <typename K, typename V, typename W>
Rdd<K, std::pair<V, std::optional<W>>> left_outer_join(
    Engine& engine, const Rdd<K, V>& left, const Rdd<K, W>& right,
    const HashPartitioner& partitioner,
    const std::string& name = "left_outer_join") {
  const auto conforms = [&](std::uint64_t pid, std::size_t parts) {
    return pid == partitioner.id() && parts == partitioner.num_partitions;
  };
  const Rdd<K, V>* lhs = &left;
  Rdd<K, V> lhs_shuffled;
  if (!conforms(left.partitioner_id, left.num_partitions())) {
    lhs_shuffled = partition_by(engine, left, partitioner, name + ":shuffleL");
    lhs = &lhs_shuffled;
  }
  const Rdd<K, W>* rhs = &right;
  Rdd<K, W> rhs_shuffled;
  if (!conforms(right.partitioner_id, right.num_partitions())) {
    rhs_shuffled = partition_by(engine, right, partitioner, name + ":shuffleR");
    rhs = &rhs_shuffled;
  }
  auto out = detail::run_partitions<detail::JoinPartition>(
      engine, name, detail::None{}, detail::None{}, *lhs, *rhs);
  out.partitioner_id = partitioner.id();
  return out;
}

}  // namespace drapid
