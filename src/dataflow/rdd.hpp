// Key-value-pair RDDs and their transformations (the Spark stand-in).
//
// An Rdd<K, V> is a dataset physically split into partitions. Transformations
// execute eagerly on the engine's worker pool — one task per partition — and
// record measured work (records, bytes, shuffle traffic) into the engine's
// job metrics. The three mechanisms the paper's D-RAPID design leans on are
// all implemented for real:
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

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
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
    // Resident sets are decoded to run the exact same byte_size estimator
    // the local backend uses: this number feeds cache/spill decisions that
    // must not diverge between backends.
    if (resident) {
      std::size_t total = 0;
      for (std::size_t p = 0; p < partitions.size(); ++p) {
        const auto part = ipc::decode_payload<Pair>(pool_fetch(resident, p));
        for (const auto& kv : part) total += byte_size(kv);
      }
      return total;
    }
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

// --- Pooled stage kernels (PR 10) -------------------------------------------
//
// Under the process backend a stage cannot ship its body closure to
// the workers (they forked before it existed), so each transformation also
// compiles a *kernel*: a plain function that decodes its serialized inputs,
// applies the trivially-copyable closure bytes from the ctx, and returns the
// serialized output. Kernels travel by function pointer — parent and child
// are the same binary — and MUST fill TaskMetrics with exactly the numbers
// the local body records: the backends' stage reports are compared
// byte-for-byte in tests. Every kernel here mirrors its body line by line.

/// Returns `in` untouched when its partitions are locally materialized, or
/// decodes every resident partition into `storage` and returns that. Local
/// fallback paths read through this so bodies always see real vectors even
/// when an upstream pooled stage left its output worker-resident.
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

/// Names where task p's input partition lives: by residency handle when the
/// upstream set is worker-resident (the zero-copy chain case), otherwise as
/// inline bytes (chain heads), recorded by the pool for lineage. Tasks past
/// the source count (partition_by's >= 1 source clamp) get an empty payload.
template <typename K, typename V>
void fill_pool_input(PoolInputRef& ref, const Rdd<K, V>& in, std::size_t p) {
  if (in.resident) {
    ref.set = in.resident;
    ref.partition = p;
  } else {
    ref.inline_bytes = std::make_shared<const std::string>(
        p < in.num_partitions()
            ? ipc::encode_payload(in.partitions[p])
            : ipc::encode_payload(std::vector<std::pair<K, V>>{}));
  }
}

template <typename K, typename V>
std::function<std::vector<PoolInputRef>(std::size_t)> pool_inputs(
    const Rdd<K, V>& in) {
  return [&in](std::size_t task) {
    std::vector<PoolInputRef> refs(1);
    fill_pool_input(refs[0], in, task);
    return refs;
  };
}

/// Body stub for plan-backed stages. The pool backend never invokes the
/// body; any other backend reaching this indicates a mis-gated plan (plans
/// are only built when pool_residency() is non-null), so fail loudly rather
/// than silently producing empty partitions.
inline std::function<void(TaskContext&)> unpooled_body() {
  return [](TaskContext&) {
    throw std::logic_error("pooled stage body must not execute");
  };
}

template <typename K, typename V, typename OutPair, typename Fn>
std::string map_pairs_kernel(const PoolTaskCtx& ctx) {
  std::aligned_storage_t<sizeof(Fn), alignof(Fn)> storage;
  const Fn& fn = pool_closure_cast<Fn>(*ctx.closure, storage);
  const auto part = ipc::decode_payload<std::pair<K, V>>(*ctx.inputs.at(0));
  auto& task = *ctx.metrics;
  record_input(task, part);
  std::vector<OutPair> out;
  out.reserve(part.size());
  for (const auto& kv : part) out.push_back(fn(kv));
  record_output(task, out);
  return ipc::encode_payload(out);
}

template <typename K, typename V, typename V2, typename Fn>
std::string map_values_kernel(const PoolTaskCtx& ctx) {
  std::aligned_storage_t<sizeof(Fn), alignof(Fn)> storage;
  const Fn& fn = pool_closure_cast<Fn>(*ctx.closure, storage);
  const auto part = ipc::decode_payload<std::pair<K, V>>(*ctx.inputs.at(0));
  auto& task = *ctx.metrics;
  record_input(task, part);
  std::vector<std::pair<K, V2>> out;
  out.reserve(part.size());
  for (const auto& kv : part) out.emplace_back(kv.first, fn(kv.second));
  record_output(task, out);
  return ipc::encode_payload(out);
}

template <typename K, typename V, typename Pred>
std::string filter_kernel(const PoolTaskCtx& ctx) {
  std::aligned_storage_t<sizeof(Pred), alignof(Pred)> storage;
  const Pred& pred = pool_closure_cast<Pred>(*ctx.closure, storage);
  const auto part = ipc::decode_payload<std::pair<K, V>>(*ctx.inputs.at(0));
  auto& task = *ctx.metrics;
  record_input(task, part);
  std::vector<std::pair<K, V>> out;
  for (const auto& kv : part) {
    if (pred(kv)) out.push_back(kv);
  }
  record_output(task, out);
  return ipc::encode_payload(out);
}

template <typename K, typename V, typename OutPair, typename Fn>
std::string flat_map_kernel(const PoolTaskCtx& ctx) {
  std::aligned_storage_t<sizeof(Fn), alignof(Fn)> storage;
  const Fn& fn = pool_closure_cast<Fn>(*ctx.closure, storage);
  const auto part = ipc::decode_payload<std::pair<K, V>>(*ctx.inputs.at(0));
  auto& task = *ctx.metrics;
  record_input(task, part);
  task.compute_cost = 0;  // reported by fn instead of records_in
  std::vector<OutPair> out;
  for (const auto& kv : part) {
    std::size_t cost = 0;
    auto produced = fn(kv.first, kv.second, cost);
    task.compute_cost += cost;
    for (auto& item : produced) out.push_back(std::move(item));
  }
  record_output(task, out);
  return ipc::encode_payload(out);
}

/// Trivially-copyable closure of the wide shuffle kernel.
struct WideSpec {
  HashPartitioner part;
  std::uint64_t executors = 1;
};

/// Wide kernel: routes each record of source partition ctx.partition into
/// per-target segments (the bundle format of dataflow/ipc/pool.hpp). The
/// worker keeps its own slot's segments and pushes the rest; record bytes
/// never pass through the coordinator.
template <typename K, typename V>
std::string partition_by_kernel(const PoolTaskCtx& ctx) {
  std::aligned_storage_t<sizeof(WideSpec), alignof(WideSpec)> storage;
  const WideSpec& spec = pool_closure_cast<WideSpec>(*ctx.closure, storage);
  const auto records =
      ipc::decode_payload<std::pair<K, V>>(*ctx.inputs.at(0));
  auto& task = *ctx.metrics;
  const std::size_t p = ctx.partition;
  const std::size_t targets = ctx.num_targets;
  task.records_in = records.size();
  task.compute_cost = task.records_in / 4;
  std::vector<ipc::WireWriter> segs(targets);
  std::vector<std::uint64_t> counts(targets, 0);
  for (const auto& kv : records) {
    const std::size_t target = spec.part.of(kv.first);
    const std::size_t bytes = byte_size(kv);
    task.bytes_in += bytes;
    if (target % spec.executors != p % spec.executors) {
      task.shuffle_bytes += bytes;
    }
    ipc::encode_value(segs[target], kv);
    ++counts[target];
  }
  task.records_out = task.records_in;
  task.bytes_out = task.bytes_in;
  ipc::WireWriter bundle;
  bundle.put_u64(targets);
  for (std::size_t t = 0; t < targets; ++t) {
    bundle.put_u64(counts[t]);
    bundle.put_u64(segs[t].buffer().size());
    bundle.put_bytes(segs[t].buffer().data(), segs[t].buffer().size());
  }
  return bundle.take();
}

/// Trivially-copyable closure of the map-side combine kernel.
template <typename Agg, typename Fold>
struct CombineSpec {
  Agg init;
  Fold fold;
};

template <typename T, typename = void>
inline constexpr bool eq_comparable_v = false;
template <typename T>
inline constexpr bool eq_comparable_v<
    T, std::void_t<decltype(std::declval<const T&>() ==
                            std::declval<const T&>())>> = true;

template <typename K, typename V, typename Agg, typename Fold>
std::string combine_kernel(const PoolTaskCtx& ctx) {
  using Spec = CombineSpec<Agg, Fold>;
  std::aligned_storage_t<sizeof(Spec), alignof(Spec)> storage;
  const Spec& spec = pool_closure_cast<Spec>(*ctx.closure, storage);
  const auto part = ipc::decode_payload<std::pair<K, V>>(*ctx.inputs.at(0));
  auto& task = *ctx.metrics;
  record_input(task, part);
  task.compute_cost = task.records_in / 4;  // hash-fold per record
  FlatHashMap<K, Agg> local;
  local.reserve(part.size());
  for (const auto& kv : part) {
    auto [entry, inserted] = local.try_emplace(kv.first, spec.init);
    spec.fold(entry->second, kv.second);
  }
  auto combined = local.take_entries();
  record_output(task, combined);
  return ipc::encode_payload(combined);
}

/// Combine kernel for accumulators that are not trivially copyable (e.g.
/// std::string) but whose init value is default-constructed: only the fold
/// closure ships, and the worker materializes `Agg{}` per key itself.
template <typename K, typename V, typename Agg, typename Fold>
std::string combine_default_kernel(const PoolTaskCtx& ctx) {
  std::aligned_storage_t<sizeof(Fold), alignof(Fold)> storage;
  const Fold& fold = pool_closure_cast<Fold>(*ctx.closure, storage);
  const auto part = ipc::decode_payload<std::pair<K, V>>(*ctx.inputs.at(0));
  auto& task = *ctx.metrics;
  record_input(task, part);
  task.compute_cost = task.records_in / 4;  // hash-fold per record
  FlatHashMap<K, Agg> local;
  local.reserve(part.size());
  for (const auto& kv : part) {
    auto [entry, inserted] = local.try_emplace(kv.first, Agg{});
    fold(entry->second, kv.second);
  }
  auto combined = local.take_entries();
  record_output(task, combined);
  return ipc::encode_payload(combined);
}

template <typename K, typename Agg, typename Merge>
std::string merge_kernel(const PoolTaskCtx& ctx) {
  std::aligned_storage_t<sizeof(Merge), alignof(Merge)> storage;
  const Merge& merge = pool_closure_cast<Merge>(*ctx.closure, storage);
  auto part = ipc::decode_payload<std::pair<K, Agg>>(*ctx.inputs.at(0));
  auto& task = *ctx.metrics;
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
  return ipc::encode_payload(out);
}

/// Join kernel: inputs.at(0) = left partition p, inputs.at(1) = right
/// partition p (both already conforming to the join partitioner). Stateless
/// — the plan ships an empty closure.
template <typename K, typename V, typename W>
std::string join_kernel(const PoolTaskCtx& ctx) {
  const auto lhs = ipc::decode_payload<std::pair<K, V>>(*ctx.inputs.at(0));
  const auto rhs = ipc::decode_payload<std::pair<K, W>>(*ctx.inputs.at(1));
  auto& task = *ctx.metrics;
  record_input(task, lhs);
  FlatHashMultiMap<K, const W*> index;
  index.reserve(rhs.size());
  for (const auto& kv : rhs) {
    index.emplace(kv.first, &kv.second);
    task.bytes_in += byte_size(kv);
  }
  task.records_in += rhs.size();
  std::vector<std::pair<K, std::pair<V, std::optional<W>>>> out;
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
  return ipc::encode_payload(out);
}
}  // namespace detail

/// 1:1 transformation of whole pairs. Set `preserves_partitioning` only when
/// `fn` never changes keys.
template <typename K, typename V, typename Fn>
auto map_pairs(Engine& engine, const Rdd<K, V>& in, Fn&& fn,
               const std::string& name = "map_pairs",
               bool preserves_partitioning = false) {
  using OutPair = decltype(fn(std::declval<const std::pair<K, V>&>()));
  using FnT = std::decay_t<Fn>;
  Rdd<typename OutPair::first_type, typename OutPair::second_type> out;
  out.partitions.resize(in.num_partitions());
  out.partitioner_id = preserves_partitioning ? in.partitioner_id : 0;
  auto& stage = engine.begin_stage(name, in.num_partitions());
  if constexpr (std::is_trivially_copyable_v<FnT>) {
    if (engine.pool_residency() != nullptr && in.num_partitions() > 0) {
      PoolStagePlan plan;
      plan.kernel = &detail::map_pairs_kernel<K, V, OutPair, FnT>;
      plan.closure = pool_closure_bytes<FnT>(fn);
      plan.inputs = detail::pool_inputs(in);
      engine.run_stage(stage, detail::unpooled_body(), &plan);
      out.resident = std::move(plan.out);
      return out;
    }
  }
  Rdd<K, V> stor;
  const Rdd<K, V>& src = detail::localized(in, stor);
  engine.run_stage(stage, [&](TaskContext& ctx) {
    const std::size_t p = ctx.partition();
    auto& task = ctx.metrics();
    detail::record_input(task, src.partitions[p]);
    out.partitions[p].reserve(src.partitions[p].size());
    for (const auto& kv : src.partitions[p]) out.partitions[p].push_back(fn(kv));
    detail::record_output(task, out.partitions[p]);
  });
  return out;
}

/// Value-only transformation; always preserves partitioning.
template <typename K, typename V, typename Fn>
auto map_values(Engine& engine, const Rdd<K, V>& in, Fn&& fn,
                const std::string& name = "map_values") {
  using V2 = decltype(fn(std::declval<const V&>()));
  using FnT = std::decay_t<Fn>;
  Rdd<K, V2> out;
  out.partitions.resize(in.num_partitions());
  out.partitioner_id = in.partitioner_id;
  auto& stage = engine.begin_stage(name, in.num_partitions());
  if constexpr (std::is_trivially_copyable_v<FnT>) {
    if (engine.pool_residency() != nullptr && in.num_partitions() > 0) {
      PoolStagePlan plan;
      plan.kernel = &detail::map_values_kernel<K, V, V2, FnT>;
      plan.closure = pool_closure_bytes<FnT>(fn);
      plan.inputs = detail::pool_inputs(in);
      engine.run_stage(stage, detail::unpooled_body(), &plan);
      out.resident = std::move(plan.out);
      return out;
    }
  }
  Rdd<K, V> stor;
  const Rdd<K, V>& src = detail::localized(in, stor);
  engine.run_stage(stage, [&](TaskContext& ctx) {
    const std::size_t p = ctx.partition();
    auto& task = ctx.metrics();
    detail::record_input(task, src.partitions[p]);
    out.partitions[p].reserve(src.partitions[p].size());
    for (const auto& kv : src.partitions[p]) {
      out.partitions[p].emplace_back(kv.first, fn(kv.second));
    }
    detail::record_output(task, out.partitions[p]);
  });
  return out;
}

/// Keeps pairs where `pred(pair)` is true; preserves partitioning.
template <typename K, typename V, typename Pred>
Rdd<K, V> filter_pairs(Engine& engine, const Rdd<K, V>& in, Pred&& pred,
                       const std::string& name = "filter") {
  using PredT = std::decay_t<Pred>;
  Rdd<K, V> out;
  out.partitions.resize(in.num_partitions());
  out.partitioner_id = in.partitioner_id;
  auto& stage = engine.begin_stage(name, in.num_partitions());
  if constexpr (std::is_trivially_copyable_v<PredT>) {
    if (engine.pool_residency() != nullptr && in.num_partitions() > 0) {
      PoolStagePlan plan;
      plan.kernel = &detail::filter_kernel<K, V, PredT>;
      plan.closure = pool_closure_bytes<PredT>(pred);
      plan.inputs = detail::pool_inputs(in);
      engine.run_stage(stage, detail::unpooled_body(), &plan);
      out.resident = std::move(plan.out);
      return out;
    }
  }
  Rdd<K, V> stor;
  const Rdd<K, V>& src = detail::localized(in, stor);
  engine.run_stage(stage, [&](TaskContext& ctx) {
    const std::size_t p = ctx.partition();
    auto& task = ctx.metrics();
    detail::record_input(task, src.partitions[p]);
    for (const auto& kv : src.partitions[p]) {
      if (pred(kv)) out.partitions[p].push_back(kv);
    }
    detail::record_output(task, out.partitions[p]);
  });
  return out;
}

/// 1:many transformation with caller-reported compute cost:
/// fn(key, value, cost_inout) -> vector<pair<K2, V2>>.
template <typename K, typename V, typename Fn>
auto flat_map_metered(Engine& engine, const Rdd<K, V>& in, Fn&& fn,
                      const std::string& name = "flat_map") {
  using OutVec = decltype(fn(std::declval<const K&>(), std::declval<const V&>(),
                             std::declval<std::size_t&>()));
  using OutPair = typename OutVec::value_type;
  using FnT = std::decay_t<Fn>;
  Rdd<typename OutPair::first_type, typename OutPair::second_type> out;
  out.partitions.resize(in.num_partitions());
  auto& stage = engine.begin_stage(name, in.num_partitions());
  if constexpr (std::is_trivially_copyable_v<FnT>) {
    if (engine.pool_residency() != nullptr && in.num_partitions() > 0) {
      PoolStagePlan plan;
      plan.kernel = &detail::flat_map_kernel<K, V, OutPair, FnT>;
      plan.closure = pool_closure_bytes<FnT>(fn);
      plan.inputs = detail::pool_inputs(in);
      engine.run_stage(stage, detail::unpooled_body(), &plan);
      out.resident = std::move(plan.out);
      return out;
    }
  }
  Rdd<K, V> stor;
  const Rdd<K, V>& src = detail::localized(in, stor);
  engine.run_stage(stage, [&](TaskContext& ctx) {
    const std::size_t p = ctx.partition();
    auto& task = ctx.metrics();
    detail::record_input(task, src.partitions[p]);
    task.compute_cost = 0;  // reported by fn instead of records_in
    for (const auto& kv : src.partitions[p]) {
      std::size_t cost = 0;
      auto produced = fn(kv.first, kv.second, cost);
      task.compute_cost += cost;
      for (auto& item : produced) {
        out.partitions[p].push_back(std::move(item));
      }
    }
    detail::record_output(task, out.partitions[p]);
  });
  return out;
}

/// Wide transformation: re-buckets every pair by `partitioner`. Bytes that
/// land on a different modeled executor than they started on are counted as
/// shuffle traffic (partition p lives on executor p mod num_executors).
template <typename K, typename V>
Rdd<K, V> partition_by(Engine& engine, const Rdd<K, V>& in,
                       const HashPartitioner& partitioner,
                       const std::string& name = "partition_by") {
  const std::size_t sources = std::max<std::size_t>(1, in.num_partitions());
  const std::size_t targets = partitioner.num_partitions;
  const std::size_t executors = std::max<std::size_t>(
      1, engine.config().num_executors);
  Rdd<K, V> out;
  out.partitions.resize(targets);
  out.partitioner_id = partitioner.id();

  if (engine.pool_residency() != nullptr) {
    // Worker-routed shuffle: each source task runs the wide kernel, keeps
    // the segments owned by its own worker slot and pushes the rest
    // worker-to-worker through the parent. The shuffled records never enter
    // the coordinator; the output stays resident.
    auto& stage = engine.begin_stage(name, sources);
    PoolStagePlan plan;
    plan.kind = PoolStagePlan::Kind::kWide;
    plan.kernel = &detail::partition_by_kernel<K, V>;
    detail::WideSpec spec{partitioner, static_cast<std::uint64_t>(executors)};
    plan.closure = pool_closure_bytes(spec);
    plan.num_targets = targets;
    plan.inputs = detail::pool_inputs(in);
    engine.run_stage(stage, detail::unpooled_body(), &plan);
    out.resident = std::move(plan.out);
    return out;
  }
  Rdd<K, V> stor;
  const Rdd<K, V>& src = detail::localized(in, stor);

  // Two passes, no intermediate buckets: pass 1 hashes each record once,
  // remembering its target and counting per (source, target); pass 2 copies
  // every record directly into its final slot. Target partition t holds
  // source 0's records for t in order, then source 1's, ... — the same
  // deterministic layout the old bucket-then-gather version produced.
  std::vector<std::vector<std::uint32_t>> target_of(sources);
  std::vector<std::vector<std::size_t>> counts(
      sources, std::vector<std::size_t>(targets, 0));
  auto& stage = engine.begin_stage(name, sources);
  engine.run_stage(stage, [&](TaskContext& ctx) {
    const std::size_t p = ctx.partition();
    if (p >= src.num_partitions()) return;  // sources is clamped to >= 1
    auto& task = ctx.metrics();
    const auto& records = src.partitions[p];
    task.records_in = records.size();
    // Bucketing is a hash + copy per record — far cheaper than a parse or
    // search step; the bytes cost is paid at the network term.
    task.compute_cost = task.records_in / 4;
    target_of[p].resize(records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
      const std::size_t target = partitioner.of(records[i].first);
      target_of[p][i] = static_cast<std::uint32_t>(target);
      ++counts[p][target];
      // One byte_size walk, shared by the input and shuffle byte counts.
      const std::size_t bytes = byte_size(records[i]);
      task.bytes_in += bytes;
      if (target % executors != p % executors) task.shuffle_bytes += bytes;
    }
    task.records_out = task.records_in;
    task.bytes_out = task.bytes_in;
  });
  // offsets[s][t] = where source s's run starts inside target t.
  std::vector<std::vector<std::size_t>> offsets(
      sources, std::vector<std::size_t>(targets, 0));
  for (std::size_t t = 0; t < targets; ++t) {
    std::size_t total = 0;
    for (std::size_t s = 0; s < sources; ++s) {
      offsets[s][t] = total;
      total += counts[s][t];
    }
    out.partitions[t].resize(total);
  }
  // Sources write disjoint slices of each target, so this parallelizes
  // without synchronization.
  engine.pool().parallel_for(sources, [&](std::size_t s) {
    if (s >= src.num_partitions()) return;
    const auto& records = src.partitions[s];
    auto& cursor = offsets[s];
    for (std::size_t i = 0; i < records.size(); ++i) {
      const std::uint32_t t = target_of[s][i];
      out.partitions[t][cursor[t]++] = records[i];
    }
  });
  return out;
}

/// Map-side combine + (if needed) shuffle + final merge. `fold(agg, v)`
/// folds one value into a per-key accumulator initialized with `init`;
/// `merge(agg, other)` combines accumulators from different partitions.
/// The result is partitioned by `partitioner`; if `in` already is, the
/// aggregation is purely local (zero shuffle — the Figure 3 optimization).
template <typename K, typename V, typename Agg, typename Fold, typename Merge>
Rdd<K, Agg> aggregate_by_key(Engine& engine, const Rdd<K, V>& in,
                             const Agg& init, Fold&& fold, Merge&& merge,
                             const HashPartitioner& partitioner,
                             const std::string& name = "aggregate_by_key") {
  using FoldT = std::decay_t<Fold>;
  using MergeT = std::decay_t<Merge>;
  // Map-side combine per partition.
  Rdd<K, Agg> combined;
  combined.partitions.resize(in.num_partitions());
  combined.partitioner_id = in.partitioner_id;
  auto& stage = engine.begin_stage(name + ":combine", in.num_partitions());
  bool pooled_combine = false;
  if constexpr (std::is_trivially_copyable_v<detail::CombineSpec<Agg, FoldT>>) {
    if (engine.pool_residency() != nullptr && in.num_partitions() > 0) {
      PoolStagePlan plan;
      plan.kernel = &detail::combine_kernel<K, V, Agg, FoldT>;
      detail::CombineSpec<Agg, FoldT> spec{init, fold};
      plan.closure = pool_closure_bytes(spec);
      plan.inputs = detail::pool_inputs(in);
      engine.run_stage(stage, detail::unpooled_body(), &plan);
      combined.resident = std::move(plan.out);
      pooled_combine = true;
    }
  } else if constexpr (std::is_trivially_copyable_v<FoldT> &&
                       std::is_default_constructible_v<Agg> &&
                       detail::eq_comparable_v<Agg>) {
    // The accumulator itself can't ship by bytes, but when the caller's init
    // is just a default-constructed value the worker can rebuild it locally.
    if (engine.pool_residency() != nullptr && in.num_partitions() > 0 &&
        init == Agg{}) {
      PoolStagePlan plan;
      plan.kernel = &detail::combine_default_kernel<K, V, Agg, FoldT>;
      plan.closure = pool_closure_bytes<FoldT>(fold);
      plan.inputs = detail::pool_inputs(in);
      engine.run_stage(stage, detail::unpooled_body(), &plan);
      combined.resident = std::move(plan.out);
      pooled_combine = true;
    }
  }
  if (!pooled_combine) {
    Rdd<K, V> stor;
    const Rdd<K, V>& src = detail::localized(in, stor);
    engine.run_stage(stage, [&](TaskContext& ctx) {
      const std::size_t p = ctx.partition();
      auto& task = ctx.metrics();
      detail::record_input(task, src.partitions[p]);
      task.compute_cost = task.records_in / 4;  // hash-fold per record
      // Accumulators live densely in the flat map in first-encounter order —
      // a pure function of the partition's record sequence, so the emitted
      // layout is identical across thread counts and hash-table capacities.
      FlatHashMap<K, Agg> local;
      local.reserve(src.partitions[p].size());
      for (const auto& kv : src.partitions[p]) {
        auto [entry, inserted] = local.try_emplace(kv.first, init);
        fold(entry->second, kv.second);
      }
      combined.partitions[p] = local.take_entries();
      detail::record_output(task, combined.partitions[p]);
    });
  }

  const bool copartitioned =
      combined.partitioner_id == partitioner.id() &&
      combined.num_partitions() == partitioner.num_partitions;
  Rdd<K, Agg> shuffled =
      copartitioned ? std::move(combined)
                    : partition_by(engine, combined, partitioner,
                                   name + ":shuffle");

  // Final merge of accumulators that met in the same partition.
  Rdd<K, Agg> out;
  out.partitions.resize(shuffled.num_partitions());
  out.partitioner_id = partitioner.id();
  auto& merge_stage =
      engine.begin_stage(name + ":merge", shuffled.num_partitions());
  if constexpr (std::is_trivially_copyable_v<MergeT>) {
    if (engine.pool_residency() != nullptr && shuffled.num_partitions() > 0) {
      PoolStagePlan plan;
      plan.kernel = &detail::merge_kernel<K, Agg, MergeT>;
      plan.closure = pool_closure_bytes<MergeT>(merge);
      plan.inputs = detail::pool_inputs(shuffled);
      engine.run_stage(merge_stage, detail::unpooled_body(), &plan);
      out.resident = std::move(plan.out);
      return out;
    }
  }
  ensure_local(shuffled);  // the merge body consumes its input by move
  engine.run_stage(merge_stage, [&](TaskContext& ctx) {
    const std::size_t p = ctx.partition();
    auto& task = ctx.metrics();
    detail::record_input(task, shuffled.partitions[p]);
    task.compute_cost = task.records_in / 4;  // hash-merge per record
    FlatHashMap<K, Agg> local;
    local.reserve(shuffled.partitions[p].size());
    for (auto& kv : shuffled.partitions[p]) {
      auto [entry, inserted] = local.try_emplace(kv.first, std::move(kv.second));
      if (!inserted) merge(entry->second, std::move(kv.second));
    }
    out.partitions[p] = local.take_entries();
    detail::record_output(task, out.partitions[p]);
  });
  return out;
}

/// reduce_by_key specialization of aggregate_by_key.
template <typename K, typename V, typename Reduce>
Rdd<K, V> reduce_by_key(Engine& engine, const Rdd<K, V>& in, Reduce&& reduce,
                        const HashPartitioner& partitioner,
                        const std::string& name = "reduce_by_key") {
  // `reduce` is captured by value so the fold/merge closures stay trivially
  // copyable whenever it is — the property that lets the process backend
  // ship them to resident workers as raw bytes.
  auto wrapped = aggregate_by_key(
      engine, in, std::optional<V>{},
      [reduce](std::optional<V>& agg, const V& v) {
        if (agg) {
          *agg = reduce(*agg, v);
        } else {
          agg = v;
        }
      },
      [reduce](std::optional<V>& agg, std::optional<V>&& other) {
        if (agg && other) {
          *agg = reduce(*agg, *other);
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
/// this difference).
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

  Rdd<K, std::pair<V, std::optional<W>>> out;
  out.partitions.resize(partitioner.num_partitions);
  out.partitioner_id = partitioner.id();
  auto& stage = engine.begin_stage(name, partitioner.num_partitions);
  if (engine.pool_residency() != nullptr && partitioner.num_partitions > 0) {
    // Both sides conform to `partitioner` here, and conforming sets produced
    // by the pool's wide stages place partition p on the same worker slot —
    // so a co-partitioned join reads both inputs locally in the worker.
    PoolStagePlan plan;
    plan.kernel = &detail::join_kernel<K, V, W>;  // stateless: empty closure
    plan.inputs = [&left = *lhs, &right = *rhs](std::size_t task) {
      std::vector<PoolInputRef> refs(2);
      detail::fill_pool_input(refs[0], left, task);
      detail::fill_pool_input(refs[1], right, task);
      return refs;
    };
    engine.run_stage(stage, detail::unpooled_body(), &plan);
    out.resident = std::move(plan.out);
    return out;
  }
  Rdd<K, V> lstor;
  Rdd<K, W> rstor;
  const Rdd<K, V>* jl = &detail::localized(*lhs, lstor);
  const Rdd<K, W>* jr = &detail::localized(*rhs, rstor);
  engine.run_stage(stage, [&, lhs = jl, rhs = jr](TaskContext& ctx) {
    const std::size_t p = ctx.partition();
    auto& task = ctx.metrics();
    detail::record_input(task, lhs->partitions[p]);
    // Build side: duplicate right keys keep partition order in the chain,
    // so matches are emitted deterministically per left record.
    FlatHashMultiMap<K, const W*> index;
    index.reserve(rhs->partitions[p].size());
    for (const auto& kv : rhs->partitions[p]) {
      index.emplace(kv.first, &kv.second);
      task.bytes_in += byte_size(kv);
    }
    task.records_in += rhs->partitions[p].size();
    // Exact when right keys are unique, a lower bound otherwise.
    out.partitions[p].reserve(lhs->partitions[p].size());
    for (const auto& kv : lhs->partitions[p]) {
      const bool matched = index.for_each(kv.first, [&](const W* w) {
        out.partitions[p].emplace_back(std::piecewise_construct,
                                       std::forward_as_tuple(kv.first),
                                       std::forward_as_tuple(kv.second, *w));
      });
      if (!matched) {
        out.partitions[p].emplace_back(std::piecewise_construct,
                                       std::forward_as_tuple(kv.first),
                                       std::forward_as_tuple(kv.second,
                                                            std::nullopt));
      }
    }
    detail::record_output(task, out.partitions[p]);
  });
  return out;
}

}  // namespace drapid
