// Microbenchmarks for the dataflow substrate: partitioning, aggregation,
// the co-partitioned join fast path vs the shuffling slow path, the spill
// round trip, and the worker pool's data plane (frame checksum, chain-head
// shipping).
#include <benchmark/benchmark.h>

#include "micro_support.hpp"

#include "dataflow/rdd.hpp"
#include "dataflow/spill.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"

namespace drapid {
namespace {

EngineConfig bench_config() {
  EngineConfig cfg;
  cfg.num_executors = 4;
  cfg.exec = ExecPolicy::local(2);
  cfg.partitions_per_core = 4;
  return cfg;
}

std::vector<std::pair<std::string, std::string>> make_pairs(std::size_t n,
                                                            std::size_t keys) {
  std::vector<std::pair<std::string, std::string>> pairs;
  pairs.reserve(n);
  Rng rng(11);
  for (std::size_t i = 0; i < n; ++i) {
    pairs.emplace_back("key" + std::to_string(rng.below(keys)),
                       "value-" + std::to_string(i));
  }
  return pairs;
}

void BM_PartitionBy(benchmark::State& state) {
  Engine engine(bench_config());
  const auto rdd = parallelize(
      engine, make_pairs(static_cast<std::size_t>(state.range(0)), 100), 8);
  const HashPartitioner part{32};
  for (auto _ : state) {
    benchmark::DoNotOptimize(partition_by(engine, rdd, part));
    engine.reset_metrics();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_PartitionBy)->Arg(10000)->Arg(100000);

void BM_AggregateByKey(benchmark::State& state) {
  Engine engine(bench_config());
  const auto rdd = parallelize(
      engine, make_pairs(static_cast<std::size_t>(state.range(0)), 100), 8);
  const HashPartitioner part{32};
  for (auto _ : state) {
    auto counts = aggregate_by_key(
        engine, rdd, std::size_t{0},
        [](std::size_t& agg, const std::string&) { ++agg; },
        [](std::size_t& agg, std::size_t&& other) { agg += other; }, part);
    benchmark::DoNotOptimize(counts);
    engine.reset_metrics();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AggregateByKey)->Arg(10000)->Arg(100000);

// The same shuffle through the process backend's job-lifetime worker pool,
// measured the way a mid-job shuffle actually runs: the source partitions
// are already resident in the workers (parked there by an earlier stage,
// outside the timed loop), so each iteration pays neither a fork nor the
// source bytes — only the genuinely shuffled segments cross the sockets.
// The gap to BM_PartitionBy is the pool's per-stage IPC overhead.
void BM_PooledShuffle(benchmark::State& state) {
  EngineConfig cfg = bench_config();
  cfg.exec = ExecPolicy::process(static_cast<std::size_t>(state.range(1)), 2);
  Engine engine(cfg);
  const auto rdd = parallelize(
      engine, make_pairs(static_cast<std::size_t>(state.range(0)), 100), 8);
  // Park the source in the pool: after this shuffle the partitions live in
  // the workers and every timed iteration reads them in place.
  const auto resident = partition_by(engine, rdd, HashPartitioner{8});
  const HashPartitioner part{32};
  for (auto _ : state) {
    benchmark::DoNotOptimize(partition_by(engine, resident, part));
    engine.reset_metrics();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_PooledShuffle)->Args({10000, 2})->Args({10000, 4});

// The word checksum every wire frame, spill file and archive segment is
// verified with, over random bytes.
void BM_WireChecksum(benchmark::State& state) {
  std::string bytes(static_cast<std::size_t>(state.range(0)), '\0');
  Rng rng(5);
  for (auto& c : bytes) c = static_cast<char>(rng.below(256));
  for (auto _ : state) {
    Checksum sum;
    sum.update(bytes.data(), bytes.size());
    benchmark::DoNotOptimize(sum.digest());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_WireChecksum)->Arg(4 << 10)->Arg(1 << 20)->Arg(16 << 20);

// A narrow stage over parent-held partitions on 3 pool workers: each
// iteration encodes about 24 MB of chain-head bytes and ships them to the
// workers, which keep the outputs resident. Wall time, since the work is
// split between the parent and the worker processes.
void BM_PooledChainHead(benchmark::State& state) {
  EngineConfig cfg = bench_config();
  cfg.exec = ExecPolicy::process(3, 1);
  Engine engine(cfg);
  std::vector<std::pair<std::string, std::string>> pairs;
  std::size_t bytes = 0;
  for (std::size_t i = 0; i < 384; ++i) {
    pairs.emplace_back("key" + std::to_string(i),
                       std::string(64 << 10, static_cast<char>('a' + i % 26)));
    bytes += pairs.back().first.size() + pairs.back().second.size();
  }
  const auto rdd = parallelize(engine, std::move(pairs), 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(map_pairs(
        engine, rdd,
        [](const std::pair<std::string, std::string>& kv) { return kv; },
        "chain_head"));
    engine.reset_metrics();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_PooledChainHead)->UseRealTime();

void BM_JoinCopartitioned(benchmark::State& state) {
  Engine engine(bench_config());
  const HashPartitioner part{16};
  const auto left = partition_by(
      engine,
      parallelize(engine,
                  make_pairs(static_cast<std::size_t>(state.range(0)), 500), 8),
      part);
  const auto right = partition_by(
      engine, parallelize(engine, make_pairs(500, 500), 4), part);
  for (auto _ : state) {
    benchmark::DoNotOptimize(left_outer_join(engine, left, right, part));
    engine.reset_metrics();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_JoinCopartitioned)->Arg(10000)->Arg(50000);

void BM_JoinWithShuffle(benchmark::State& state) {
  Engine engine(bench_config());
  const HashPartitioner part{16};
  const auto left = parallelize(
      engine, make_pairs(static_cast<std::size_t>(state.range(0)), 500), 8);
  const auto right = parallelize(engine, make_pairs(500, 500), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(left_outer_join(engine, left, right, part));
    engine.reset_metrics();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_JoinWithShuffle)->Arg(10000)->Arg(50000);

void BM_SpillRoundTrip(benchmark::State& state) {
  EngineConfig cfg = bench_config();
  cfg.executor_memory_bytes = 1;  // force the spill
  cfg.num_executors = 1;
  for (auto _ : state) {
    state.PauseTiming();
    Engine engine(cfg);
    auto rdd = parallelize(
        engine, make_pairs(static_cast<std::size_t>(state.range(0)), 100), 4);
    state.ResumeTiming();
    CachedStringRdd cached(engine, std::move(rdd), "bm");
    benchmark::DoNotOptimize(cached.materialize());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SpillRoundTrip)->Arg(10000);

// materialize() copies an in-memory cache; borrow() hands out a const
// reference in O(1). The pair documents why the driver borrows the cached
// SPE RDD instead of materializing it (same data, no deep copy).
void BM_MaterializeCopy(benchmark::State& state) {
  Engine engine(bench_config());
  CachedStringRdd cached(
      engine,
      parallelize(engine,
                  make_pairs(static_cast<std::size_t>(state.range(0)), 100), 4),
      "bm");
  for (auto _ : state) {
    benchmark::DoNotOptimize(cached.materialize());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_MaterializeCopy)->Arg(10000)->Arg(100000);

void BM_BorrowInMemory(benchmark::State& state) {
  Engine engine(bench_config());
  CachedStringRdd cached(
      engine,
      parallelize(engine,
                  make_pairs(static_cast<std::size_t>(state.range(0)), 100), 4),
      "bm");
  for (auto _ : state) {
    benchmark::DoNotOptimize(&cached.borrow());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_BorrowInMemory)->Arg(10000)->Arg(100000);

void BM_StableHash(benchmark::State& state) {
  const std::string key = "PALFA|56000.01|213.77|15.22|3";
  for (auto _ : state) {
    benchmark::DoNotOptimize(stable_hash(key));
  }
}
BENCHMARK(BM_StableHash);

}  // namespace
}  // namespace drapid

DRAPID_MICRO_MAIN("bench_micro_dataflow",
                  "Micro-benchmarks for the dataflow engine primitives: partition, aggregate, join, spill round-trips.")
