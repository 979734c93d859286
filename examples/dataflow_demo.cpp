// The dataflow substrate on its own: a generic keyed-analytics job showing
// the same primitives D-RAPID is built from — block store, KVP RDDs, hash
// partitioning, aggregate-by-key, co-partitioned left outer join, and the
// work metrics the cluster cost model prices.
//
// The job: per-city weather readings joined against a city->region table,
// producing per-city maxima with their region.
//
//   ./examples/dataflow_demo [--rows N]
#include <iostream>
#include <sstream>

#include "dataflow/block_store.hpp"
#include "dataflow/cluster_model.hpp"
#include "dataflow/rdd.hpp"
#include "util/csv.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/text_table.hpp"

using namespace drapid;

int main(int argc, char** argv) {
  Options opts(argc, argv, {{"rows", "20000"}});
  const auto rows = static_cast<std::size_t>(opts.integer("rows"));

  // Synthesize a readings file and a regions file in the block store.
  const std::vector<std::string> cities = {"austin", "boston", "chicago",
                                           "denver", "eugene", "fairmont"};
  Rng rng(7);
  std::ostringstream readings;
  for (std::size_t i = 0; i < rows; ++i) {
    readings << cities[rng.below(cities.size())] << ','
             << format_number(rng.normal(15.0, 12.0), 2) << '\n';
  }
  BlockStore store(4, /*block_size=*/16 << 10);
  store.put("readings.csv", readings.str());
  std::cout << "readings.csv: " << store.file_size("readings.csv")
            << " bytes in " << store.blocks("readings.csv").size()
            << " replicated blocks\n";

  EngineConfig config;
  config.num_executors = 4;
  config.exec.threads_per_worker = 2;
  Engine engine(config);

  // Load: one partition per block chunk.
  const auto chunks = store.line_chunks("readings.csv");
  std::vector<std::pair<std::string, double>> pairs;
  for (const auto& chunk : chunks) {
    std::istringstream in(chunk);
    std::string line;
    while (std::getline(in, line)) {
      const auto comma = line.find(',');
      pairs.emplace_back(line.substr(0, comma),
                         parse_double(line.substr(comma + 1)));
    }
  }
  auto readings_rdd = parallelize(engine, std::move(pairs), chunks.size());

  // Region table as a small co-partitioned RDD.
  std::vector<std::pair<std::string, std::string>> region_pairs = {
      {"austin", "south"},   {"boston", "northeast"}, {"chicago", "midwest"},
      {"denver", "mountain"}, {"eugene", "pacific"},  {"fairmont", "northeast"}};
  const HashPartitioner part{8};
  auto regions = partition_by(
      engine, parallelize(engine, std::move(region_pairs), 2), part);

  // Max temperature per city, laid out with the shared partitioner...
  auto maxima = reduce_by_key(
      engine, readings_rdd,
      [](double a, double b) { return std::max(a, b); }, part);
  // ...so this join shuffles nothing.
  auto joined = left_outer_join(engine, maxima, regions, part);

  std::vector<std::vector<std::string>> table;
  table.push_back({"city", "max_temp", "region"});
  auto all = joined.collect();
  std::sort(all.begin(), all.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [city, value] : all) {
    table.push_back({city, format_number(value.first, 2),
                     value.second.value_or("<unknown>")});
  }
  std::cout << '\n' << render_table(table);

  std::cout << "\nmeasured work:\n" << engine.metrics().summary();
  const auto sim = simulate_cluster(engine.metrics(),
                                    ClusterSpec::paper_beowulf(4));
  std::cout << "modeled time on a 4-executor beowulf cluster: "
            << format_number(sim.total_seconds, 3) << " s\n";
  std::cout << "join-stage shuffle bytes: ";
  std::size_t join_shuffle = 0;
  for (const auto& s : engine.metrics().stages) {
    if (s.name.rfind("left_outer_join:shuffle", 0) == 0) {
      join_shuffle += s.total_shuffle_bytes();
    }
  }
  std::cout << join_shuffle << " (co-partitioned: expect 0)\n";
  return 0;
}
