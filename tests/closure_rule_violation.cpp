// Must NOT compile: hands a capturing lambda to the transformation named by
// the VIOLATION macro. ctest compiles it once per transformation and passes
// only when the compiler rejects it with the closure rule's static_assert;
// a control compile with VIOLATION=-1 must succeed (see tests/CMakeLists.txt).
// Never linked into any target.
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dataflow/rdd.hpp"

namespace drapid {

void violate(Engine& engine, const Rdd<int, int>& in) {
  int offset = 1;
  const HashPartitioner part{2};
#if VIOLATION == 0  // map_pairs, capture by reference
  map_pairs(engine, in, [&offset](const std::pair<int, int>& kv) {
    return std::make_pair(kv.first, kv.second + offset);
  });
#elif VIOLATION == 1  // map_values, capture by value
  map_values(engine, in, [offset](int v) { return v + offset; });
#elif VIOLATION == 2  // filter_pairs, capture by pointer
  const int* limit = &offset;
  filter_pairs(engine, in, [limit](const std::pair<int, int>& kv) {
    return kv.second > *limit;
  });
#elif VIOLATION == 3  // flat_map_metered, capture by reference
  flat_map_metered(engine, in,
                   [&offset](const int& k, const int& v, std::size_t& cost) {
                     ++cost;
                     return std::vector<std::pair<int, int>>{{k, v + offset}};
                   });
#elif VIOLATION == 4  // aggregate_by_key, capturing fold
  aggregate_by_key(
      engine, in, 0, [offset](int& agg, int v) { agg += v + offset; },
      [](int& agg, int&& other) { agg += other; }, part);
#elif VIOLATION == 5  // aggregate_by_key, capturing merge
  aggregate_by_key(
      engine, in, 0, [](int& agg, int v) { agg += v; },
      [&offset](int& agg, int&& other) { agg += other + offset; }, part);
#elif VIOLATION == 6  // reduce_by_key, capture by value
  reduce_by_key(engine, in, [offset](int a, int b) { return a + b + offset; },
                part);
#endif
}

}  // namespace drapid
