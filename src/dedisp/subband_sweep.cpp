#include "dedisp/subband_sweep.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "dedisp/kernels.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace drapid {

namespace {

/// Group g of `num_groups` near-equal contiguous channel ranges (the first
/// channels % num_groups groups take one extra channel).
SubbandGroup group_at(std::size_t channels, std::size_t num_groups,
                      std::size_t g) {
  const std::size_t base = channels / num_groups;
  const std::size_t extra = channels % num_groups;
  SubbandGroup group;
  group.begin = static_cast<std::uint32_t>(g * base + std::min(g, extra));
  group.end = group.begin +
              static_cast<std::uint32_t>(base + (g < extra ? 1 : 0));
  return group;
}

/// Dedups one group's residual windows across every plan without building
/// them: each window is hashed in place off the plan's shift vector, and a
/// hash match is confirmed element by element against the first plan that
/// produced the window, so pattern ids and counts are exact whatever the
/// hash does. One open-addressing table, sized once from the plan count,
/// serves every group of every probed G; a per-group stamp retires the
/// previous group's slots without clearing them.
class ResidualIndex {
 public:
  ResidualIndex(const SweepPlan& sweep, std::size_t num_samples)
      : sweep_(sweep), clamp_(static_cast<std::uint32_t>(num_samples)) {
    std::size_t capacity = 16;
    while (capacity < 2 * sweep.plans.size()) capacity <<= 1;
    slots_.resize(capacity);
    mask_ = capacity - 1;
  }

  /// Calls fn(plan, pattern, base, fresh) for every plan in order, where
  /// `pattern` numbers the group's distinct windows in first-use order and
  /// `base` is the plan's min shift over the group; returns the count.
  template <typename Fn>
  std::uint32_t index(const SubbandGroup& group, Fn&& fn) {
    ++stamp_;
    std::uint32_t count = 0;
    const std::size_t len = group.size();
    for (std::size_t p = 0; p < sweep_.plans.size(); ++p) {
      const std::uint32_t* shifts = sweep_.plans[p].shifts.data() + group.begin;
      std::uint32_t base = clamp_;
      for (std::size_t i = 0; i < len; ++i) base = std::min(base, shifts[i]);
      std::uint64_t h = 0x9E3779B97F4A7C15ull;
      for (std::size_t i = 0; i < len; ++i) {
        h = ((h << 5) | (h >> 59)) ^ (shifts[i] - base);
        h *= 0xFF51AFD7ED558CCDull;
      }
      h ^= h >> 32;
      for (std::size_t at = h & mask_;; at = (at + 1) & mask_) {
        Slot& slot = slots_[at];
        if (slot.stamp != stamp_) {
          slot = {h, stamp_, static_cast<std::uint32_t>(p), base, count};
          fn(p, count++, base, true);
          break;
        }
        if (slot.hash == h && same_window(group, slot, shifts, base)) {
          fn(p, slot.pattern, base, false);
          break;
        }
      }
    }
    return count;
  }

  /// The count-only probe: index() with nothing recorded.
  std::uint32_t count(const SubbandGroup& group) {
    return index(group, [](std::size_t, std::uint32_t, std::uint32_t, bool) {});
  }

 private:
  struct Slot {
    std::uint64_t hash = 0;
    std::uint32_t stamp = 0;
    std::uint32_t plan = 0;  ///< representative: first plan with the window
    std::uint32_t base = 0;  ///< the representative's group base shift
    std::uint32_t pattern = 0;
  };

  bool same_window(const SubbandGroup& group, const Slot& slot,
                   const std::uint32_t* shifts, std::uint32_t base) const {
    const std::uint32_t* rep =
        sweep_.plans[slot.plan].shifts.data() + group.begin;
    for (std::size_t i = 0; i < group.size(); ++i) {
      if (shifts[i] - base != rep[i] - slot.base) return false;
    }
    return true;
  }

  const SweepPlan& sweep_;
  std::uint32_t clamp_;
  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::uint32_t stamp_ = 0;
};

SubbandPlan decompose(const SweepPlan& sweep, std::size_t channels,
                      std::size_t num_samples, std::size_t num_groups) {
  SubbandPlan sub;
  sub.num_plans = sweep.plans.size();
  sub.groups.resize(num_groups);
  sub.patterns.resize(num_groups);
  sub.entries.resize(sub.num_plans * num_groups);
  sub.pattern_base.resize(num_groups + 1);
  ResidualIndex index(sweep, num_samples);
  for (std::size_t g = 0; g < num_groups; ++g) {
    const SubbandGroup group = group_at(channels, num_groups, g);
    sub.groups[g] = group;
    index.index(group, [&](std::size_t p, std::uint32_t pattern,
                           std::uint32_t base, bool fresh) {
      if (fresh) {
        // base is the group's min shift, so residuals never underflow; a
        // residual at the clamp value contributes nothing, matching the
        // clamped full shift exactly.
        SubbandPattern residuals;
        residuals.residuals.resize(group.size());
        for (std::uint32_t c = group.begin; c < group.end; ++c) {
          const std::uint32_t r = sweep.plans[p].shifts[c] - base;
          residuals.residuals[c - group.begin] = r;
          sub.max_residual = std::max(sub.max_residual, r);
        }
        sub.patterns[g].push_back(std::move(residuals));
      }
      sub.entries[p * num_groups + g] = {pattern, base};
    });
    sub.pattern_base[g + 1] = sub.pattern_base[g] + sub.patterns[g].size();
  }
  sub.total_patterns = sub.pattern_base[num_groups];
  return sub;
}

}  // namespace

SubbandPlan build_subband_plan(const SweepPlan& sweep, std::size_t channels,
                               std::size_t num_samples, std::size_t groups) {
  if (channels == 0) {
    SubbandPlan empty;
    empty.num_plans = sweep.plans.size();
    empty.pattern_base = {0};
    return empty;
  }
  if (groups > 0) {
    return decompose(sweep, channels, num_samples,
                     std::min(groups, channels));
  }
  // Auto: the cost-model argmin over the ladder (first minimum wins). The
  // model is bytes touched per output sample: a stage-1 channel row costs a
  // float read plus a double read-modify-write (20 B); a plan's stage-2
  // fused combine reads G doubles and writes one (8G + 16 B with the write
  // and float-rounding slop amortized). It needs only pattern counts, so
  // every candidate is a count-only probe and only the winner is
  // decomposed.
  ResidualIndex index(sweep, num_samples);
  std::size_t best_groups = 0;
  double best_cost = 0.0;
  for (const std::size_t num_groups : detail::kSubbandGroupLadder) {
    if (num_groups > channels) break;
    double stage1 = 0.0;
    for (std::size_t g = 0; g < num_groups; ++g) {
      const SubbandGroup group = group_at(channels, num_groups, g);
      stage1 += 20.0 * static_cast<double>(index.count(group)) *
                static_cast<double>(group.size());
    }
    const double stage2 = static_cast<double>(sweep.plans.size()) *
                          (8.0 * static_cast<double>(num_groups) + 16.0);
    const double cost = stage1 + stage2;
    if (best_groups == 0 || cost < best_cost) {
      best_cost = cost;
      best_groups = num_groups;
    }
  }
  return decompose(sweep, channels, num_samples, best_groups);
}

namespace detail {

std::size_t count_subband_patterns(const SweepPlan& sweep,
                                   std::size_t channels,
                                   std::size_t num_samples,
                                   std::size_t groups) {
  if (channels == 0) return 0;
  const std::size_t num_groups = std::clamp<std::size_t>(groups, 1, channels);
  ResidualIndex index(sweep, num_samples);
  std::size_t total = 0;
  for (std::size_t g = 0; g < num_groups; ++g) {
    total += index.count(group_at(channels, num_groups, g));
  }
  return total;
}

}  // namespace detail

std::size_t SubbandPlan::group_of(std::size_t node) const {
  return static_cast<std::size_t>(
      std::upper_bound(pattern_base.begin(), pattern_base.end(), node) -
      pattern_base.begin() - 1);
}

void accumulate_subband_node(const ChannelRows& rows, const SubbandPlan& sub,
                             std::size_t node, std::size_t n,
                             std::size_t begin, std::size_t end, double* out) {
  const std::size_t g = sub.group_of(node);
  const SubbandGroup& group = sub.groups[g];
  const SubbandPattern& pattern = sub.patterns[g][node - sub.pattern_base[g]];
  std::fill(out + begin, out + end, 0.0);
  for (std::uint32_t c = group.begin; c < group.end; ++c) {
    const std::uint32_t r = pattern.residuals[c - group.begin];
    if (r >= n) continue;
    const std::size_t limit = std::min<std::size_t>(end, n - r);
    if (limit <= begin) continue;
    // Indexed from the rows' origin, so the read starts inside the row
    // (begin + r >= origin) rather than at a pointer before it.
    kernels::accumulate_f32(
        out + begin, rows.data + c * rows.stride + (begin + r - rows.origin),
        limit - begin);
  }
}

void combine_subband_series(const SubbandPlan& sub, std::size_t plan_index,
                            const double* const* partials, std::size_t n,
                            DedispScratch& scratch) {
  auto& series = scratch.series;
  series.resize(n);
  const std::size_t num_groups = sub.groups.size();
  // Group g covers output samples [0, n - offset_g); past that its partial
  // has run out of band. Splitting [0, n) at the distinct coverage limits
  // gives segments with a constant active-group set, each combined in one
  // fused pass (ascending group order, like dedisperse_plan's ascending
  // channel order).
  const auto limit = [&](std::size_t g) -> std::size_t {
    const std::size_t offset = sub.entry(plan_index, g).offset;
    return offset < n ? n - offset : 0;
  };
  auto& cuts = scratch.cuts;
  cuts.resize(num_groups);
  for (std::size_t g = 0; g < num_groups; ++g) cuts[g] = limit(g);
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  auto& segment = scratch.segment;
  segment.resize(num_groups);
  std::size_t s = 0;
  for (const std::size_t cut : cuts) {
    if (cut <= s) continue;
    std::size_t active = 0;
    for (std::size_t g = 0; g < num_groups; ++g) {
      if (limit(g) >= cut) {
        segment[active++] = partials[g] + sub.entry(plan_index, g).offset + s;
      }
    }
    kernels::combine_f64(series.data() + s, segment.data(), active, cut - s);
    s = cut;
  }
  if (s < n) std::fill(series.begin() + static_cast<long>(s), series.end(), 0.0);
}

namespace {

/// The calling thread's stage-1 arena, process-lifetime: it grows to the
/// largest block seen and never shrinks, so a survey's repeated sweeps do
/// not mmap, zero-fill and unmap a 100 MB buffer each. It is never
/// value-initialised — accumulate_subband_node overwrites every stripe it
/// is handed.
double* node_arena(std::size_t doubles) {
  thread_local std::unique_ptr<double[]> arena;
  thread_local std::size_t capacity = 0;
  if (doubles > capacity) {
    arena.reset();
    arena = std::make_unique_for_overwrite<double[]>(doubles);
    capacity = doubles;
  }
  return arena.get();
}

}  // namespace

namespace detail {

void detect_subband_plan(const SweepPlan& sweep, const SubbandPlan& sub,
                         std::size_t plan_index,
                         const double* const* node_series, std::size_t n,
                         std::size_t channels, const DmGrid& grid,
                         double sample_time_ms,
                         const SinglePulseSearchParams& params,
                         std::vector<SinglePulseEvent>& out) {
  thread_local DedispScratch dedisp_scratch;
  thread_local DetectScratch detect_scratch;
  const std::size_t num_groups = sub.groups.size();
  auto& node_ptrs = dedisp_scratch.nodes;
  node_ptrs.resize(num_groups);
  for (std::size_t g = 0; g < num_groups; ++g) {
    node_ptrs[g] =
        node_series[sub.pattern_base[g] + sub.entry(plan_index, g).pattern];
  }
  combine_subband_series(sub, plan_index, node_ptrs.data(), n,
                         dedisp_scratch);
  const ShiftPlan& plan = sweep.plans[plan_index];
  normalize_tail(plan, channels, dedisp_scratch.series,
                 dedisp_scratch.contrib_prefix);
  detect_events_into(dedisp_scratch.series, grid.dm_at(plan.trials.front()),
                     sample_time_ms, params, detect_scratch, out);
}

std::vector<SinglePulseEvent> subband_single_pulse_search(
    const Filterbank& fb, const DmGrid& grid,
    const SinglePulseSearchParams& params, std::size_t arena_budget_bytes) {
  if (params.rfi.policy != MitigationPolicy::kOff) {
    throw std::invalid_argument(
        "subband sweep: mitigation is routed by the public entry point; "
        "the budgeted sweep takes params.rfi.policy = off");
  }
  auto& tracer = obs::global_tracer();
  obs::ScopedSpan sweep_span(tracer, "dedisp.sweep", {}, "dedisp");
  Stopwatch watch;

  const SweepPlan sweep =
      build_sweep_plan(fb, grid, params.dm_stride, params.channel_mask);
  const SubbandPlan sub = build_subband_plan(
      sweep, fb.num_channels(), fb.num_samples(), params.subband_groups);
  const std::size_t n = fb.num_samples();
  const ChannelRows rows{fb.channel_data(0), n, 0};
  const std::size_t num_groups = sub.groups.size();
  const std::size_t num_plans = sweep.plans.size();
  const std::size_t sweep_threads = params.exec.threads_per_worker;
  std::unique_ptr<ThreadPool> pool;
  if (sweep_threads > 1) pool = std::make_unique<ThreadPool>(sweep_threads);
  const auto for_each = [&](std::size_t count, const auto& fn) {
    if (pool && count > 1) {
      pool->parallel_for(count, fn);
    } else {
      for (std::size_t i = 0; i < count; ++i) fn(i);
    }
  };

  // A block is a DM-contiguous run of plans whose distinct nodes fit the
  // arena budget; a single plan (at most G nodes) always fits. Within a
  // block, stage 1 builds every distinct node once and stage 2 detects
  // every plan, each as one parallel loop, so the thread count decides
  // only who runs what: partials are a deterministic function of the
  // filterbank and the pattern, and every plan's series is combined from
  // the same partials in the same order under any blocking.
  const std::size_t node_bytes = std::max<std::size_t>(1, n) * sizeof(double);
  const std::size_t max_nodes =
      std::max(num_groups, arena_budget_bytes / node_bytes);
  constexpr std::uint32_t kNoBlock = static_cast<std::uint32_t>(-1);
  std::vector<std::uint32_t> block_of_node(sub.total_patterns, kNoBlock);
  std::vector<std::uint32_t> node_order;  // the block's flat ids, first use
  std::vector<const double*> node_series(sub.total_patterns);
  std::vector<std::vector<SinglePulseEvent>> found(num_plans);
  std::uint32_t blocks = 0;
  std::int64_t partials_built = 0;

  const auto run_block = [&](std::size_t begin, std::size_t end) {
    obs::ScopedSpan span(tracer, "dedisp.subband.block", {}, "dedisp");
    double* arena = node_arena(node_order.size() * n);
    for (std::size_t i = 0; i < node_order.size(); ++i) {
      node_series[node_order[i]] = arena + i * n;
    }
    for_each(node_order.size(), [&](std::size_t i) {
      accumulate_subband_node(rows, sub, node_order[i], n, 0, n,
                              arena + i * n);
    });
    for_each(end - begin, [&](std::size_t i) {
      const std::size_t p = begin + i;
      detect_subband_plan(sweep, sub, p, node_series.data(), n,
                          fb.num_channels(), grid, fb.config().sample_time_ms,
                          params, found[p]);
    });
    partials_built += static_cast<std::int64_t>(node_order.size());
    if (span.active()) {
      span.arg("plans", static_cast<std::int64_t>(end - begin));
      span.arg("nodes", static_cast<std::int64_t>(node_order.size()));
    }
    node_order.clear();
    ++blocks;
  };
  std::size_t begin = 0;
  for (std::size_t p = 0; p < num_plans; ++p) {
    std::size_t fresh = 0;
    for (std::size_t g = 0; g < num_groups; ++g) {
      fresh += block_of_node[sub.pattern_base[g] + sub.entry(p, g).pattern] !=
               blocks;
    }
    if (p > begin && node_order.size() + fresh > max_nodes) {
      run_block(begin, p);
      begin = p;
    }
    for (std::size_t g = 0; g < num_groups; ++g) {
      const std::size_t flat = sub.pattern_base[g] + sub.entry(p, g).pattern;
      if (block_of_node[flat] != blocks) {
        block_of_node[flat] = blocks;
        node_order.push_back(static_cast<std::uint32_t>(flat));
      }
    }
  }
  if (begin < num_plans) run_block(begin, num_plans);

  std::vector<SinglePulseEvent> events =
      merge_plan_events(sweep, grid, params.dm_stride, found);

  const double elapsed = watch.elapsed_seconds();
  auto& counters = obs::global_counters();
  counters.add("dedisp.trials", static_cast<std::int64_t>(sweep.num_trials));
  counters.add("dedisp.plans_unique", static_cast<std::int64_t>(num_plans));
  counters.add("dedisp.plan_dedup_hits",
               static_cast<std::int64_t>(sweep.num_trials - num_plans));
  counters.add("dedisp.events", static_cast<std::int64_t>(events.size()));
  // Detection makes two selections (median, MAD) per unique plan.
  counters.add("dedisp.select.calls", static_cast<std::int64_t>(2 * num_plans));
  counters.add("dedisp.subband.nodes",
               static_cast<std::int64_t>(sub.total_patterns));
  counters.add("dedisp.subband.partials_built", partials_built);
  counters.add("dedisp.subband.blocks", blocks);
  counters.add("dedisp.subband.residual_combines",
               static_cast<std::int64_t>(num_plans * num_groups));
  counters.set_gauge("dedisp.subband.groups",
                     static_cast<double>(num_groups));
  const double samples = static_cast<double>(num_plans * n);
  if (elapsed > 0.0) {
    counters.set_gauge("dedisp.samples_per_s", samples / elapsed);
  }
  if (sweep_span.active()) {
    sweep_span.arg("trials", static_cast<std::int64_t>(sweep.num_trials));
    sweep_span.arg("plans_unique", static_cast<std::int64_t>(num_plans));
    sweep_span.arg("groups", static_cast<std::int64_t>(num_groups));
    sweep_span.arg("nodes", static_cast<std::int64_t>(sub.total_patterns));
    sweep_span.arg("blocks", static_cast<std::int64_t>(blocks));
    sweep_span.arg("max_residual",
                   static_cast<std::int64_t>(sub.max_residual));
    sweep_span.arg("events", static_cast<std::int64_t>(events.size()));
    sweep_span.arg("threads", static_cast<std::int64_t>(sweep_threads));
    sweep_span.arg("kernel", kernels::dispatch_name());
  }
  return events;
}

}  // namespace detail

}  // namespace drapid
