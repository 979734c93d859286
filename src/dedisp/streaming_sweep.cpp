#include "dedisp/streaming_sweep.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "dedisp/kernels.hpp"
#include "dedisp/rfi_mitigation.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace drapid {

StreamingSweep::StreamingSweep(const FilterbankConfig& config,
                               const DmGrid& grid,
                               const SinglePulseSearchParams& params)
    : config_(config), grid_(grid), params_(params) {
  // A zero-filled Filterbank supplies the geometry (sample count, channel
  // frequencies) the shift planner needs; its data is never read.
  const Filterbank geometry(config_);
  total_samples_ = geometry.num_samples();
  channels_ = geometry.num_channels();
  if (policy_masks_channels(params_.rfi.policy) &&
      params_.channel_mask.empty()) {
    throw std::invalid_argument(
        "StreamingSweep: channel-mask mitigation needs an explicit "
        "params.channel_mask — a stream cannot estimate one from data it "
        "has not seen (estimate_channel_mask over the observation first)");
  }
  zero_dm_ = policy_zero_dm(params_.rfi.policy);
  sweep_ =
      build_sweep_plan(geometry, grid_, params_.dm_stride, params_.channel_mask);
  if (subband()) {
    // Coarse nodes only ever look back by a residual shift, so the carry —
    // and with it every chunk's window — shrinks from the full-band max
    // shift to the subband plan's max residual.
    sub_ = build_subband_plan(sweep_, channels_, total_samples_,
                              params_.subband_groups);
    max_shift_ = std::min<std::size_t>(sub_.max_residual, total_samples_);
    partials_.resize(sub_.total_patterns);
    for (auto& partial : partials_) partial.assign(total_samples_, 0.0);
  } else {
    for (const auto& plan : sweep_.plans) {
      max_shift_ = std::max<std::size_t>(max_shift_, plan.max_shift);
    }
    max_shift_ = std::min(max_shift_, total_samples_);
    series_.resize(sweep_.plans.size());
    for (auto& s : series_) s.assign(total_samples_, 0.0);
  }
  carry_.assign(channels_ * max_shift_, 0.0f);
  const std::size_t tasks = std::max(sweep_.plans.size(), partials_.size());
  if (params_.exec.threads_per_worker > 1 && tasks > 1) {
    pool_ = std::make_unique<ThreadPool>(params_.exec.threads_per_worker);
  }
}

StreamingSweep::~StreamingSweep() = default;

template <typename Fn>
void StreamingSweep::for_each(std::size_t count, const Fn& fn) {
  if (pool_ && count > 1) {
    pool_->parallel_for(count, fn);
  } else {
    for (std::size_t i = 0; i < count; ++i) fn(i);
  }
}

std::size_t StreamingSweep::prepare_window(std::size_t count) {
  if (finalized_) {
    throw std::logic_error("StreamingSweep: push after finalize");
  }
  if (pushed_ + count > total_samples_) {
    throw std::invalid_argument(
        "StreamingSweep: pushing " + std::to_string(count) + " samples at " +
        std::to_string(pushed_) + " overruns the observation's " +
        std::to_string(total_samples_) + " samples");
  }
  const std::size_t carry_len = std::min(max_shift_, pushed_);
  window_stride_ = carry_len + count;
  window_len_ = window_stride_;
  window_start_ = pushed_ - carry_len;
  window_.resize(channels_ * window_stride_);
  for (std::size_t c = 0; c < channels_; ++c) {
    std::memcpy(window_.data() + c * window_stride_,
                carry_.data() + c * max_shift_, carry_len * sizeof(float));
  }
  return carry_len;
}

void StreamingSweep::commit_block(std::size_t count) {
  pushed_ += count;
  // An output sample s of a plan with max shift v_max reads inputs up to
  // s + v_max, so everything below pushed - max_shift is complete; the final
  // block completes the whole series (clamped shifts contribute nothing past
  // the end).
  const std::size_t completed =
      pushed_ == total_samples_
          ? total_samples_
          : (pushed_ > max_shift_ ? pushed_ - max_shift_ : 0);
  if (completed > frontier_) {
    const std::size_t begin = frontier_;
    if (subband()) {
      for_each(partials_.size(),
               [&](std::size_t i) { accumulate_node(i, begin, completed); });
    } else {
      for_each(sweep_.plans.size(),
               [&](std::size_t i) { accumulate_plan(i, begin, completed); });
    }
    frontier_ = completed;
  }
  // Refresh the overlap carry with the last max_shift samples seen.
  const std::size_t carry_len = std::min(max_shift_, pushed_);
  const std::size_t tail = window_len_ - carry_len;
  for (std::size_t c = 0; c < channels_; ++c) {
    std::memmove(carry_.data() + c * max_shift_,
                 window_.data() + c * window_stride_ + tail,
                 carry_len * sizeof(float));
  }
  obs::global_counters().add("dedisp.stream.chunks");
}

void StreamingSweep::accumulate_plan(std::size_t plan_index,
                                     std::size_t out_begin,
                                     std::size_t out_end) {
  const ShiftPlan& plan = sweep_.plans[plan_index];
  auto& series = series_[plan_index];
  // Ascending channel order per output sample — every contribution to a
  // sample lands in the single flush that completes it, so the addition
  // sequence per sample is exactly dedisperse_plan()'s.
  for (std::size_t c = 0; c < channels_; ++c) {
    const std::uint32_t shift = plan.shifts[c];
    const std::size_t limit =
        std::min<std::size_t>(out_end, total_samples_ - shift);
    if (limit <= out_begin) continue;
    const float* row = window_.data() + c * window_stride_ - window_start_;
    kernels::accumulate_f32(series.data() + out_begin, row + out_begin + shift,
                            limit - out_begin);
  }
}

void StreamingSweep::accumulate_node(std::size_t slot, std::size_t out_begin,
                                     std::size_t out_end) {
  // Recover (group, pattern) from the flat slot id.
  const auto it = std::upper_bound(sub_.pattern_base.begin(),
                                   sub_.pattern_base.end(), slot);
  const std::size_t g =
      static_cast<std::size_t>(it - sub_.pattern_base.begin()) - 1;
  const SubbandGroup& group = sub_.groups[g];
  const SubbandPattern& pattern =
      sub_.patterns[g][slot - sub_.pattern_base[g]];
  auto& partial = partials_[slot];
  // Ascending channel order per partial sample, each sample completed in a
  // single flush — the addition sequence of accumulate_subband_partial(),
  // so finalize's combine sees byte-identical partials to the one-shot
  // subband sweep.
  for (std::size_t i = 0; i < group.size(); ++i) {
    const std::uint32_t r = pattern.residuals[i];
    if (r >= total_samples_) continue;
    const std::size_t limit =
        std::min<std::size_t>(out_end, total_samples_ - r);
    if (limit <= out_begin) continue;
    const float* row =
        window_.data() + (group.begin + i) * window_stride_ - window_start_;
    kernels::accumulate_f32(partial.data() + out_begin, row + out_begin + r,
                            limit - out_begin);
  }
}

void StreamingSweep::clean_block(std::size_t carry_len, std::size_t count) {
  if (!zero_dm_ || count == 0) return;
  zero_dm_subtract(window_.data(), window_stride_, channels_, carry_len,
                   carry_len + count,
                   params_.channel_mask.empty() ? nullptr
                                                : params_.channel_mask.data());
}

void StreamingSweep::push_frames(const float* frames, std::size_t num_frames) {
  const std::size_t carry_len = prepare_window(num_frames);
  for (std::size_t c = 0; c < channels_; ++c) {
    float* row = window_.data() + c * window_stride_ + carry_len;
    for (std::size_t s = 0; s < num_frames; ++s) {
      row[s] = frames[s * channels_ + c];
    }
  }
  clean_block(carry_len, num_frames);
  commit_block(num_frames);
}

void StreamingSweep::push(const Filterbank& fb, std::size_t begin,
                          std::size_t count) {
  if (finalized_) {
    throw std::logic_error("StreamingSweep: push after finalize");
  }
  if (fb.num_channels() != channels_ ||
      fb.num_samples() != total_samples_ ||
      fb.config().sample_time_ms != config_.sample_time_ms) {
    throw std::invalid_argument(
        "StreamingSweep: filterbank geometry does not match the sweep plan");
  }
  if (begin != pushed_) {
    throw std::invalid_argument(
        "StreamingSweep: block starts at sample " + std::to_string(begin) +
        " but the stream is at " + std::to_string(pushed_));
  }
  // An ingester reading fixed-size blocks overshoots on the final one; the
  // filterbank itself bounds the real data, so clamp rather than throw.
  count = std::min(count, total_samples_ - begin);
  const std::size_t carry_len = prepare_window(count);
  for (std::size_t c = 0; c < channels_; ++c) {
    std::memcpy(window_.data() + c * window_stride_ + carry_len,
                fb.channel_data(c) + begin, count * sizeof(float));
  }
  clean_block(carry_len, count);
  commit_block(count);
}

std::vector<SinglePulseEvent> StreamingSweep::finalize() {
  if (finalized_) {
    throw std::logic_error("StreamingSweep: finalize called twice");
  }
  if (pushed_ != total_samples_) {
    throw std::logic_error(
        "StreamingSweep: finalize with " + std::to_string(pushed_) + " of " +
        std::to_string(total_samples_) + " samples pushed");
  }
  finalized_ = true;

  auto& tracer = obs::global_tracer();
  obs::ScopedSpan span(tracer, "dedisp.stream.finalize", {}, "dedisp");
  std::vector<std::vector<SinglePulseEvent>> found(sweep_.plans.size());
  if (subband()) {
    // Stage 2 + tail normalization + detection per plan through the same
    // helper as subband_single_pulse_search(), so the synthesized series
    // are byte-identical to the one-shot sweep's. Partials are shared
    // across plans and stay resident until every plan is detected.
    std::vector<const double*> node_series(partials_.size());
    for (std::size_t i = 0; i < partials_.size(); ++i) {
      node_series[i] = partials_[i].data();
    }
    for_each(sweep_.plans.size(), [&](std::size_t i) {
      detail::detect_subband_plan(sweep_, sub_, i, node_series.data(),
                                  total_samples_, channels_, grid_,
                                  config_.sample_time_ms, params_, found[i]);
    });
    partials_.clear();
    partials_.shrink_to_fit();
  } else {
    for_each(sweep_.plans.size(), [&](std::size_t i) {
      // Tail normalization runs here, exactly once per fully-accumulated
      // series — never per chunk, so overlap-carry samples are rescaled
      // once.
      thread_local std::vector<std::uint32_t> contrib_prefix;
      thread_local DetectScratch detect_scratch;
      normalize_tail(sweep_.plans[i], channels_, series_[i], contrib_prefix);
      detect_events_into(series_[i],
                         grid_.dm_at(sweep_.plans[i].trials.front()),
                         config_.sample_time_ms, params_, detect_scratch,
                         found[i]);
      std::vector<double>().swap(series_[i]);  // done with this plan's series
    });
  }

  std::vector<SinglePulseEvent> events =
      detail::merge_plan_events(sweep_, grid_, params_.dm_stride, found);

  auto& counters = obs::global_counters();
  counters.add("dedisp.stream.trials",
               static_cast<std::int64_t>(sweep_.num_trials));
  counters.add("dedisp.stream.events",
               static_cast<std::int64_t>(events.size()));
  if (subband()) {
    counters.add("dedisp.subband.nodes",
                 static_cast<std::int64_t>(sub_.total_patterns));
    counters.add("dedisp.subband.residual_combines",
                 static_cast<std::int64_t>(sweep_.plans.size() *
                                           sub_.groups.size()));
    counters.set_gauge("dedisp.subband.groups",
                       static_cast<double>(sub_.groups.size()));
  }
  if (span.active()) {
    span.arg("plans", static_cast<std::int64_t>(sweep_.plans.size()));
    span.arg("events", static_cast<std::int64_t>(events.size()));
    span.arg("method", sweep_method_name(params_.method));
    span.arg("kernel", kernels::dispatch_name());
  }
  return events;
}

}  // namespace drapid
