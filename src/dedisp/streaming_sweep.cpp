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
  sub_ = build_subband_plan(sweep_, channels_, total_samples_,
                            params_.subband_groups);
  // Coarse nodes only ever look back by a residual shift, so that — not the
  // full-band max shift — is the carry every chunk's window needs.
  max_shift_ = std::min<std::size_t>(sub_.max_residual, total_samples_);
  partials_.resize(sub_.total_patterns);
  for (auto& partial : partials_) {
    partial = std::make_unique_for_overwrite<double[]>(total_samples_);
  }
  carry_.assign(channels_ * max_shift_, 0.0f);
  const std::size_t tasks = std::max(sweep_.plans.size(), sub_.total_patterns);
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
  window_start_ = pushed_ - carry_len;
  window_.resize(channels_ * window_stride_);
  // No copy when there is no carry: carry_ is empty for a zero max_shift,
  // and memcpy from its null data() is undefined even at length 0.
  for (std::size_t c = 0; carry_len != 0 && c < channels_; ++c) {
    std::memcpy(window_.data() + c * window_stride_,
                carry_.data() + c * max_shift_, carry_len * sizeof(float));
  }
  return carry_len;
}

void StreamingSweep::commit_block(std::size_t count) {
  pushed_ += count;
  // A node's partial sample t reads inputs up to t + max_residual, so
  // everything below pushed - max_shift is complete; the final block
  // completes the whole series (clamped residuals contribute nothing past
  // the end).
  const std::size_t completed =
      pushed_ == total_samples_
          ? total_samples_
          : (pushed_ > max_shift_ ? pushed_ - max_shift_ : 0);
  if (completed > frontier_) {
    const ChannelRows rows{window_.data(), window_stride_, window_start_};
    const std::size_t begin = frontier_;
    for_each(sub_.total_patterns, [&](std::size_t node) {
      accumulate_subband_node(rows, sub_, node, total_samples_, begin,
                              completed, partials_[node].get());
    });
    frontier_ = completed;
  }
  // Refresh the overlap carry with the last max_shift samples seen.
  const std::size_t carry_len = std::min(max_shift_, pushed_);
  const std::size_t tail = window_stride_ - carry_len;
  // As in prepare_window: carry_ or window_ may be empty (null data()).
  for (std::size_t c = 0; carry_len != 0 && c < channels_; ++c) {
    std::memmove(carry_.data() + c * max_shift_,
                 window_.data() + c * window_stride_ + tail,
                 carry_len * sizeof(float));
  }
  obs::global_counters().add("dedisp.stream.chunks");
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
  // Every field the shift plan was built from: a filterbank from another
  // band would otherwise be dedispersed with the wrong shifts, silently.
  if (fb.num_channels() != channels_ ||
      fb.num_samples() != total_samples_ ||
      fb.config().sample_time_ms != config_.sample_time_ms ||
      fb.config().center_freq_mhz != config_.center_freq_mhz ||
      fb.config().bandwidth_mhz != config_.bandwidth_mhz) {
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
  // A zero-length first chunk leaves window_ empty (null data()).
  for (std::size_t c = 0; count != 0 && c < channels_; ++c) {
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
  // Stage 2 + tail normalization + detection per plan through the one-shot
  // driver's helper, so the synthesized series are byte-identical to the
  // one-shot sweep's. Partials are shared across plans and stay
  // resident until every plan is detected.
  std::vector<std::vector<SinglePulseEvent>> found(sweep_.plans.size());
  std::vector<const double*> node_series(sub_.total_patterns);
  for (std::size_t i = 0; i < node_series.size(); ++i) {
    node_series[i] = partials_[i].get();
  }
  for_each(sweep_.plans.size(), [&](std::size_t i) {
    detail::detect_subband_plan(sweep_, sub_, i, node_series.data(),
                                total_samples_, channels_, grid_,
                                config_.sample_time_ms, params_, found[i]);
  });
  partials_.clear();
  partials_.shrink_to_fit();

  std::vector<SinglePulseEvent> events =
      detail::merge_plan_events(sweep_, grid_, params_.dm_stride, found);

  auto& counters = obs::global_counters();
  counters.add("dedisp.stream.trials",
               static_cast<std::int64_t>(sweep_.num_trials));
  counters.add("dedisp.stream.events",
               static_cast<std::int64_t>(events.size()));
  // Detection makes two selections (median, MAD) per unique plan.
  counters.add("dedisp.select.calls",
               static_cast<std::int64_t>(2 * sweep_.plans.size()));
  counters.add("dedisp.subband.nodes",
               static_cast<std::int64_t>(sub_.total_patterns));
  counters.add("dedisp.subband.residual_combines",
               static_cast<std::int64_t>(sweep_.plans.size() *
                                         sub_.groups.size()));
  counters.set_gauge("dedisp.subband.groups",
                     static_cast<double>(sub_.groups.size()));
  if (span.active()) {
    span.arg("plans", static_cast<std::int64_t>(sweep_.plans.size()));
    span.arg("events", static_cast<std::int64_t>(events.size()));
    span.arg("groups", static_cast<std::int64_t>(sub_.groups.size()));
    span.arg("kernel", kernels::dispatch_name());
  }
  return events;
}

}  // namespace drapid
