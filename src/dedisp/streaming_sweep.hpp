// Chunk-resumable DM sweep: the subband engine (subband_sweep.hpp) fed in
// fixed-size sample blocks, for long-running survey ingestion.
//
// The one-shot single_pulse_search() needs the whole filterbank resident; a
// streaming service ingests data in bounded chunks as it arrives. The
// StreamingSweep accepts time-ordered sample blocks of any size and runs
// the same two stages as the one-shot driver, split in time:
//
//   * stage 1 per push: every coarse node (one partial series per distinct
//     (group, residual pattern)) reads inputs t + r_i, so its sample t is
//     *complete* once t + max_residual < samples_pushed. Each push flushes
//     the newly-completed range [frontier, pushed - max_residual) of every
//     node through accumulate_subband_node — the one-shot driver's stage-1
//     routine — from a window of the new block plus an overlap carry of the
//     last max_residual input samples per channel (the only history a node
//     can still reference). Each partial sample is completed in a single
//     flush, so the partials are byte-identical to the one-shot sweep's no
//     matter how the input was chunked.
//   * stage 2 + tail normalization + detection at finalize, per unique
//     plan, through detail::detect_subband_plan — the one-shot driver's
//     helper — and a trial-order merge through the same helper. Tail
//     normalization therefore runs exactly ONCE over the fully-combined
//     series; normalizing per chunk would rescale the overlap-carry samples
//     once per chunk they straddle — the double-count bug the boundary
//     regression tests pin.
//
// The result of finalize() is therefore byte-identical to
// single_pulse_search() on the concatenated data, for any chunk size and
// any thread count. The carry is the subband plan's max residual, not the
// full-band max shift (often an order of magnitude less history per
// channel); with `subband_groups = 1` it is the full-band shift.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "dedisp/filterbank.hpp"
#include "dedisp/single_pulse_search.hpp"
#include "dedisp/subband_sweep.hpp"
#include "spe/dm_grid.hpp"
#include "spe/spe.hpp"

namespace drapid {

class ThreadPool;

class StreamingSweep {
 public:
  /// Plans the sweep for an observation of known geometry. The config fixes
  /// the channel count/band/sampling AND the total sample count (shift
  /// clamping and tail normalization depend on it), exactly like the
  /// one-shot sweep. `grid`/`params` as in single_pulse_search(); the grid
  /// is copied. With params.exec.threads_per_worker > 1 a worker pool fans
  /// the per-plan accumulation and detection out.
  StreamingSweep(const FilterbankConfig& config, const DmGrid& grid,
                 const SinglePulseSearchParams& params = {});
  ~StreamingSweep();

  StreamingSweep(const StreamingSweep&) = delete;
  StreamingSweep& operator=(const StreamingSweep&) = delete;

  /// Pushes `num_frames` time-major frames (frame = one sample of every
  /// channel, ascending channel order — the .fil on-disk layout, length
  /// num_channels floats each). Throws std::invalid_argument if the total
  /// would exceed the configured sample count.
  void push_frames(const float* frames, std::size_t num_frames);

  /// Pushes samples [begin, begin + count) of an in-memory filterbank (must
  /// match this sweep's geometry — channels, samples, sampling time, centre
  /// frequency and bandwidth, since the shift plan depends on all of them —
  /// and continue exactly at samples_pushed()).
  /// A `count` past the observation end is clamped — a fixed block size
  /// naturally overshoots on the final chunk — and count 0 is a no-op.
  /// Convenience for tests and for ingesting synthesized observations.
  void push(const Filterbank& fb, std::size_t begin, std::size_t count);

  /// Total samples accepted so far / expected in the whole observation.
  std::size_t samples_pushed() const { return pushed_; }
  std::size_t total_samples() const { return total_samples_; }

  /// Overlap carried across chunk boundaries, clamped to the observation
  /// length: the subband plan's largest residual shift — the only input
  /// history stage 1 can still reference.
  std::size_t max_shift() const { return max_shift_; }

  std::size_t num_plans() const { return sweep_.plans.size(); }

  /// Runs detection over every plan's accumulated series and merges events
  /// in trial order — byte-identical to single_pulse_search() on the same
  /// data. All total_samples() samples must have been pushed; throws
  /// std::logic_error otherwise, or if called twice.
  std::vector<SinglePulseEvent> finalize();

 private:
  /// Lays out the input window for a `count`-sample block (carry samples
  /// first, block after) and returns the carry length; the caller fills the
  /// block region. Throws if the block would overrun the observation.
  std::size_t prepare_window(std::size_t count);
  /// Zero-DM subtraction over the freshly-filled block region of the window
  /// (no-op unless the policy asks for it). The subtraction is per-sample,
  /// so cleaning chunk by chunk matches the one-shot mitigated sweep bit
  /// for bit; the carry refresh then naturally holds cleaned samples.
  void clean_block(std::size_t carry_len, std::size_t count);
  /// Accumulates every node's newly-completed output range from the window,
  /// then refreshes the overlap carry from the window's tail.
  void commit_block(std::size_t count);
  template <typename Fn>
  void for_each(std::size_t count, const Fn& fn);

  FilterbankConfig config_;
  DmGrid grid_;
  SinglePulseSearchParams params_;
  SweepPlan sweep_;
  /// Groups × residual patterns decomposition.
  SubbandPlan sub_;
  std::size_t total_samples_ = 0;
  std::size_t channels_ = 0;
  std::size_t max_shift_ = 0;

  std::size_t pushed_ = 0;    ///< input samples accepted
  std::size_t frontier_ = 0;  ///< output samples accumulated per node
  /// Zero-DM subtraction enabled (params.rfi.policy includes it). Channel
  /// masking comes through params.channel_mask: the stream cannot estimate
  /// a mask from data it has not seen, so mask policies require an explicit
  /// mask (the survey service estimates one from the full observation
  /// before constructing the sweep) and the constructor throws otherwise.
  bool zero_dm_ = false;

  /// Channel-major input window: for each channel, the carry (up to
  /// max_shift_ samples ending at the previous push) followed by the block
  /// being flushed. Rebuilt per push; reads during a flush stay inside it.
  std::vector<float> window_;
  std::size_t window_start_ = 0;  ///< global index of the window's first sample
  std::size_t window_stride_ = 0; ///< samples per channel row (carry + block)

  /// Per-channel overlap carry: the last max_shift_ input samples, refreshed
  /// after each push (rows of max_shift_ floats, first carry-length valid).
  std::vector<float> carry_;

  /// One partial series per coarse node (total_samples_ doubles), indexed
  /// by the flat id pattern_base[g] + p. Never value-initialised: every
  /// sample is written by the one flush that completes it. One allocation
  /// per node: small buffers the allocator reuses across a service's
  /// observations (one block for all nodes measured slower on chunked
  /// ingest). Shared by every plan that uses the node, so none are freed
  /// until finalize has detected every plan.
  std::vector<std::unique_ptr<double[]>> partials_;

  std::unique_ptr<ThreadPool> pool_;
  bool finalized_ = false;
};

}  // namespace drapid
