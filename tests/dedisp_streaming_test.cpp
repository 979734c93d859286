// StreamingSweep: byte-identical equivalence with the one-shot sweep across
// chunk sizes and thread counts, the chunk-boundary overlap regression (a
// pulse straddling the boundary at every offset), and stream misuse errors.
// Tests that probe the carry run at subband_groups 1 (the channel-order
// sum, whose carry is the full-band max shift) and at the auto group count
// (the shorter max-residual carry).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "dedisp_reference.hpp"
#include "dedisp/single_pulse_search.hpp"
#include "dedisp/streaming_sweep.hpp"
#include "util/rng.hpp"

namespace drapid {
namespace {

FilterbankConfig small_config() {
  FilterbankConfig cfg;
  cfg.center_freq_mhz = 350.0;
  cfg.bandwidth_mhz = 100.0;
  cfg.num_channels = 32;
  cfg.sample_time_ms = 2.0;
  cfg.obs_length_s = 10.0;
  return cfg;
}

Filterbank noisy_filterbank(FilterbankConfig cfg, std::uint64_t seed) {
  Filterbank fb(cfg);
  Rng rng(seed);
  fb.add_noise(rng, 1.0);
  fb.inject_pulse(3.0, 40.0, 3.0, 20.0);
  return fb;
}

bool events_identical(const std::vector<SinglePulseEvent>& a,
                      const std::vector<SinglePulseEvent>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].dm != b[i].dm || a[i].snr != b[i].snr ||
        a[i].time_s != b[i].time_s || a[i].sample != b[i].sample ||
        a[i].downfact != b[i].downfact) {
      return false;
    }
  }
  return true;
}

std::vector<SinglePulseEvent> stream_in_chunks(
    const Filterbank& fb, const DmGrid& grid,
    const SinglePulseSearchParams& params, std::size_t chunk) {
  StreamingSweep sweep(fb.config(), grid, params);
  const std::size_t total = sweep.total_samples();
  for (std::size_t begin = 0; begin < total; begin += chunk) {
    sweep.push(fb, begin, std::min(chunk, total - begin));
  }
  return sweep.finalize();
}

TEST(StreamingSweep, MatchesOneShotAcrossChunkSizesAndThreads) {
  const Filterbank fb = noisy_filterbank(small_config(), 3);
  const DmGrid grid({{0.0, 10.0, 0.01}, {10.0, 60.0, 0.1}});
  for (std::size_t threads : {1u, 2u, 8u}) {
    SinglePulseSearchParams params;
    params.subband_groups = 1;
    params.exec.threads_per_worker = threads;
    const auto reference = single_pulse_search(fb, grid, params);
    ASSERT_FALSE(reference.empty());
    StreamingSweep probe(fb.config(), grid, params);
    const std::size_t max_shift = probe.max_shift();
    ASSERT_GT(max_shift, 0u);
    for (std::size_t factor : {1u, 2u, 7u}) {
      const auto streamed =
          stream_in_chunks(fb, grid, params, factor * max_shift);
      EXPECT_TRUE(events_identical(streamed, reference))
          << "chunk " << factor << "x max_shift, threads " << threads;
    }
  }
}

TEST(StreamingSweep, MatchesOneShotOnFineStepStridedGrid) {
  const Filterbank fb = noisy_filterbank(small_config(), 11);
  // Fine 0.002 steps make adjacent trials collapse onto shared shift plans;
  // the stride exercises the strided trial walk in the merge.
  const DmGrid grid({{0.0, 8.0, 0.002}});
  SinglePulseSearchParams params;
  params.dm_stride = 3;
  params.exec.threads_per_worker = 2;
  const auto reference = single_pulse_search(fb, grid, params);
  const auto streamed = stream_in_chunks(fb, grid, params, 777);
  EXPECT_TRUE(events_identical(streamed, reference));
}

TEST(StreamingSweep, RaggedAndSingleSampleChunksMatch) {
  const Filterbank fb = noisy_filterbank(small_config(), 5);
  const DmGrid grid({{30.0, 50.0, 0.5}});
  const SinglePulseSearchParams params;
  const auto reference = single_pulse_search(fb, grid, params);

  // Deliberately ragged pattern: tiny, huge, then odd-sized blocks.
  StreamingSweep sweep(fb.config(), grid, params);
  const std::size_t total = sweep.total_samples();
  const std::size_t sizes[] = {1, 2, 3, 1000, 7, 501};
  std::size_t begin = 0, i = 0;
  while (begin < total) {
    const std::size_t count = std::min(sizes[i++ % 6], total - begin);
    sweep.push(fb, begin, count);
    begin += count;
  }
  EXPECT_TRUE(events_identical(sweep.finalize(), reference));
}

TEST(StreamingSweep, PushFramesMatchesColumnPush) {
  const Filterbank fb = noisy_filterbank(small_config(), 9);
  const DmGrid grid({{35.0, 45.0, 0.25}});
  const SinglePulseSearchParams params;
  const auto reference = single_pulse_search(fb, grid, params);

  // Rebuild the stream from time-major frames (the .fil wire layout).
  StreamingSweep sweep(fb.config(), grid, params);
  const std::size_t channels = fb.num_channels();
  const std::size_t total = sweep.total_samples();
  std::vector<float> frames;
  const std::size_t chunk = 512;
  for (std::size_t begin = 0; begin < total; begin += chunk) {
    const std::size_t count = std::min(chunk, total - begin);
    frames.resize(count * channels);
    for (std::size_t s = 0; s < count; ++s) {
      for (std::size_t c = 0; c < channels; ++c) {
        frames[s * channels + c] = fb.at(c, begin + s);
      }
    }
    sweep.push_frames(frames.data(), count);
  }
  EXPECT_TRUE(events_identical(sweep.finalize(), reference));
}

// The overlap/tail double-count regression: a chunk boundary placed so the
// pulse straddles it at EVERY offset in [0, max_shift]. A per-chunk (or
// repeated) tail normalization rescales the carried samples once per chunk
// they straddle and shifts the detected S/N; the streaming result must stay
// byte-identical to the one-shot sweep at every split position.
TEST(StreamingSweep, PulseStraddlingChunkBoundaryAtEveryOffset) {
  FilterbankConfig cfg = small_config();
  cfg.num_channels = 16;
  cfg.obs_length_s = 6.0;
  Filterbank fb(cfg);
  Rng rng(17);
  fb.add_noise(rng, 1.0);
  fb.inject_pulse(3.0, 40.0, 4.0, 20.0);

  const DmGrid grid({{38.0, 42.0, 0.5}});
  SinglePulseSearchParams params;
  params.subband_groups = 1;
  const auto reference = single_pulse_search(fb, grid, params);
  ASSERT_FALSE(reference.empty());

  StreamingSweep probe(cfg, grid, params);
  const std::size_t max_shift = probe.max_shift();
  const std::size_t total = probe.total_samples();
  // The brightest event marks the pulse's dedispersed arrival sample.
  const auto peak = std::max_element(
      reference.begin(), reference.end(),
      [](const auto& a, const auto& b) { return a.snr < b.snr; });
  const auto pulse_sample = static_cast<std::size_t>(peak->sample);
  ASSERT_GT(pulse_sample, max_shift);
  ASSERT_LT(pulse_sample + max_shift, total);

  for (std::size_t offset = 0; offset <= max_shift; ++offset) {
    const std::size_t split = pulse_sample - offset + max_shift;
    StreamingSweep sweep(cfg, grid, params);
    sweep.push(fb, 0, split);
    sweep.push(fb, split, total - split);
    ASSERT_TRUE(events_identical(sweep.finalize(), reference))
        << "boundary at pulse offset " << offset;
  }
}

// Auto group count: the stream accumulates coarse-node partials and
// finalize synthesizes each plan — the result must stay byte-identical to
// the one-shot sweep for any chunking and thread count, while carrying only
// the subband plan's max residual across chunk boundaries instead of the
// full-band max shift.
TEST(StreamingSweep, SubbandMatchesOneShotSubbandAcrossChunksAndThreads) {
  const Filterbank fb = noisy_filterbank(small_config(), 21);
  const DmGrid grid({{0.0, 10.0, 0.01}, {10.0, 60.0, 0.1}});
  for (std::size_t threads : {1u, 2u, 8u}) {
    SinglePulseSearchParams params;
    params.exec.threads_per_worker = threads;
    const auto reference = single_pulse_search(fb, grid, params);
    ASSERT_FALSE(reference.empty());
    for (std::size_t chunk : {37u, 512u, 5000u}) {
      const auto streamed = stream_in_chunks(fb, grid, params, chunk);
      EXPECT_TRUE(events_identical(streamed, reference))
          << "chunk " << chunk << ", threads " << threads;
    }
  }
}

TEST(StreamingSweep, SubbandCarryIsMaxResidualNotFullBandShift) {
  const Filterbank fb = noisy_filterbank(small_config(), 23);
  const DmGrid grid({{0.0, 10.0, 0.01}, {10.0, 60.0, 0.1}});
  const SinglePulseSearchParams params;
  StreamingSweep subband(fb.config(), grid, params);
  std::size_t full_band = 0;
  for (const ShiftPlan& plan : build_sweep_plan(fb, grid).plans) {
    full_band = std::max<std::size_t>(full_band, plan.max_shift);
  }
  // The subband stage only ever looks back by a residual shift, so its
  // overlap carry must be strictly smaller than the largest full-band max
  // shift on this dispersion-dominated grid.
  ASSERT_GT(full_band, 0u);
  EXPECT_LT(subband.max_shift(), full_band);
  // And it still detects the reference sweep's event set.
  const auto streamed = stream_in_chunks(fb, grid, params, 911);
  EXPECT_TRUE(events_identical(streamed, reference_sweep(fb, grid, params)));
}

TEST(StreamingSweep, SubbandPulseStraddlingEveryBoundaryOffset) {
  // The same overlap/tail regression at the auto group count, whose carry
  // is the max residual: a chunk split at every offset across the pulse.
  FilterbankConfig cfg = small_config();
  cfg.num_channels = 16;
  cfg.obs_length_s = 6.0;
  Filterbank fb(cfg);
  Rng rng(27);
  fb.add_noise(rng, 1.0);
  fb.inject_pulse(3.0, 40.0, 4.0, 20.0);

  const DmGrid grid({{38.0, 42.0, 0.5}});
  const SinglePulseSearchParams params;
  const auto reference = single_pulse_search(fb, grid, params);
  ASSERT_FALSE(reference.empty());

  StreamingSweep probe(cfg, grid, params);
  const std::size_t carry = std::max<std::size_t>(probe.max_shift(), 1);
  const std::size_t total = probe.total_samples();
  const std::size_t pulse_sample = 1500;  // 3.0 s at 2 ms sampling
  for (std::size_t offset = 0; offset <= carry; ++offset) {
    const std::size_t split =
        std::min(pulse_sample - offset + carry, total - 1);
    StreamingSweep sweep(cfg, grid, params);
    sweep.push(fb, 0, split);
    sweep.push(fb, split, total - split);
    ASSERT_TRUE(events_identical(sweep.finalize(), reference))
        << "boundary at pulse offset " << offset;
  }
}

// --- final-chunk edge cases (the ingest bugfix sweep) -----------------------

// An ingester reading fixed-size blocks overshoots on the final one. push()
// clamps the count to the observation's remaining samples instead of
// throwing, and the clamped stream stays byte-identical to the one-shot
// sweep.
TEST(StreamingSweep, OversizedFinalChunkClampsAndMatchesOneShot) {
  const Filterbank fb = noisy_filterbank(small_config(), 31);
  const DmGrid grid({{0.0, 10.0, 0.01}, {10.0, 60.0, 0.1}});
  for (const std::size_t groups : {1u, 0u}) {
    SinglePulseSearchParams params;
    params.subband_groups = groups;
    const auto reference = single_pulse_search(fb, grid, params);
    ASSERT_FALSE(reference.empty());

    {  // fixed block size that does not divide the observation
      StreamingSweep sweep(fb.config(), grid, params);
      const std::size_t total = sweep.total_samples();
      const std::size_t block = total / 2 + 7;
      for (std::size_t begin = 0; begin < total; begin += block) {
        sweep.push(fb, begin, block);  // final push overshoots; clamped
      }
      EXPECT_EQ(sweep.samples_pushed(), total);
      EXPECT_TRUE(events_identical(sweep.finalize(), reference))
          << "groups " << groups;
    }
    {  // one absurdly oversized push covers the whole observation
      StreamingSweep sweep(fb.config(), grid, params);
      sweep.push(fb, 0, fb.num_samples() + 12345);
      EXPECT_TRUE(events_identical(sweep.finalize(), reference));
    }
  }
}

TEST(StreamingSweep, ZeroLengthChunksAreNoOps) {
  const Filterbank fb = noisy_filterbank(small_config(), 33);
  const DmGrid grid({{30.0, 50.0, 0.5}});
  const SinglePulseSearchParams params;
  const auto reference = single_pulse_search(fb, grid, params);

  StreamingSweep sweep(fb.config(), grid, params);
  const std::size_t total = sweep.total_samples();
  sweep.push(fb, 0, 0);  // empty first read
  sweep.push(fb, 0, total / 3);
  sweep.push(fb, total / 3, 0);  // empty mid-stream read
  EXPECT_EQ(sweep.samples_pushed(), total / 3);
  sweep.push(fb, total / 3, total - total / 3);
  sweep.push(fb, total, 0);  // empty read at end-of-stream
  sweep.push(fb, total, 999);  // post-completion read clamps to nothing
  EXPECT_EQ(sweep.samples_pushed(), total);
  EXPECT_TRUE(events_identical(sweep.finalize(), reference));
}

// An observation shorter than the grid's max shift: every plan's shifts are
// clamped to the (tiny) sample count, the carry spans the whole observation,
// and the stream must still agree with the one-shot sweep at 1 and auto
// groups.
TEST(StreamingSweep, ObservationShorterThanMaxShiftMatchesOneShot) {
  FilterbankConfig cfg = small_config();
  cfg.obs_length_s = 0.25;  // 125 samples at 2 ms
  Filterbank fb(cfg);
  Rng rng(35);
  fb.add_noise(rng, 1.0);

  // DM 500 at 300–400 MHz shifts by far more than 125 samples.
  const DmGrid grid({{400.0, 500.0, 5.0}});
  for (const std::size_t groups : {1u, 0u}) {
    SinglePulseSearchParams params;
    params.subband_groups = groups;
    params.snr_threshold = 4.0;
    const auto reference = single_pulse_search(fb, grid, params);
    StreamingSweep probe(cfg, grid, params);
    ASSERT_LE(probe.max_shift(), probe.total_samples());
    for (std::size_t chunk : {1u, 7u, 125u, 1000u}) {
      const auto streamed = stream_in_chunks(fb, grid, params, chunk);
      EXPECT_TRUE(events_identical(streamed, reference))
          << "chunk " << chunk << ", groups " << groups;
    }
  }
}

// First-chunk sizes bracketing the carry length: 1, max_shift - 1,
// max_shift, max_shift + 1 — the offsets where the overlap carry logic has
// historically gone wrong (empty carry, carry one short of full, exactly
// full, and full-plus-one).
TEST(StreamingSweep, FirstChunkBracketsCarryLength) {
  const Filterbank fb = noisy_filterbank(small_config(), 37);
  const DmGrid grid({{0.0, 10.0, 0.01}, {10.0, 60.0, 0.1}});
  for (const std::size_t groups : {1u, 0u}) {
    SinglePulseSearchParams params;
    params.subband_groups = groups;
    const auto reference = single_pulse_search(fb, grid, params);
    StreamingSweep probe(fb.config(), grid, params);
    const std::size_t max_shift = probe.max_shift();
    const std::size_t total = probe.total_samples();
    ASSERT_GT(max_shift, 1u);
    ASSERT_LT(max_shift + 1, total);
    for (const std::size_t first :
         {std::size_t{1}, max_shift - 1, max_shift, max_shift + 1}) {
      StreamingSweep sweep(fb.config(), grid, params);
      sweep.push(fb, 0, first);
      sweep.push(fb, first, total - first);
      ASSERT_TRUE(events_identical(sweep.finalize(), reference))
          << "first chunk " << first << " (max_shift " << max_shift
          << "), groups " << groups;
    }
  }
}

TEST(StreamingSweep, RejectsMisuse) {
  const FilterbankConfig cfg = small_config();
  const Filterbank fb = noisy_filterbank(cfg, 3);
  const DmGrid grid({{0.0, 10.0, 0.5}});

  {  // finalize before the observation is complete
    StreamingSweep sweep(cfg, grid);
    sweep.push(fb, 0, 100);
    EXPECT_THROW(sweep.finalize(), std::logic_error);
  }
  {  // push_frames keeps the strict overrun contract: its raw-pointer
     // length is the caller's promise about the buffer, so an overrun is a
     // bug, not a final-chunk overshoot.
    StreamingSweep sweep(cfg, grid);
    std::vector<float> frames((fb.num_samples() + 1) * fb.num_channels());
    EXPECT_THROW(sweep.push_frames(frames.data(), fb.num_samples() + 1),
                 std::invalid_argument);
  }
  {  // non-contiguous block
    StreamingSweep sweep(cfg, grid);
    sweep.push(fb, 0, 10);
    EXPECT_THROW(sweep.push(fb, 20, 10), std::invalid_argument);
  }
  {  // geometry mismatch
    FilterbankConfig other = cfg;
    other.num_channels = 8;
    const Filterbank small(other);
    StreamingSweep sweep(cfg, grid);
    EXPECT_THROW(sweep.push(small, 0, 10), std::invalid_argument);
  }
  {  // same shape, another band: the 350 MHz shift plan would dedisperse
     // 1400 MHz data with the wrong delays
    FilterbankConfig other = cfg;
    other.center_freq_mhz = 1400.0;
    const Filterbank lband = noisy_filterbank(other, 3);
    StreamingSweep sweep(cfg, grid);
    EXPECT_THROW(sweep.push(lband, 0, 10), std::invalid_argument);
    other = cfg;
    other.bandwidth_mhz = 50.0;
    const Filterbank narrow = noisy_filterbank(other, 3);
    EXPECT_THROW(sweep.push(narrow, 0, 10), std::invalid_argument);
  }
  {  // finalize twice, push after finalize
    StreamingSweep sweep(cfg, grid);
    sweep.push(fb, 0, fb.num_samples());
    (void)sweep.finalize();
    EXPECT_THROW(sweep.finalize(), std::logic_error);
    EXPECT_THROW(sweep.push(fb, 0, 1), std::logic_error);
  }
}

}  // namespace
}  // namespace drapid
