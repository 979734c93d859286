// The dedispersion oracle for the sweep suites: the shift-plan sweep summed
// in channel order, one plan at a time on one thread — build_sweep_plan +
// dedisperse_plan + the test-side detector (detect_reference.hpp) +
// merge_plan_events, with the mitigation stage applied to a copy first. The
// production engine (single_pulse_search / StreamingSweep) is held to it:
// byte for byte at subband_groups 1 and C, detected events at the auto
// group count.
#pragma once

#include <vector>

#include "dedisp/rfi_mitigation.hpp"
#include "dedisp/single_pulse_search.hpp"
#include "detect_reference.hpp"
#include "spe/dm_grid.hpp"

namespace drapid {

inline std::vector<SinglePulseEvent> reference_sweep(
    const Filterbank& input, const DmGrid& grid,
    const SinglePulseSearchParams& params) {
  Filterbank fb = input;
  std::vector<std::uint8_t> mask = params.channel_mask;
  if (params.rfi.policy != MitigationPolicy::kOff) {
    apply_rfi_mitigation(fb, params.rfi, mask);
  }
  const SweepPlan sweep = build_sweep_plan(fb, grid, params.dm_stride, mask);
  std::vector<std::vector<SinglePulseEvent>> found(sweep.plans.size());
  DedispScratch dedisp_scratch;
  for (std::size_t p = 0; p < sweep.plans.size(); ++p) {
    dedisperse_plan(fb, sweep.plans[p], dedisp_scratch);
    found[p] = reference_detect_events(
        dedisp_scratch.series, grid.dm_at(sweep.plans[p].trials.front()),
        fb.config().sample_time_ms, params);
  }
  return detail::merge_plan_events(sweep, grid, params.dm_stride, found);
}

}  // namespace drapid
