#!/usr/bin/env bash
# CI entry point: full build + ctest, then the full ctest suite again under
# AddressSanitizer + UndefinedBehaviorSanitizer (the `asan` preset), then a
# ThreadSanitizer pass over the concurrency-heavy suites — the thread pool's
# helping parallel_for join, the engine's mutex-protected stage registry,
# concurrent spill I/O, the span tracer's per-thread buffers, and the
# survey service's single-writer/many-reader archive — the places a data
# race would live.
#
# Usage: tools/check.sh [tsan-build-dir]   (default: build-tsan)
# Set DRAPID_SKIP_ASAN=1 to skip the ASan+UBSan pass (CI runs it as its own
# job) and DRAPID_SKIP_TSAN=1 to skip the TSan pass.
set -euo pipefail

cd "$(dirname "$0")/.."
TSAN_BUILD_DIR="${1:-build-tsan}"

echo "=== build + ctest ==="
cmake -S . -B build
cmake --build build -j "$(nproc)"
ctest --test-dir build -j "$(nproc)" --output-on-failure

# Opt-in micro-bench regression gate: re-record the pinned-seed bundle and
# flag any per-benchmark cpu time that moved >10% vs the committed baseline.
# Timing-noise sensitive, so it runs only when asked for (CI runs it as a
# non-blocking job; see .github/workflows/ci.yml).
if [[ "${DRAPID_BENCH_CHECK:-0}" == "1" ]]; then
  echo "=== micro-bench regression gate (vs BENCH_PR10.json) ==="
  cmake --build build -j "$(nproc)" --target bench_micro_dataflow \
    bench_micro_rapid bench_micro_dedisp bench_micro_ml bench_micro_cv \
    bench_serve bench_rfi report_diff
  current="$(mktemp)"
  trap 'rm -f "$current"' EXIT
  tools/bench_baseline.sh "$current"
  bench_status=0
  for bench in bench_micro_dataflow bench_micro_rapid bench_micro_dedisp \
               bench_micro_ml bench_micro_cv bench_serve bench_rfi; do
    echo "--- $bench ---"
    build/tools/report_diff --bench "$bench" --metrics-only 1 \
      --tolerance 0.10 --a BENCH_PR10.json --b "$current" || bench_status=1
  done
  if [[ "$bench_status" != "0" ]]; then
    echo "check: micro-bench gate flagged >10% changes (see rows above)"
    exit 1
  fi
fi

if [[ "${DRAPID_SKIP_ASAN:-0}" != "1" ]]; then
  # Every ctest case, fork-based pool suites included: halt_on_error turns
  # the first heap error or undefined-behaviour report into a failed test.
  # The asan test preset sets ASAN_OPTIONS/UBSAN_OPTIONS accordingly.
  echo "=== ctest under ASan + UBSan (build-asan) ==="
  cmake --preset asan
  cmake --build --preset asan -j "$(nproc)"
  ctest --preset asan -j "$(nproc)"
fi

if [[ "${DRAPID_SKIP_TSAN:-0}" == "1" ]]; then
  echo "check: build + ctest (+ asan) clean (TSan pass skipped)"
  exit 0
fi

# Fork-based suites are safe to list here: fork() after threads exist is
# undefined under TSan, so process_executor_supported() reports false in
# TSan builds — the engine builds no worker pool and runs every stage
# in-process, and the fork-only tests GTEST_SKIP themselves instead of
# hanging the run. What remains (wire codecs, ExecPolicy, backend
# fallback) still runs under TSan.
TSAN_TARGETS=(
  util_thread_pool_test
  util_thread_pool_stress_test
  dataflow_engine_test
  dataflow_spill_test
  dataflow_fault_test
  dataflow_rdd_test
  dataflow_ipc_wire_test
  dataflow_process_executor_test
  obs_trace_test
  ml_tree_presort_test
  dedisp_sweep_test
  dedisp_streaming_test
  dedisp_subband_test
  dedisp_kernels_test
  dedisp_rfi_mitigation_test
  synth_rfi_test
  clustering_coincidence_test
  serve_torture_test
  serve_service_test
)

cmake -S . -B "$TSAN_BUILD_DIR" -DCMAKE_BUILD_TYPE=Debug -DDRAPID_TSAN=ON
cmake --build "$TSAN_BUILD_DIR" -j "$(nproc)" --target "${TSAN_TARGETS[@]}"

# halt_on_error makes a race fail the script, not just print a report.
export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
for test in "${TSAN_TARGETS[@]}"; do
  echo "=== $test (TSan) ==="
  "$TSAN_BUILD_DIR/tests/$test"
done
echo "check: build + ctest + asan + tsan all clean"
