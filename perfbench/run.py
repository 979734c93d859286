#!/usr/bin/env python3
"""Runs one perfbench workload and prints its result as the last stdout line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles ../src) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
only let CMake bring it up to date. Every file the run writes stays under
that directory: scratch archives and spill files in work/, Chrome traces in
traces/ (checked with the repository's trace_check), and one JSON record per
run, with its host/build stamp, in results/.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the repository sources (src/) are missing; nothing to build", 2)
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", "4"])
    for step in steps:
        # Build chatter goes to stderr; stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step), 3)


def check_result(result, spec, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys: %s" % sorted(result))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != units:
        raise ValueError("metrics differ from BENCHMARK.json: %s"
                         % sorted(set(got.items()) ^ set(units.items())))


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    out = build_dir()
    build(out)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    work = os.path.join(out, "work", args.workload)
    tmp = os.path.join(out, "tmp")
    # Only the latest trace per workload is kept; traces run to megabytes.
    trace_file = os.path.join(out, "traces", args.workload + ".trace.json")
    result_file = os.path.join(out, "results", tag + ".json")
    shutil.rmtree(work, ignore_errors=True)
    for d in (work, tmp, os.path.dirname(trace_file),
              os.path.dirname(result_file)):
        os.makedirs(d, exist_ok=True)

    cmd = [os.path.join(out, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--result-out", result_file]
    if args.trace:
        cmd += ["--trace-out", trace_file]
    env = dict(os.environ, TMPDIR=tmp)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              env=env, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 4)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("benchmark exited with code %d" % proc.returncode, 5)

    result = json.loads(lines[-1])
    try:
        check_result(result, spec, args.trace)
    except ValueError as e:
        fail(str(e), 6)
    if args.trace:
        check = subprocess.run(
            [os.path.join(out, "trace_check"), "--trace", trace_file],
            stdout=sys.stderr, stderr=sys.stderr)
        if check.returncode != 0:
            result["correct"] = False
            result["failed"] += 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
