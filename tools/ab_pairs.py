#!/usr/bin/env python3
"""Runs perfbench workloads in alternating parent/change pairs.

    python3 tools/ab_pairs.py --workloads identify_process identify_local \\
        --pairs 5 --seeds 1 2 3 [--parent REV] [--change REV] [--seconds S]
    python3 tools/ab_pairs.py --aa --workloads ... --spread-out spread.json

Run from inside the repository. Both sides are checked out as detached git
worktrees in one temporary directory, each building perfbench into its own
CARGO_TARGET_DIR there, and the worktrees are removed on exit. The parent
defaults to HEAD; the change defaults to the working tree as it stands, so
tracked edits and staged new files are measured before they are committed
(untracked files are not). Pair i runs seed seeds[i % len(seeds)] on both
sides, the parent first in even pairs and the change first in odd ones, so
drift on a shared host lands on both sides alike.

For every workload and end-to-end metric the report prints the per-pair
values, each side's median and interquartile range, the median of the
per-pair change/parent ratios and how many pairs the change won (by the
metric's `better` direction in BENCHMARK.json). With --aa the "change" is a
second copy of the parent; the report then measures the host's own spread,
and --spread-out writes it as JSON: per workload, per metric, the per-pair
ratios, their median, and the IQR of each side over its median.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile


def git(*args, cwd=None):
    return subprocess.run(["git"] + list(args), cwd=cwd, check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def resolve(rev):
    """A commit id for `rev`; None means the working tree (via a stash
    commit, which leaves the tree and the stash list untouched)."""
    if rev is not None:
        return git("rev-parse", "--verify", rev + "^{commit}")
    return git("stash", "create") or git("rev-parse", "HEAD")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_one(tree, target, workload, seed, seconds):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError("%s seed %d failed in %s (exit %d)"
                           % (workload, seed, tree, proc.returncode))
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["failed_share"] = (result["failed"] / result["attempted"]
                              if result["attempted"] else 0.0)
    return values


def summarize(workload, pairs, better):
    """Per-metric report lines and the spread record for one workload."""
    lines = ["== %s (%d pairs)" % (workload, len(pairs))]
    spread = {}
    for metric in pairs[0][0]:
        parent = [p[metric] for p, _ in pairs]
        change = [c[metric] for _, c in pairs]
        ratios = [c / p if p else (1.0 if c == p else float("inf"))
                  for p, c in zip(parent, change)]
        direction = better.get(metric, "lower")
        wins = sum((c < p) if direction == "lower" else (c > p)
                   for p, c in zip(parent, change))
        pq, cq = quartiles(parent), quartiles(change)
        rel_iqr = lambda q: (q[2] - q[0]) / q[1] if q[1] else 0.0
        lines.append(
            "  %-17s parent %.4g (IQR %.4g)  change %.4g (IQR %.4g)  "
            "ratio %.3f  wins %d/%d (%s is better)"
            % (metric, pq[1], pq[2] - pq[0], cq[1], cq[2] - cq[0],
               statistics.median(ratios), wins, len(pairs), direction))
        lines.append("      pairs: " + "  ".join(
            "%.4g/%.4g" % (p, c) for p, c in zip(parent, change)))
        spread[metric] = {
            "ratios": ratios,
            "median_ratio": statistics.median(ratios),
            "parent_iqr_over_median": rel_iqr(pq),
            "change_iqr_over_median": rel_iqr(cq),
        }
    return lines, spread


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--change", default=None,
                        help="revision to measure; default: the working tree")
    parser.add_argument("--aa", action="store_true",
                        help="measure the parent against a copy of itself")
    parser.add_argument("--spread-out", help="write the A/A spread JSON here")
    args = parser.parse_args()

    root = git("rev-parse", "--show-toplevel")
    os.chdir(root)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    parent_rev = resolve(args.parent)
    change_rev = parent_rev if args.aa else resolve(args.change)
    print("parent %s  change %s%s" % (parent_rev[:12], change_rev[:12],
                                      "  (A/A)" if args.aa else ""))

    scratch = tempfile.mkdtemp(prefix="ab_pairs_")
    sides = {}
    try:
        for side, rev in (("parent", parent_rev), ("change", change_rev)):
            tree = os.path.join(scratch, side)
            git("worktree", "add", "--detach", tree, rev)
            sides[side] = (tree, os.path.join(scratch, side + "-target"))
        spreads = {}
        for workload in args.workloads:
            pairs = []
            for i in range(args.pairs):
                seed = args.seeds[i % len(args.seeds)]
                order = ["parent", "change"] if i % 2 == 0 else [
                    "change", "parent"]
                got = {}
                for side in order:
                    tree, target = sides[side]
                    got[side] = run_one(tree, target, workload, seed,
                                        args.seconds)
                pairs.append((got["parent"], got["change"]))
                print("  %s pair %d seed %d done" % (workload, i, seed),
                      flush=True)
            lines, spreads[workload] = summarize(workload, pairs, better)
            print("\n".join(lines), flush=True)
        if args.aa and args.spread_out:
            with open(args.spread_out, "w") as f:
                json.dump(spreads, f, indent=1)
    finally:
        for tree, _ in sides.values():
            subprocess.run(["git", "worktree", "remove", "--force", tree],
                           cwd=root)
        subprocess.run(["git", "worktree", "prune"], cwd=root)
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    main()
