#!/usr/bin/env python3
"""A/B performance gate: the working tree against BASE_REV on BENCHMARK.json.

Usage: python3 scripts/perf_ab.py BASE_REV

Checks BASE_REV out in a temporary git worktree, then runs the
BENCHMARK.json `command` from each tree's root for every workload: 5
interleaved pairs of `run_seconds` runs, alternating which side runs first,
with seeds 1..5 on both sides. The gate fails when any run fails or reports
`failed > 0`, or when a change-side `end_to_end` metric is worse than the
parent's median by more than its bound *and* every change run is worse than
every parent run. Complete separation of 5 pairs happens by chance with
probability 1/252, so the gate does not flake on a noisy host, while a real
regression separates every time. Prints one row per workload and metric:
parent median, change median, verdict.
"""

import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

PAIRS = 5


def run(tree, command, workload, seed, seconds):
    """One benchmark run; returns its JSON result line (None if it broke)."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def verdict(metric, parent, change):
    """ok / unresolved (beyond the bound but overlapping) / WORSE."""
    base, new, bound = statistics.median(parent), statistics.median(change), metric["bound"]
    if metric["better"] == "lower":
        beyond = new > base * (1 + bound)
        separated = min(change) > max(parent)
    else:
        beyond = new < base * (1 - bound)
        separated = max(change) < min(parent)
    if not beyond:
        return "ok"
    return "WORSE" if separated else "unresolved"


def main():
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        sys.exit(__doc__.strip().splitlines()[2])
    base_rev = sys.argv[1]
    change_tree = Path(__file__).resolve().parent.parent
    bench = json.loads((change_tree / "BENCHMARK.json").read_text())
    command, seconds = bench["command"], bench["run_seconds"]

    scratch = Path(tempfile.mkdtemp(prefix="perf_ab-"))
    parent_tree = scratch / "parent"
    subprocess.run(["git", "worktree", "add", "--detach", str(parent_tree), base_rev],
                   cwd=change_tree, check=True, stdout=sys.stderr)
    failures = []
    rows = []
    try:
        # The first run on each side also builds it; perfbench times its
        # ops itself, so the compile does not enter any metric.
        trees = {"parent": parent_tree, "change": change_tree}
        for workload in (w["name"] for w in bench["workloads"]):
            results = {"parent": [], "change": []}
            for seed in range(1, PAIRS + 1):
                order = ["parent", "change"] if seed % 2 else ["change", "parent"]
                for side in order:
                    result = run(trees[side], command, workload, seed, seconds)
                    ok = result is not None and result.get("failed", 1) == 0
                    if ok:
                        results[side].append(result["metrics"])
                    else:
                        failures.append(f"{workload}: {side} run with seed {seed} failed")
                    print(f"perf_ab: {workload} seed {seed} {side}: {'ok' if ok else 'FAILED'}",
                          file=sys.stderr, flush=True)
            for metric in bench["end_to_end"]:
                name = metric["name"]
                parent = [m[name]["value"] for m in results["parent"] if name in m]
                change = [m[name]["value"] for m in results["change"] if name in m]
                if len(parent) < PAIRS or len(change) < PAIRS:
                    rows.append((workload, name, "-", "-", "missing"))
                    failures.append(f"{workload}/{name}: missing from some runs")
                    continue
                outcome = verdict(metric, parent, change)
                if outcome == "WORSE":
                    failures.append(f"{workload}/{name}: worse beyond its bound "
                                    f"{metric['bound']:.0%} in every pair")
                rows.append((workload, name, f"{statistics.median(parent):.4g}",
                             f"{statistics.median(change):.4g}", outcome))
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(parent_tree)],
                       cwd=change_tree, stdout=sys.stderr)
        shutil.rmtree(scratch, ignore_errors=True)

    print("| workload | metric | parent median | change median | verdict |")
    print("|---|---|---|---|---|")
    for row in rows:
        print("| " + " | ".join(row) + " |")
    for failure in failures:
        print(f"FAIL {failure}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
