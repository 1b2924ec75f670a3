"""Compare two checkouts on the benchmark with alternating pairs of runs.

Each pair runs ``bench/run.py --workload W --seed S --seconds T --trace 0``
once in the parent checkout and once in the change checkout, with the same
seed.  Odd-numbered pairs run the parent first and even-numbered pairs the
change, so a drift in machine speed falls on both sides alike.  Pair k uses
seed k.  Each pair's metric values are printed as it finishes.

For every end-to-end metric in the change's ``BENCHMARK.json`` it prints each
side's median and quartiles (``statistics.quantiles(method="inclusive")``),
the change of the median, the number of pairs the change won (strictly
better in its direction), and whether the change's median is worse than the
parent's by more than the metric's bound.  That verdict reads "unresolved"
when the parent's own spread, its interquartile range over its median,
exceeds the bound: such pairs cannot tell a shift of the bound's size from
noise.  It reads "no" all the same when every change run is better than
every parent run.  Times are the benchmark's reference-scaled values.  The
default of 10 pairs is the least that a claim of a gain should rest on.

    python tools/bench_pairs.py --parent ../ychannel-parent --change . \\
        --workload corner_battery --workload montecarlo_cli --seconds 20

It refuses to start, with exit status 2, while either checkout has a
``__pycache__`` under ``src/``: a side that imports from compiled bytecode
sets up faster, which biases ``setup_s``.  The runs write such caches, so
delete them in both checkouts before each use:

    find ../ychannel-parent/src ./src -name __pycache__ -prune -exec rm -r {} +

Exit status: 0 when every run printed ``"correct": true``, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable); default: every workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    return args


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; its last stdout line, or ``correct: false`` if that is not JSON."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "metrics": {}}
    if result.get("correct") is not True:
        print(f"{checkout} {workload} seed {seed}: exit {proc.returncode}\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
    return result


def value(result: dict, name: str) -> float:
    return result["metrics"].get(name, {}).get("value", float("nan"))


def summarize(workload: str, runs: list[tuple[dict, dict]], spec: list[dict]) -> None:
    print(f"{workload}: {len(runs)} pairs, parent -> change")
    print(f"  {'metric':<12} {'parent median [q1, q3]':>28} {'change median [q1, q3]':>28}"
          f" {'change':>8} {'won':>6}  over bound")
    for metric in spec:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [value(p, name) for p, _ in runs]
        change = [value(c, name) for _, c in runs]
        sides = []
        for values in (parent, change):
            q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
            sides.append((median, q1, q3))
        won = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        (base, low, high), new = sides[0], sides[1][0]
        shift = (new - base) / base if base else 0.0
        worse = -shift if higher else shift
        beats_all = min(change) > max(parent) if higher else max(change) < min(parent)
        if base and (high - low) / abs(base) > metric["bound"] and not beats_all:
            verdict = "unresolved"
        else:
            verdict = "no" if worse <= metric["bound"] else "YES"
        cells = [f"{m:.4g} [{q1:.4g}, {q3:.4g}]" for m, q1, q3 in sides]
        print(f"  {name:<12} {cells[0]:>28} {cells[1]:>28} {shift:>+8.1%} "
              f"{won:>3}/{len(runs):<2}  {verdict}")


def main(argv=None) -> int:
    args = parse_args(argv)
    for checkout in (args.parent, args.change):
        cache = next((checkout / "src").rglob("__pycache__"), None)
        if cache is not None:
            print(f"bench_pairs: {cache} holds compiled bytecode, which biases setup_s; "
                  f"delete every __pycache__ under both checkouts' src/", file=sys.stderr)
            return 2
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    names = [metric["name"] for metric in spec["end_to_end"]]
    correct = True
    for workload in workloads:
        runs = []
        for seed in range(1, args.pairs + 1):
            order = ["parent", "change"] if seed % 2 else ["change", "parent"]
            results = {}
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                results[side] = run_bench(checkout, workload, seed, args.seconds)
                correct &= results[side].get("correct") is True
            runs.append((results["parent"], results["change"]))
            for side in ("parent", "change"):
                cells = " ".join(f"{n}={value(results[side], n):.4g}" for n in names)
                print(f"{workload} pair {seed} {side}: {cells}", flush=True)
        summarize(workload, runs, spec["end_to_end"])
    if not correct:
        print("bench_pairs: a run printed \"correct\": false", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
