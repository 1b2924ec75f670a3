"""Benchmark entry point.

    python3 bench/run.py --workload corner_battery --seed 0 --seconds 10 --trace 0

Runs one workload from ``BENCHMARK.json`` against the library in ``src/``
of the checkout this file sits in, checks every output, and prints as its
last line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The line before it records the environment.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
run measures untraced for half the time and traced for the other half, and
reports the per-layer ones.  Exit status: 0 on success, 1 when an output is
wrong (the result then reads ``"correct": false``), 2 when the library or
the benchmark's own files cannot be loaded.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# setup_s is the median over this many set-ups: this process and fresh
# interpreters for the rest.
SETUP_SAMPLES = 7


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up once and print the set-up time")
    return parser.parse_args(argv)


def fail_load(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_library():
    """Import ychannel from this checkout's src/, never from elsewhere."""
    if not (SRC / "ychannel" / "__init__.py").is_file():
        fail_load(f"no library sources at {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import ychannel
    except ImportError as exc:
        fail_load(f"cannot import ychannel: {exc}")
    if SRC not in Path(ychannel.__file__).resolve().parents:
        fail_load(f"ychannel imported from {ychannel.__file__}, not {SRC}")


def probe_setup(args) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def main(argv=None) -> int:
    args = parse_args(argv)
    # The workloads run the library's default single-threaded Monte Carlo path.
    inherited_threads = os.environ.pop("GSA_DOF_THREADS", None)
    load_library()
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail_load(f"cannot read BENCHMARK.json: {exc}")
    import harness
    from workloads import WORKLOADS, CheckError

    if args.workload not in WORKLOADS or args.workload not in {
            w["name"] for w in spec["workloads"]}:
        fail_load(f"unknown workload {args.workload!r}")
    rounds = WORKLOADS[args.workload]

    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    tally = harness.Tally()
    try:
        # set-up: imports plus one warm-up item, excluded from item timings
        kind, inp = next(rounds(args.seed))[0]
        run, check, _ = harness.KINDS[kind]
        out = run(inp, str(tmp))
        setup_main = time.perf_counter() - T0
        if args.setup_probe:
            print(repr(setup_main))
            return 0
        check(inp, out)
        setup_samples = [setup_main, *probe_setup(args)]
        setup_s = statistics.median(setup_samples)
        env = harness.environment(ROOT, inherited_threads)

        if args.workload == "selftest":
            from selftest import run_self_test
            run_self_test(spec, args.seed, str(tmp))

        if args.trace == 0:
            phase = harness.measure(rounds(args.seed), args.seconds, str(tmp), tally)
            values = harness.end_to_end_metrics(setup_s, phase, tally)
            metrics = harness.with_units(values, harness.END_TO_END_UNITS)
            harness.validate(metrics, spec["end_to_end"])
            phases = [phase]
        else:
            from spans import Tracer, install
            half = args.seconds / 2.0
            untraced = harness.measure(rounds(args.seed), half, str(tmp), tally)
            tracer = Tracer()
            patch = install(tracer)
            try:
                traced = harness.measure(rounds(args.seed), half, str(tmp), tally, tracer)
            finally:
                patch.restore()
            tracer.write(str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"))
            values = harness.per_layer_values(tracer, untraced, traced, tally)
            metrics = harness.with_units(values, harness.PER_LAYER_UNITS)
            harness.validate(metrics, spec["per_layer"])
            phases = [untraced, traced]
    except CheckError as exc:
        print(f"bench: check failed: {exc}", file=sys.stderr)
        return report(False, tally, {})
    except Exception:
        # any non-domain exception from the program is a wrong output
        traceback.print_exc()
        return report(False, tally, {})
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    ref = [r for p in phases for r in p.ref]
    env["machine.ref_ms"] = 1e3 * statistics.median(ref)
    tail, percentile = phases[0].tail()
    run_info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "items": [len(p.times) for p in phases],
        # Reported here, unbounded: host stalls move it too much between runs.
        "item_ms.tail": {"value": 1e3 * tail, "unit": "ms", "percentile": percentile},
        "fail_ratio": tally.failed / tally.attempted,
        "setup_s_samples": setup_samples,
        "unscaled": {
            "setup_s": setup_s,
            "items_per_s": phases[0].items_per_s,
            "item_ms.p50": 1e3 * phases[0].p50,
            "speed_scale": harness.speed_scale(phases[0]),
        },
    }
    record = {"environment": env, "run": run_info}
    (OUT / f"env-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(record))
    return report(True, tally, metrics)


def report(correct: bool, tally, metrics: dict) -> int:
    print(json.dumps({
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
