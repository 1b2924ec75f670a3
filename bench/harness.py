"""Timed item loop, metric assembly and the result contract."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import ychannel as Y
from spans import layer_metrics
from workloads import KINDS, PHASE_CHECKS, CheckError

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_ms.p50": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# Failure counts per exception class; any other domain error counts as "other".
FAILURE_CLASSES = [
    "DegenerateChannelError",
    "DegenerateSplitError",
    "AlignmentInfeasibleError",
    "AlignmentVerificationError",
    "DecodabilityError",
    "BroadcastInfeasibleError",
    "InfeasibleConfigurationError",
    "other",
]

PER_LAYER_UNITS = {
    "channel.sample_ms": "ms",
    "channel.extend_ms": "ms",
    "alignment.compression_ms": "ms",
    "alignment.precoders_ms": "ms",
    "alignment.certify_ms": "ms",
    "alignment.verify_ms": "ms",
    "linalg.svd_calls": "count",
    "linalg.svd_ms": "ms",
    "linalg.svd_work": "count",
    "alignment.assemble_calls": "count",
    "alignment.useful_ratio": "ratio",
    "simulation.bc_scheme_ms": "ms",
    "simulation.mac_ms": "ms",
    "simulation.relay_decode_ms": "ms",
    "simulation.bc_phase_ms": "ms",
    "simulation.user_decode_ms": "ms",
    "simulation.rates_ms": "ms",
    "simulation.self_ms": "ms",
    "cli.self_ms": "ms",
    "serialization.save_ms": "ms",
    "serialization.load_ms": "ms",
    "bounds.calls": "count",
    **{f"failures.{name}": "count" for name in FAILURE_CLASSES},
    "trace.overhead": "1/s",
    "machine.ref_ms": "ms",
}

# Items beyond the reported tail percentile.
TAIL_BEYOND = 10

# Reference-kernel time (ms) the end-to-end times are scaled to.  On the
# 2-vCPU Xeon VM the benchmark was tuned on, the host changes single-thread
# speed by up to a fifth from one run to the next; the interleaved kernel
# tracks it, and scaling by it halved the run-to-run spread of items_per_s
# (0.19 -> 0.07 on montecarlo_cli).
REF_MS = 2.3


def ref_kernel() -> float:
    """Seconds taken by a fixed single-threaded pure-Python loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc = (acc * 31 + i) % 1_000_003
    elapsed = time.perf_counter() - start
    if acc != 667472:
        raise CheckError(f"reference kernel returned {acc}")
    return elapsed


@dataclass
class Tally:
    """Items attempted and failed over every measured phase of a run."""

    attempted: int = 0
    failures: Counter = field(default_factory=Counter)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


@dataclass
class Phase:
    """Item times of one measured phase, grouped by round."""

    rounds: list[list[float]] = field(default_factory=list)
    ref: list[float] = field(default_factory=list)

    @property
    def times(self) -> list[float]:
        return [t for r in self.rounds for t in r]

    def position_medians(self) -> list[float]:
        """Median item time at each position of the round.

        Positions hold one instance each, so the medians stay apart where a
        plain median over a mixed round would sit in the gap between two
        instance sizes and swing with the extreme items next to it.
        """
        return [statistics.median(column) for column in zip(*self.rounds)]

    @property
    def p50(self) -> float:
        """Median over round positions of their median item time."""
        return statistics.median(self.position_medians())

    @property
    def items_per_s(self) -> float:
        """Items per second of program time for a round of median items."""
        medians = self.position_medians()
        return len(medians) / sum(medians)

    def tail(self) -> tuple[float, float]:
        """(value, percentile) of the highest percentile with TAIL_BEYOND items above."""
        ordered = sorted(self.times)
        n = len(ordered)
        k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
        return ordered[k], 100.0 * (k + 1) / n


def failure_name(exc: Exception) -> str:
    cause = exc.cause if isinstance(exc, Y.StageError) else exc
    name = type(cause).__name__
    return name if name in FAILURE_CLASSES else "other"


def measure(rounds, seconds: float, tmp: str, tally: Tally, tracer=None) -> Phase:
    """Run whole rounds until ``seconds`` have passed (at least one round).

    Item times cover only the calls into the program; output checks and the
    reference kernel run between items and are not timed.
    """
    phase = Phase()
    phase_values: dict[str, list] = {}
    deadline = time.perf_counter() + seconds
    while True:
        phase.ref.append(ref_kernel())
        times = []
        for kind, inp in next(rounds):
            tally.attempted += 1
            if tracer is not None:
                tracer.item = tally.attempted
                tracer.enabled = True
            start = time.perf_counter()
            try:
                out = KINDS[kind][0](inp, tmp)
            except Y.YChannelError as exc:
                out = None
                tally.failures[failure_name(exc)] += 1
            times.append(time.perf_counter() - start)
            if tracer is not None:
                tracer.enabled = False
            if out is not None:
                value = KINDS[kind][1](inp, out)
                if kind in PHASE_CHECKS:
                    phase_values.setdefault(kind, []).append(value)
        phase.rounds.append(times)
        if time.perf_counter() >= deadline:
            for kind, values in phase_values.items():
                PHASE_CHECKS[kind](values)
            return phase


def speed_scale(phase: Phase) -> float:
    """Measured reference-kernel time over REF_MS: above 1 on a slow host."""
    return 1e3 * statistics.median(phase.ref) / REF_MS


def end_to_end_metrics(setup_s: float, phase: Phase, tally: Tally) -> dict[str, float]:
    """End-to-end figures; times are scaled to the reference kernel speed."""
    scale = speed_scale(phase)
    return {
        "setup_s": setup_s / scale,
        "items_per_s": phase.items_per_s * scale,
        "item_ms.p50": 1e3 * phase.p50 / scale,
        "ok_ratio": 1.0 - tally.failed / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_values(tracer, untraced: Phase, traced: Phase, tally: Tally) -> dict[str, float]:
    values = layer_metrics(tracer, len(traced.times))
    values.update(
        {f"failures.{name}": float(tally.failures[name]) for name in FAILURE_CLASSES}
    )
    values["trace.overhead"] = traced.items_per_s - untraced.items_per_s
    values["machine.ref_ms"] = 1e3 * statistics.median(untraced.ref + traced.ref)
    return values


def with_units(values: dict[str, float], units: dict[str, str]) -> dict[str, dict]:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def validate(metrics: dict[str, dict], spec: list[dict]) -> None:
    """Every metric named in the spec is present with its unit and a finite value."""
    want = {m["name"]: m["unit"] for m in spec}
    if set(metrics) != set(want):
        raise CheckError(
            f"metric names differ from BENCHMARK.json: missing "
            f"{sorted(set(want) - set(metrics))}, extra {sorted(set(metrics) - set(want))}"
        )
    for name, entry in metrics.items():
        if entry.get("unit") != want[name]:
            raise CheckError(f"{name}: unit {entry.get('unit')!r}, expected {want[name]!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise CheckError(f"{name}: value {value!r} is not a finite number")


def _git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas() -> str | None:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return None
    return f"{deps.get('name')} {deps.get('version')}"


def environment(root: Path, inherited_threads: str | None) -> dict:
    src = hashlib.sha256()
    for path in sorted((root / "src" / "ychannel").glob("*.py")):
        src.update(path.name.encode())
        src.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "GSA_DOF_THREADS": os.environ.get("GSA_DOF_THREADS"),
        "GSA_DOF_THREADS_inherited": inherited_threads,
        "git_commit": _git_commit(root),
        "src_sha256": src.hexdigest(),
    }
