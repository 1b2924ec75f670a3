"""Benchmark workloads: item inputs from a seed, item bodies and output checks.

An item is one unit of user-visible work.  Every workload is a closed loop
with one client: the next item starts when the previous one returns.  Items
come in rounds; a run only stops at a round boundary, so every run covers
the same mix of instances.

Item bodies call the library through module attributes at call time (never
through names bound here at import), so the traced run's wrappers see every
call.  Checks run outside the timed region and with tracing paused.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import os
from dataclasses import dataclass

import numpy as np

import ychannel as Y
import ychannel.cli  # noqa: F401  (binds Y.cli)
from ychannel.alignment import ALIGNMENT_TOL, BASIS_COND_MAX
from ychannel.simulation import RECOVERY_TOL

# The criterion-3 corner instances (K, M, N, beta) of the acceptance suite.
CORNER_INSTANCES = [
    (4, 3, 7, 2),
    (5, 5, 11, 2),
    (5, 4, 13, 3),
    (6, 15, 32, 2),
    (6, 26, 81, 3),
    (6, 5, 21, 4),
]
SMALLEST_CORNER = CORNER_INSTANCES[0]

# montecarlo_cli instance.  On the 60-90 dB grid the slope over many seeds
# lies within 0.1% of the 60-stream total, so a 2% check is tight; the
# README's 30-60 dB grid only reaches 55.3 here.
MC_INSTANCE = (6, 15, 32, 2)
MC_GRID = (60.0, 70.0, 80.0, 90.0)
MC_SEEDS_PER_ITEM = 1
SLOPE_REL_TOL = 0.02
# The CLI calls a fit on fewer seeds low-confidence, and single seeds do stray:
# seed 204000639 fits 45.00 because its dual basis (condition 1.5e4) inflates
# the relay precoder energy and keeps every downlink rate below the high-SNR
# regime at 60 dB.  So the 2% check applies to the slope over all seeds of a
# phase, once it covers at least this many.
CONFIDENT_SEEDS = 10

SYNTH_INSTANCE = (4, 3, 7, 2)
# (5, 1, 3) reaches the beta=2 corner only through a 5-symbol extension.
EXTENSION_INSTANCE = (5, 1, 3, 2)
EXTENSION_T = 5

# The documented per-run CSV layout (README, "File formats").
CSV_HEADER = ["K", "M", "N", "beta", "t", "seed", "snr_db", "relay_err", "user_err", "sum_rate"]


class CheckError(Exception):
    """A program output is wrong; the run fails instead of counting it."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def stream_total(K: int, M: int, beta: int) -> int:
    """K(K-1) x with x = 4M / (2 + K(K-1) - beta(beta-1)), integral here."""
    x, rem = divmod(4 * M, 2 + K * (K - 1) - beta * (beta - 1))
    if rem:
        raise ValueError("instance needs a symbol extension")
    return K * (K - 1) * x


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = Y.cli.main(argv)
    return code, out.getvalue()


def _printed(stdout: str, label: str) -> str:
    for line in stdout.splitlines():
        if line.startswith(label):
            return line[len(label):].strip()
    raise CheckError(f"CLI output lacks {label!r}")


# --- corner_battery -------------------------------------------------------

@dataclass
class CornerOut:
    scheme: object
    report: object
    frame: object
    decoded: np.ndarray


def run_corner(inp, tmp: str) -> CornerOut:
    K, M, N, beta, seed = inp
    cfg = Y.SystemConfig(K, M, N)
    ch = Y.sample_channels(cfg, seed)
    scheme = Y.assemble_scheme(ch, Y.allocate_streams(cfg, beta), beta)
    report = Y.verify_alignment_conditions(scheme, ch)
    frame = Y.make_frame(scheme, seed)
    decoded = Y.relay_decode(scheme, Y.mac_phase(scheme, ch, frame, 0.0))
    return CornerOut(scheme, report, frame, decoded.entries)


def check_corner(inp, out: CornerOut) -> None:
    _require(out.report.passed, f"{inp}: alignment verifier failed")
    _require(out.scheme.alignment_residual <= ALIGNMENT_TOL,
             f"{inp}: residual {out.scheme.alignment_residual:.3e}")
    _require(out.scheme.basis_condition < BASIS_COND_MAX,
             f"{inp}: condition {out.scheme.basis_condition:.3e}")
    # the pairwise sums s_ij + s_ji in the scheme's block order
    truth = np.concatenate([
        out.frame.streams[(i, j)] + out.frame.streams[(j, i)]
        for (i, j), _, _ in out.scheme.pair_blocks
    ])
    _require(truth.shape == out.decoded.shape, f"{inp}: decoded length mismatch")
    err = float(np.abs(out.decoded - truth).max())
    _require(err <= RECOVERY_TOL, f"{inp}: relay error {err:.3e}")


def corrupt_corner(out: CornerOut) -> CornerOut:
    decoded = np.array(out.decoded)
    decoded[0] += 1e-3
    return CornerOut(out.scheme, out.report, out.frame, decoded)


# --- montecarlo_cli -------------------------------------------------------

@dataclass
class MonteCarloOut:
    code: int
    stdout: str
    csv_path: str
    api_slope: float


def run_montecarlo(inp, tmp: str) -> MonteCarloOut:
    K, M, N, beta, base = inp
    path = os.path.join(tmp, "montecarlo.csv")
    code, stdout = _run_cli([
        "montecarlo", "--k", str(K), "--m", str(M), "--n", str(N), "--beta", str(beta),
        "--seeds", str(MC_SEEDS_PER_ITEM), "--base-seed", str(base),
        "--snr-grid", ",".join(f"{s:g}" for s in MC_GRID), "--out", path,
    ])
    seeds = list(range(base, base + MC_SEEDS_PER_ITEM))
    slope = Y.estimate_dof_slope(Y.SystemConfig(K, M, N), beta, seeds, list(MC_GRID))
    return MonteCarloOut(code, stdout, path, slope)


def check_montecarlo(inp, out: MonteCarloOut) -> tuple:
    K, M, N, beta, base = inp
    _require(out.code == 0, f"{inp}: montecarlo exit code {out.code}")
    with open(out.csv_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    _require(rows and rows[0] == CSV_HEADER, f"{inp}: CSV header {rows[:1]}")
    body = rows[1:]
    _require(len(body) == MC_SEEDS_PER_ITEM * len(MC_GRID), f"{inp}: {len(body)} CSV rows")
    want = itertools.product(range(base, base + MC_SEEDS_PER_ITEM), MC_GRID)
    for row, (seed, snr) in zip(body, want):
        _require(len(row) == len(CSV_HEADER), f"{inp}: CSV row {row}")
        _require([int(v) for v in row[:4]] == [K, M, N, beta] and int(row[5]) == seed
                 and abs(float(row[6]) - snr) <= 1e-9 and row[9] != "", f"{inp}: CSV row {row}")
    total = int(_printed(out.stdout, "target stream total:"))
    _require(total == stream_total(K, M, beta), f"{inp}: stream total {total}")
    cli_slope = float(_printed(out.stdout, "fitted slope:"))
    # the CLI prints four decimals
    _require(abs(cli_slope - out.api_slope) <= 0.5e-4 + 1e-12,
             f"{inp}: CLI slope {cli_slope} != estimate_dof_slope {out.api_slope}")
    return (K, M, beta), cli_slope, out.api_slope


def check_slopes(results: list) -> None:
    """Both slopes over all of a phase's seeds lie within 2% of the stream total.

    Items share the grid and the seed count and the fit is linear in the
    rates, so the mean of the items' slopes is the slope of the phase's mean
    sum-rate curve.
    """
    groups: dict = {}
    for key, cli_slope, api_slope in results:
        groups.setdefault(key, []).append((cli_slope, api_slope))
    for (K, M, beta), slopes in groups.items():
        if len(slopes) * MC_SEEDS_PER_ITEM < CONFIDENT_SEEDS:
            continue
        total = stream_total(K, M, beta)
        for name, column in (("CLI", 0), ("estimate_dof_slope", 1)):
            slope = sum(s[column] for s in slopes) / len(slopes)
            _require(abs(slope - total) <= SLOPE_REL_TOL * total,
                     f"{name} slope {slope:.4f} over {len(slopes) * MC_SEEDS_PER_ITEM} "
                     f"seeds at {(K, M, beta)} is not within 2% of {total}")


def corrupt_montecarlo(out: MonteCarloOut) -> MonteCarloOut:
    with open(out.csv_path, encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(out.csv_path, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:-1])
    return out


# --- small_synth ----------------------------------------------------------

@dataclass
class SynthOut:
    code: int
    stdout: str
    path: str
    loaded: object
    result: object


def run_synth(seed, tmp: str) -> SynthOut:
    K, M, N, beta = SYNTH_INSTANCE
    path = os.path.join(tmp, "scheme.json")
    code, stdout = _run_cli([
        "synthesize", "--k", str(K), "--m", str(M), "--n", str(N), "--beta", str(beta),
        "--seed", str(seed), "--out", path,
    ])
    loaded = Y.load_scheme(path)
    K5, M5, N5, beta5 = EXTENSION_INSTANCE
    result = Y.end_to_end(Y.SystemConfig(K5, M5, N5), beta5, seed)
    return SynthOut(code, stdout, path, loaded, result)


def check_synth(seed, out: SynthOut) -> None:
    K, M, N, beta = SYNTH_INSTANCE
    _require(out.code == 0, f"synthesize seed {seed}: exit code {out.code}")
    _require(_printed(out.stdout, "alignment conditions verified:") == "pass",
             f"synthesize seed {seed}: verifier line")
    with open(out.path, encoding="utf-8") as fh:
        exported = json.load(fh)
    _require(Y.scheme_to_dict(out.loaded) == exported,
             f"synthesize seed {seed}: scheme changed in the round trip")
    _require(_printed(out.stdout, "alignment residual:")
             == f"{out.loaded.alignment_residual:.3e}",
             f"synthesize seed {seed}: exported residual differs from the printed one")
    ch = Y.sample_channels(Y.SystemConfig(K, M, N), seed)
    _require(Y.verify_alignment_conditions(out.loaded, ch).passed,
             f"synthesize seed {seed}: exported scheme fails the verifier")
    res = out.result
    _require(res.t == EXTENSION_T, f"extension seed {seed}: t={res.t}")
    _require(res.bc_failure is None, f"extension seed {seed}: {res.bc_failure}")
    _require(res.relay_recovery_error <= RECOVERY_TOL,
             f"extension seed {seed}: relay error {res.relay_recovery_error:.3e}")
    _require(res.user_recovery_error is not None
             and res.user_recovery_error <= RECOVERY_TOL,
             f"extension seed {seed}: user error {res.user_recovery_error}")


def corrupt_synth(out: SynthOut) -> SynthOut:
    with open(out.path, encoding="utf-8") as fh:
        data = json.load(fh)
    first = next(iter(data["precoders"]))
    data["precoders"][first][0][0][0] += 1e-3
    with open(out.path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return SynthOut(out.code, out.stdout, out.path, Y.load_scheme(out.path), out.result)


# --- workloads ------------------------------------------------------------

# kind -> (item body, output check, corruption the check must catch).  A check
# may return a value; the phase's values go to the kind's entry in PHASE_CHECKS.
KINDS = {
    "corner": (run_corner, check_corner, corrupt_corner),
    "montecarlo": (run_montecarlo, check_montecarlo, corrupt_montecarlo),
    "synth": (run_synth, check_synth, corrupt_synth),
}
PHASE_CHECKS = {"montecarlo": check_slopes}


def _base(seed: int) -> int:
    # disjoint, non-negative seed blocks per benchmark seed
    return (seed * 1_000_003) % (1 << 48)


def corner_rounds(seed: int):
    for r in itertools.count(_base(seed)):
        yield [("corner", (*inst, r)) for inst in CORNER_INSTANCES]


def montecarlo_rounds(seed: int):
    for r in itertools.count(_base(seed), MC_SEEDS_PER_ITEM):
        yield [("montecarlo", (*MC_INSTANCE, r))]


def synth_rounds(seed: int):
    for r in itertools.count(_base(seed)):
        yield [("synth", r)]


def selftest_rounds(seed: int):
    # one item of each workload at its smallest instance
    for r in itertools.count(_base(seed)):
        yield [
            ("corner", (*SMALLEST_CORNER, r)),
            ("synth", r),
            ("montecarlo", (*SMALLEST_CORNER, r)),
        ]


# workload -> generator of item rounds from the benchmark seed
WORKLOADS = {
    "corner_battery": corner_rounds,
    "montecarlo_cli": montecarlo_rounds,
    "small_synth": synth_rounds,
    "selftest": selftest_rounds,
}
