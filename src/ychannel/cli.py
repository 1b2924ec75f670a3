"""Command-line front end.

Subcommands:

* ``bound``: exact upper bound, regime and branch index for one config.
* ``sweep``: plot-ready CSV of upper/achievable DoF per antenna ratio.
* ``synthesize``: build, verify and simulate one alignment scheme.
* ``montecarlo``: noisy sum-rate sweep and fitted DoF slope.

Exit codes: 0 success, 1 domain infeasibility, verification failure or an
``--out`` path that cannot be opened, 2 usage error.  All output is
deterministic given the flags.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import numbers
import sys
from fractions import Fraction

import numpy as np

from .alignment import (
    allocate_streams,
    save_scheme,
    verify_alignment_conditions,
)
from .bounds import breakpoints, corner_points, gap_report, regime_of, upper_bound
from .config import SystemConfig, check_integer
from .errors import ConfigurationError, YChannelError
from .simulation import (
    RECOVERY_TOL,
    _check_fit_grid,
    _rated_pipelines,
    fit_slope,
    prepare,
    result_record,
    simulate,
    simulate_grid,
    write_records_csv,
)


def _user_count(text: str) -> int:
    value = int(text)
    if value < 3:
        raise argparse.ArgumentTypeError(f"need at least 3 users, got {value}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _ratio(entry: str) -> Fraction:
    # Fraction computes 10**exponent before any check; a float holds every ratio
    # _check_ratio_grid accepts as finite and nonzero, so this refuses none of them
    if "e" in entry.lower() and float(entry) in (0.0, float("inf"), float("-inf")):
        raise ValueError(f"{entry.strip()} is 0 or outside the float range")
    return Fraction(entry)


def _ratio_grid(text: str) -> list[Fraction]:
    try:
        grid = [_ratio(p) for p in text.split(",") if p.strip()]
        _check_ratio_grid(grid)  # the grid sweep_grid takes; a ConfigurationError is a ValueError
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad ratio grid {text!r}: {exc}") from exc
    return grid


def _snr_grid(text: str) -> list[float]:
    try:
        grid = [float(p) for p in text.split(",") if p.strip()]
        _check_fit_grid(grid)  # the grid fit_slope takes; a ConfigurationError is a ValueError
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad SNR grid {text!r}: {exc}") from exc
    return grid


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused by every later one."""
    parser = argparse.ArgumentParser(
        prog="ychannel",
        description="DoF bounds and alignment relaying for K-user MIMO Y networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--k", type=_user_count, required=True, help="user count (>= 3)")
    config.add_argument("--m", type=_positive_int, required=True, help="source antennas")
    config.add_argument("--n", type=_positive_int, required=True, help="relay antennas")

    p_bound = sub.add_parser("bound", parents=[config], help="exact DoF upper bound for one config")
    p_bound.add_argument("--json", action="store_true", help="emit JSON instead of text")

    p_sweep = sub.add_parser("sweep", help="CSV of bounds over an antenna-ratio grid")
    p_sweep.add_argument("--k", type=_user_count, required=True)
    group = p_sweep.add_mutually_exclusive_group()
    group.add_argument(
        "--grid", type=_ratio_grid, help="comma-separated exact ratios, e.g. 11/5,2,3"
    )
    group.add_argument(
        "--grid-auto",
        type=_positive_int,
        help="evenly spaced grid with this many points over (0, K]",
    )
    p_sweep.add_argument("--out", type=str, help="write CSV here instead of stdout")

    p_syn = sub.add_parser(
        "synthesize", parents=[config], help="build and verify one alignment scheme"
    )
    p_syn.add_argument("--beta", type=_positive_int, required=True)
    p_syn.add_argument("--seed", type=int, default=0)
    p_syn.add_argument("--out", type=str, help="write the scheme JSON here")

    p_mc = sub.add_parser("montecarlo", parents=[config], help="noisy sum-rate sweep and DoF slope")
    p_mc.add_argument("--beta", type=_positive_int, required=True)
    p_mc.add_argument("--seeds", type=_positive_int, required=True, help="seed count")
    p_mc.add_argument(
        "--snr-grid", type=_snr_grid, required=True, help="comma-separated SNRs in dB"
    )
    p_mc.add_argument("--base-seed", type=int, default=0)
    p_mc.add_argument("--out", type=str, help="write per-run CSV here")
    return parser


def cmd_bound(args: argparse.Namespace) -> int:
    cfg = SystemConfig(args.k, args.m, args.n)
    value = upper_bound(cfg)
    label = regime_of(cfg)
    if args.json:
        payload = {
            "k": cfg.K,
            "m": cfg.M,
            "n": cfg.N,
            "upper": str(value),
            "upper_decimal": float(value),
            "regime": label.kind.value,
            "beta": label.beta,
        }
        print(json.dumps(payload))
    else:
        print(f"upper bound: {value} ({float(value):.6g})")
        suffix = "" if label.beta is None else f" (beta={label.beta})"
        print(f"regime: {label.kind.value}{suffix}")
    return 0


def _check_ratio_grid(grid: list) -> None:
    """Refuse an empty grid, a ratio that is not a positive exact rational, and a
    numerator or denominator of 2^1000 or more."""
    if not grid:
        raise ConfigurationError("the ratio grid is empty")
    for r in grid:
        exact = not isinstance(r, bool) and isinstance(r, numbers.Rational)
        # N/M in lowest terms are antenna counts; the sweep prints them exactly and as
        # floats. Checked first, so that no refusal prints more digits than str() allows
        if exact and max(abs(r.numerator), r.denominator) >= 2**1000:
            raise ConfigurationError("grid ratios need numerator and denominator below 2^1000")
        if not exact or not r > 0:
            raise ConfigurationError(f"grid ratios must be positive exact rationals, got {r}")


def sweep_grid(
    K: int, grid: list[Fraction] | None = None, resolution: int | None = None
) -> list[Fraction]:
    """Sorted ratios: ``grid`` or ``resolution`` points over (0, K], and the analytic ones."""
    # branch breakpoints and corner ratios, injected into every sweep so the piecewise
    # kinks are never missed by sampling
    points = set(breakpoints(K)) | {c.abscissa for c in corner_points(K)}
    if grid is not None:
        if resolution is not None:
            raise ConfigurationError("give a ratio grid or a resolution, not both")
        _check_ratio_grid(grid)
        points.update(grid)
    else:
        steps = 100 if resolution is None else check_integer(resolution, "resolution")
        if steps < 1:
            raise ConfigurationError(f"resolution must be a positive integer, got {steps}")
        points.update(Fraction(j * K, steps) for j in range(1, steps + 1))
    return sorted(points)


def sweep_rows(K: int, ratios: list[Fraction]) -> list[dict]:
    rows = []
    for ratio in ratios:
        cfg = SystemConfig(K, ratio.denominator, ratio.numerator)
        report = gap_report(cfg)
        upper_per_m = report.upper / cfg.M
        ach_per_m = report.achievable / cfg.M
        rows.append(
            {
                "ratio": str(ratio),
                "ratio_decimal": float(ratio),
                "upper_per_m": str(upper_per_m),
                "upper_per_m_decimal": float(upper_per_m),
                "achievable_per_m": str(ach_per_m),
                "achievable_per_m_decimal": float(ach_per_m),
                "tight": "true" if report.tight else "false",
            }
        )
    return rows


def cmd_sweep(args: argparse.Namespace) -> int:
    rows = sweep_rows(args.k, sweep_grid(args.k, args.grid, args.grid_auto))
    fieldnames = list(rows[0].keys())

    def emit(fh) -> None:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            emit(fh)
    else:
        emit(sys.stdout)
    return 0


def cmd_synthesize(args: argparse.Namespace) -> int:
    cfg = SystemConfig(args.k, args.m, args.n)
    alloc = allocate_streams(cfg, args.beta)  # names the N or the extension factor it needs
    prep = prepare(cfg, args.beta, args.seed)
    scheme = prep.scheme  # above the corner this is the scheme deactivated down to it
    print(f"streams per pair: {alloc.per_pair} (total {alloc.d_total})")
    print(f"compression rows: {alloc.rows} ({alloc.per_subset} per subset)")
    print(f"alignment residual: {scheme.alignment_residual:.3e}")
    print(f"basis condition: {scheme.basis_condition:.3e}")
    report = verify_alignment_conditions(scheme, prep.ch)
    print(f"alignment conditions verified: {'pass' if report.passed else 'FAIL'}")
    result = simulate(prep)
    print(f"noiseless relay recovery error: {result.relay_recovery_error:.3e}")
    if result.bc_failure is None:
        print(f"noiseless user recovery error: {result.user_recovery_error:.3e}")
    else:
        print(f"downlink construction failed: {result.bc_failure}")
    if args.out:
        save_scheme(scheme, args.out)
        print(f"scheme written to {args.out}")
    ok = report.passed and result.relay_recovery_error <= RECOVERY_TOL
    if result.bc_failure is None and not result.user_recovery_error <= RECOVERY_TOL:  # NaN fails
        ok = False
    return 0 if ok else 1


def cmd_montecarlo(args: argparse.Namespace) -> int:
    cfg = SystemConfig(args.k, args.m, args.n)
    grid = args.snr_grid
    seeds = [args.base_seed + s for s in range(args.seeds)]
    results = []
    for prep in _rated_pipelines(cfg, args.beta, seeds):
        results += simulate_grid(prep, grid)
    # mean of the CSV sum_rate column per SNR point: the curve sum_rate_curve returns
    curve = np.reshape([r.sum_rate for r in results], (len(seeds), len(grid))).mean(axis=0)
    slope = fit_slope(grid, curve)
    span = max(grid) - min(grid)
    if len(seeds) < 10 or span < 20.0:
        print("warning: low-confidence fit (few seeds or narrow SNR span)")
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            write_records_csv(map(result_record, results), fh)
        print(f"per-run records written to {args.out}")
    for snr, rate in zip(grid, curve):
        print(f"snr {snr:g} dB: mean sum rate {rate:.4f} bits/use")
    print(f"fitted slope: {slope:.4f}")
    print(f"target stream total: {prep.scheme.alloc.d_total}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse hands "--opt=--" on as [] without calling the option's type; no option takes []
    empty = next((name for name, value in vars(args).items() if value == []), None)
    if empty is not None:
        parser.error(f"argument --{empty.replace('_', '-')}: expected one argument")
    command = globals()[f"cmd_{args.command}"]  # looked up per call, so a rebound cmd_* runs
    try:
        return command(args)
    except (YChannelError, OSError) as exc:  # OSError: an --out path that cannot be opened
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())
