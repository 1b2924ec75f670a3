"""Acceptance suite: one test per criterion, one printed line per result.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import csv
import dataclasses
import io
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import numpy as np

from test_alignment import brute_force_max_x
from test_bounds import k3_closed_form, k4_closed_form, scan_upper

from ychannel import (
    SystemConfig,
    YChannelError,
    allocate_streams,
    apply_extension_plan,
    assemble_scheme,
    achievable_dof,
    corner_points,
    estimate_dof_slope,
    gap_report,
    mac_phase,
    make_frame,
    plan_extension,
    relay_decode,
    sample_channels,
    stack_network_coded,
    upper_bound,
    verify_alignment_conditions,
)

F = Fraction

CORNER_INSTANCES = [
    (4, 3, 7, 2),
    (5, 5, 11, 2),
    (5, 4, 13, 3),
    (6, 15, 32, 2),
    (6, 26, 81, 3),
    (6, 5, 21, 4),
]


class _Stopwatch:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def _report(name, check):
    with _Stopwatch() as clock:
        try:
            payload = check()
        except BaseException:
            print(f"criterion {name}: FAIL")
            raise
    extra = f" ({payload})" if payload else ""
    print(f"criterion {name}: PASS [{clock.elapsed:.2f} s]{extra}")
    return clock.elapsed


def test_criterion_1_formula_goldens():
    def check():
        count = 0
        for K in range(3, 9):
            for M in range(1, 13):
                for N in range(1, 41):
                    cfg = SystemConfig(K, M, N)
                    got = upper_bound(cfg)
                    assert got == scan_upper(K, M, N)
                    if K == 3:
                        assert got == k3_closed_form(M, N)
                    if K == 4:
                        assert got == k4_closed_form(M, N)
                    count += 1
        return f"{count} configs, exact"

    elapsed = _report("1 (formula goldens)", check)
    assert elapsed < 1.0


def test_criterion_2_tightness_region():
    def check():
        for K in (5, 6, 7):
            gap_lo = 2 + F(4, K * (K - 1))
            gap_hi = F(K - 2)
            strict_gap_seen = False
            cases = [
                (M, N) for M in range(1, 9) for N in range(1, 5 * M + 20)
            ]
            # exact boundary ratios and near misses
            cases += [
                (gap_lo.denominator, gap_lo.numerator),
                (gap_lo.denominator * 100, gap_lo.numerator * 100 + 1),
                (100, (K - 2) * 100),
                (100, (K - 2) * 100 - 1),
            ]
            for M, N in cases:
                cfg = SystemConfig(K, M, N)
                inside_tight = cfg.ratio <= gap_lo or cfg.ratio >= gap_hi
                assert gap_report(cfg).tight == inside_tight, (K, M, N)
                if not inside_tight:
                    strict_gap_seen = True
                    assert gap_report(cfg).achievable < gap_report(cfg).upper
            assert strict_gap_seen, f"no probe strictly inside the gap for K={K}"
        return "K in {5,6,7}, exact rational"

    elapsed = _report("2 (tightness region)", check)
    assert elapsed < 1.0


def _corner_checks(cfg, beta, seeds, build_channels):
    """Criterion-3 battery: returns (successes, worst metrics, failures).

    Domain errors are counted by exception class; any other error is a bug
    and propagates.
    """
    successes = 0
    failures = Counter()
    worst_resid = 0.0
    worst_cond = 0.0
    worst_err = 0.0
    for seed in seeds:
        try:
            ch = build_channels(seed)
            alloc = allocate_streams(ch.cfg, beta)
            scheme = assemble_scheme(ch, alloc, beta)
            frame = make_frame(scheme, seed)
            decoded = relay_decode(scheme, mac_phase(scheme, ch, frame, 0.0))
            truth = stack_network_coded(scheme, frame)
            err = float(np.abs(decoded.entries - truth.entries).max())
        except YChannelError as exc:
            failures[type(exc).__name__] += 1
            continue
        successes += 1
        worst_resid = max(worst_resid, scheme.alignment_residual)
        worst_cond = max(worst_cond, scheme.basis_condition)
        worst_err = max(worst_err, err)
    return successes, worst_resid, worst_cond, worst_err, failures


def _failure_text(failures):
    return ", ".join(f"{name} {n}" for name, n in sorted(failures.items())) or "none"


def test_criterion_3_constructive_corners():
    def check():
        summary = []
        for K, M, N, beta in CORNER_INSTANCES:
            cfg = SystemConfig(K, M, N)
            ok, resid, cond, err, failures = _corner_checks(
                cfg, beta, range(100), lambda seed: sample_channels(cfg, seed)
            )
            assert ok >= 99, f"{(K, M, N, beta)}: only {ok}/100 seeds"
            assert resid <= 1e-8, f"{(K, M, N, beta)}: residual {resid:.2e}"
            assert cond < 1e8, f"{(K, M, N, beta)}: condition {cond:.2e}"
            assert err <= 1e-6, f"{(K, M, N, beta)}: relay error {err:.2e}"
            summary.append(
                f"{K}/{M}/{N} b{beta}: {ok}/100, failures: {_failure_text(failures)}"
            )
        return "; ".join(summary)

    elapsed = _report("3 (constructive corners)", check)
    assert elapsed < 30.0


def test_criterion_4_alignment_verifier():
    def check():
        # passes on every constructed scheme
        for K, M, N, beta in CORNER_INSTANCES:
            cfg = SystemConfig(K, M, N)
            ch = sample_channels(cfg, 0)
            scheme = assemble_scheme(ch, allocate_streams(cfg, beta), beta)
            assert verify_alignment_conditions(scheme, ch).passed, (K, M, N, beta)
        # rejects both adversarial perturbations, 50 trials each
        cfg = SystemConfig(4, 3, 7)
        ch = sample_channels(cfg, 1)
        scheme = assemble_scheme(ch, allocate_streams(cfg, 2), 2)
        rng = np.random.default_rng(2024)
        caught_rows = 0
        for _ in range(50):
            bad = np.array(scheme.compression)
            row = rng.standard_normal(7) + 1j * rng.standard_normal(7)
            bad[rng.integers(0, 6)] = row / np.linalg.norm(row)
            corrupted = dataclasses.replace(scheme, compression=bad)
            if not verify_alignment_conditions(corrupted, ch).passed:
                caught_rows += 1
        caught_precoders = 0
        directions = scheme.precoders.shape[0] * scheme.precoders.shape[1]
        for _ in range(50):
            precoders = np.array(scheme.precoders)
            user, partner = np.unravel_index(rng.integers(0, directions), precoders.shape[:2])
            precoders[user, partner, rng.integers(0, precoders.shape[2]), 0] += 1e-3
            corrupted = dataclasses.replace(scheme, precoders=precoders)
            if not verify_alignment_conditions(corrupted, ch).passed:
                caught_precoders += 1
        assert caught_rows == 50, f"corrupted rows caught {caught_rows}/50"
        assert caught_precoders == 50, f"perturbed precoders caught {caught_precoders}/50"
        return "50/50 + 50/50 adversarial detections"

    elapsed = _report("4 (alignment verifier)", check)
    assert elapsed < 10.0


def test_criterion_5_counting_oracle():
    def check():
        for K, M, N, beta in CORNER_INSTANCES:
            closed = allocate_streams(SystemConfig(K, M, N), beta).per_pair
            brute = brute_force_max_x(K, M, N, beta)
            assert brute == closed, (K, M, N, beta, brute, closed)
        return f"{len(CORNER_INSTANCES)} corner instances"

    elapsed = _report("5 (counting oracle)", check)
    assert elapsed < 5.0


def test_criterion_6_extension_path():
    def check():
        cfg = SystemConfig(5, 1, 3)
        target = next(c for c in corner_points(5) if c.beta == 2)
        plan = plan_extension(cfg, target)
        assert plan.t == 5
        assert (plan.effective_M, plan.effective_N) == (5, 11)

        def build(seed):
            return apply_extension_plan(sample_channels(cfg, seed), plan)

        ok, resid, cond, err, failures = _corner_checks(cfg, 2, range(100), build)
        assert ok >= 99, f"extension path: only {ok}/100 seeds"
        assert resid <= 1e-8 and cond < 1e8 and err <= 1e-6
        return f"t=5 -> (5, 11), {ok}/100 seeds, failures: {_failure_text(failures)}"

    elapsed = _report("6 (extension path)", check)
    assert elapsed < 5.0


def test_criterion_7_monte_carlo_slope():
    def check():
        slope = estimate_dof_slope(
            SystemConfig(4, 3, 7), 2, list(range(50)), [30.0, 40.0, 50.0, 60.0]
        )
        assert 0.9 * 12 <= slope <= 1.1 * 12, f"slope {slope:.3f}"
        return f"slope {slope:.3f} vs 12"

    elapsed = _report("7 (Monte Carlo slope)", check)
    assert elapsed < 300.0


def test_criterion_8_sweep_shape():
    def check():
        proc = subprocess.run(
            [sys.executable, "-m", "ychannel", "sweep", "--k", "5", "--grid-auto", "100"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        rows = {
            F(row["ratio"]): row for row in csv.DictReader(io.StringIO(proc.stdout))
        }
        kinks = [F(20, 11), F(2), F(11, 5), F(3), F(13, 4)]
        for kink in kinks:
            assert kink in rows, f"kink {kink} missing from sweep grid"

        def upper_per_m(r):
            return upper_bound(SystemConfig(5, r.denominator, r.numerator)) / r.denominator

        def ach_per_m(r):
            return achievable_dof(SystemConfig(5, r.denominator, r.numerator)) / r.denominator

        delta = F(1, 1000)
        for kink in kinks:
            kinked = False
            for f in (upper_per_m, ach_per_m):
                left = (f(kink) - f(kink - delta)) / delta
                right = (f(kink + delta) - f(kink)) / delta
                kinked = kinked or left != right
            assert kinked, f"no curve kinks at {kink}"
        # plateau and saturation values straight from the CSV
        for ratio, row in rows.items():
            if F(20, 11) < ratio <= 2:
                assert row["achievable_per_m"] == "40/11", row
            if F(11, 5) <= ratio <= F(13, 5):
                assert row["achievable_per_m"] == "4", row
            if ratio >= F(13, 4):
                assert row["achievable_per_m"] == "5", row
                assert row["upper_per_m"] == "5", row
        return f"{len(rows)} rows, kinks at 20/11, 2, 11/5, 3, 13/4"

    elapsed = _report("8 (sweep shape)", check)
    assert elapsed < 1.0
