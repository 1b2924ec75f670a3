"""Exact-rational bound tests.

Expected values come from independent oracles implemented here: a
brute-force branch scan over all interval/formula pairs, the published
closed forms for K=3 and K=4, the corner-contribution envelope, and the
piecewise achievable listing for K>4.
"""

import itertools
import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ychannel import (
    ConfigurationError,
    InfeasibleConfigurationError,
    NeedsExtensionError,
    Regime,
    SystemConfig,
    achievable_dof,
    corner_points,
    gap_report,
    regime_of,
    upper_bound,
)
from ychannel import alignment, bounds
from ychannel.bounds import breakpoints, corner_abscissa, corner_height

F = Fraction


def scan_upper(K: int, M: int, N: int) -> Fraction:
    """Oracle: enumerate every branch interval and check exactly one hits."""
    kk = K * (K - 1)
    r = F(N, M)
    branches = [(F(0), F(2 * kk, kk + 2), F(2 * N))]
    for b in range(2, K - 1):
        den = kk + b * (b - 1)
        plat_lo = F(b * (kk + (b - 1) * (b - 2)), den)
        branches.append((plat_lo, F(b), F(2 * b * kk * M, den)))
        slope_hi = F((b + 1) * (kk + b * (b - 1)), kk + (b + 1) * b)
        branches.append((F(b), slope_hi, F(2 * kk * N, den)))
    branches.append((F(K * K - 3 * K + 3, K - 1), None, F(K * M)))
    hits = [v for lo, hi, v in branches if r > lo and (hi is None or r <= hi)]
    assert len(hits) == 1, f"branch intervals must tile (0, inf): {K} {M} {N}"
    return hits[0]


def envelope_oracle(K: int, M: int, N: int) -> Fraction:
    """Oracle: brute-force maximization over all corner contributions."""
    kk = K * (K - 1)
    corners = [(F(2 * kk, kk + 2), F(4 * kk, kk + 2))]
    for b in range(2, K - 1):
        den = 2 + kk - b * (b - 1)
        corners.append((b + F(2 * kk, den * comb(K, b)), F(4 * kk, den)))
    best = F(0)
    for alpha, height in corners:
        value = height * M if F(N, M) >= alpha else height * N / alpha
        best = max(best, value)
    return best


def k3_closed_form(M: int, N: int) -> Fraction:
    return F(min(3 * M, 2 * N))


def k4_closed_form(M: int, N: int) -> Fraction:
    first = min(F(4 * M), F(12 * N, 7))
    second = min(F(24 * M, 7), F(2 * N))
    return max(first, second)


class TestUpperBound:
    def test_three_user_square(self):
        assert upper_bound(SystemConfig(3, 2, 2)) == 4

    def test_relay_limited(self):
        assert upper_bound(SystemConfig(5, 4, 4)) == 8

    def test_slope_branch_exact_rational(self):
        assert upper_bound(SystemConfig(5, 10, 21)) == F(420, 11)

    def test_source_limited(self):
        assert upper_bound(SystemConfig(5, 4, 100)) == 20

    def test_matches_branch_scan_oracle(self):
        for K in range(3, 9):
            for M in range(1, 9):
                for N in range(1, 31):
                    assert upper_bound(SystemConfig(K, M, N)) == scan_upper(K, M, N)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(2, 1, 1)
        with pytest.raises(ConfigurationError):
            SystemConfig(4, 0, 1)
        with pytest.raises(ConfigurationError):
            SystemConfig(4, 1, 0)

    @pytest.mark.parametrize("counts", [("4", 3, 7), (4, 3.0, 7), (4, 3, True)])
    def test_non_int_counts_rejected(self, counts):
        # a string used to fail with TypeError, and True passed as 1
        with pytest.raises(ConfigurationError, match="must be an int"):
            SystemConfig(*counts)

    def test_numpy_integer_counts_are_stored_as_ints(self):
        # these raised "K must be an int"; seeds and beta already took them
        cfg = SystemConfig(*np.array([4, 3, 7]))
        assert cfg == SystemConfig(4, 3, 7)
        assert [type(v) for v in (cfg.K, cfg.M, cfg.N)] == [int, int, int]
        assert upper_bound(cfg) == upper_bound(SystemConfig(4, 3, 7))


class TestRegime:
    def test_slope_beta2(self):
        label = regime_of(SystemConfig(5, 10, 21))
        assert (label.kind, label.beta) == (Regime.SLOPE, 2)

    def test_relay_limited_below_first_breakpoint(self):
        label = regime_of(SystemConfig(5, 1, 1))
        assert (label.kind, label.beta) == (Regime.RELAY_LIMITED, None)

    def test_endpoint_belongs_to_lower_branch(self):
        # 13/4 is the right end of the beta=3 slope branch for K=5.
        label = regime_of(SystemConfig(5, 4, 13))
        assert (label.kind, label.beta) == (Regime.SLOPE, 3)

    def test_plateau_endpoints_closed(self):
        label = regime_of(SystemConfig(5, 1, 2))
        assert (label.kind, label.beta) == (Regime.PLATEAU, 2)

    def test_source_limited_above_last_breakpoint(self):
        assert regime_of(SystemConfig(5, 1, 4)).kind is Regime.SOURCE_LIMITED


class TestBreakpoints:
    @staticmethod
    def branch_chain(K):
        # the branches in order of ratio, each as regime_of labels it
        chain = [(Regime.RELAY_LIMITED, None)]
        for b in range(2, K - 1):
            chain += [(Regime.PLATEAU, b), (Regime.SLOPE, b)]
        return chain + [(Regime.SOURCE_LIMITED, None)]

    def test_matches_the_scan_oracle_interval_ends(self):
        # the finite interval ends of scan_upper's branches, in its formulas
        for K in range(3, 13):
            kk = K * (K - 1)
            ends = {F(2 * kk, kk + 2), F(K * K - 3 * K + 3, K - 1)}
            for b in range(2, K - 1):
                den = kk + b * (b - 1)
                ends |= {F(b * (kk + (b - 1) * (b - 2)), den), F(b)}
                ends.add(F((b + 1) * (kk + b * (b - 1)), kk + (b + 1) * b))
            assert breakpoints(K) == sorted(ends)
            assert len(breakpoints(K)) == len(self.branch_chain(K)) - 1

    def test_each_breakpoint_goes_to_the_lower_branch(self):
        # r ends branch i of the chain, and the ratios just above r open branch i + 1
        for K in range(3, 13):
            kinks, chain = breakpoints(K), self.branch_chain(K)
            for i, r in enumerate(kinks):
                above = F(1000 * r.numerator + 1, 1000 * r.denominator)
                assert i + 1 == len(kinks) or above < kinks[i + 1]
                for ratio, branch in [(r, chain[i]), (above, chain[i + 1])]:
                    cfg = SystemConfig(K, ratio.denominator, ratio.numerator)
                    label = regime_of(cfg)
                    assert (label.kind, label.beta) == branch, (K, ratio)
                    assert upper_bound(cfg) == scan_upper(K, cfg.M, cfg.N)


class TestCornerPoints:
    def test_k5_values(self):
        points = {c.beta: c for c in corner_points(5)}
        assert (points[1].abscissa, points[1].dof_per_M) == (F(20, 11), F(40, 11))
        assert (points[2].abscissa, points[2].dof_per_M) == (F(11, 5), F(4))
        assert (points[3].abscissa, points[3].dof_per_M) == (F(13, 4), F(5))

    def test_k4_single_indexed_corner(self):
        points = {c.beta: c for c in corner_points(4)}
        assert set(points) == {1, 2}
        assert (points[2].abscissa, points[2].dof_per_M) == (F(7, 3), F(4))

    @pytest.mark.parametrize("K", [4.5, 4.0, "4", True])
    def test_non_integer_k_is_a_configuration_error(self, K):
        # the first three raised a bare TypeError, and True was read as K = 1
        with pytest.raises(ConfigurationError, match="K must be an integer"):
            corner_points(K)

    def test_k3_has_only_leftmost(self):
        points = corner_points(3)
        assert len(points) == 1
        assert (points[0].abscissa, points[0].dof_per_M) == (F(3, 2), F(3))

    def test_second_corner_closed_form(self):
        # abscissa 2 + 4/(K(K-1)), height 4M for every K
        for K in range(4, 10):
            c = next(p for p in corner_points(K) if p.beta == 2)
            assert c.abscissa == 2 + F(4, K * (K - 1))
            assert c.dof_per_M == 4

    def test_last_corner_closed_form(self):
        # abscissa (K^2-3K+3)/(K-1), height KM for every K
        for K in range(4, 10):
            c = next(p for p in corner_points(K) if p.beta == K - 2)
            assert c.abscissa == F(K * K - 3 * K + 3, K - 1)
            assert c.dof_per_M == K

    def test_rejects_small_k(self):
        with pytest.raises(ConfigurationError):
            corner_points(2)

    @pytest.mark.parametrize("formula", [corner_abscissa, corner_height])
    def test_rejects_beta_outside_the_branches(self, formula):
        # at K = 4, beta = 5 divided by comb(4, 5) = 0, beta = -1 made comb raise
        # ValueError, and beta = 0 or 4 gave numbers for corners that do not exist
        for K, beta in [(4, -1), (4, 0), (4, 1), (4, 3), (4, 4), (4, 5), (3, 2), (6, 5)]:
            with pytest.raises(ConfigurationError, match=f"beta must be in .* got {beta}"):
                formula(K, beta)
        for K in range(4, 9):
            assert [formula(K, np.int64(beta)) for beta in range(2, K - 1)] == [
                formula(K, beta) for beta in range(2, K - 1)
            ]

    def test_callers_stay_inside_the_branches(self, monkeypatch):
        # regime_of, corner_points and allocate_streams ask only for existing corners
        asked = []
        for module in (bounds, alignment):
            for name in ("corner_abscissa", "corner_height"):
                if hasattr(module, name):
                    real = getattr(module, name)

                    def recorded(K, beta, real=real):
                        asked.append((K, beta))
                        return real(K, beta)

                    monkeypatch.setattr(module, name, recorded)
        for K in range(3, 9):
            corner_points(K)
            for M, N in itertools.product(range(1, 5), range(1, 4 * K)):
                regime_of(SystemConfig(K, M, N))
                for beta in range(-1, K + 2):
                    try:
                        alignment.allocate_streams(SystemConfig(K, M, N), beta)
                    except (ConfigurationError, InfeasibleConfigurationError, NeedsExtensionError):
                        pass
        assert asked and all(beta in range(2, K - 1) for K, beta in asked)

    @pytest.mark.parametrize(
        "helper,args",
        [("betas", (4.0,)), ("corner_abscissa", (4.0, 2)), ("corner_height", (4.0, 2)),
         ("breakpoints", ("4",)), ("breakpoints", (4.5,)),
         ("breakpoints", (True,)), ("breakpoints", (np.float64(5),))],
    )
    def test_helpers_refuse_a_non_integer_k(self, helper, args):
        # these raised a bare TypeError, or read True as K = 1 and named no corner
        with pytest.raises(ConfigurationError, match="K must be an integer"):
            getattr(bounds, helper)(*args)

    @pytest.mark.parametrize("beta", [2.0, "2", True, None])
    def test_rejects_non_integer_beta(self, beta):
        # 2.0 raised a bare TypeError from comb or Fraction, or gave a float abscissa
        for formula in (corner_abscissa, corner_height):
            with pytest.raises(ConfigurationError, match="beta must be an integer"):
                formula(5, beta)


class TestAchievable:
    def test_tight_region_value(self):
        assert achievable_dof(SystemConfig(5, 10, 21)) == F(420, 11)

    def test_gap_region_envelope(self):
        assert achievable_dof(SystemConfig(5, 4, 12)) == F(240, 13)

    def test_saturation(self):
        assert achievable_dof(SystemConfig(5, 1, 100)) == 5

    def test_matches_envelope_oracle(self):
        for K in range(3, 9):
            for M in range(1, 7):
                for N in range(1, 25):
                    cfg = SystemConfig(K, M, N)
                    assert achievable_dof(cfg) == envelope_oracle(K, M, N)

    def test_published_piecewise_listing(self):
        # The published piecewise achievable DoF for K > 4, checked in
        # every stated region.
        for K in (5, 6, 7):
            kk = K * (K - 1)
            q1 = F(2 * kk, kk + 2)
            for M, N in [(7, n) for n in range(1, 5 * 7)]:
                cfg = SystemConfig(K, M, N)
                r = cfg.ratio
                got = achievable_dof(cfg)
                if r <= q1:
                    assert got == 2 * N
                elif r <= 2:
                    assert got == F(4 * kk * M, kk + 2)
                elif r <= 2 + F(4, kk):
                    assert got == F(2 * kk * N, kk + 2)
                elif K - 2 < r <= F(K * K - 3 * K + 3, K - 1):
                    assert got == F(kk * N, K * K - 3 * K + 3)
                elif r > F(K * K - 3 * K + 3, K - 1):
                    assert got == K * M

    def test_corner_point_consistency(self):
        # Every corner is achievable, so the envelope dominates it at its
        # own abscissa.  For K <= 6 every corner sits on the frontier and
        # the envelope matches it exactly; from K = 7 on, some corners are
        # strictly dominated by the next corner's deactivation slope
        # (for K = 7 the beta=4 corner sits below the beta=5 slope).
        for K in range(3, 9):
            for c in corner_points(K):
                M = c.abscissa.denominator
                N = c.abscissa.numerator
                cfg = SystemConfig(K, M, N)
                assert achievable_dof(cfg) >= c.dof_per_M * M
                if K <= 6:
                    assert achievable_dof(cfg) == c.dof_per_M * M


class TestGapReport:
    def test_k4_always_tight(self):
        rng = random.Random(7)
        for _ in range(300):
            cfg = SystemConfig(4, rng.randint(1, 30), rng.randint(1, 80))
            assert gap_report(cfg).tight

    def test_k5_gap_point(self):
        report = gap_report(SystemConfig(5, 4, 11))
        assert not report.tight
        assert report.achievable < report.upper

    def test_k5_boundary_inclusive(self):
        assert gap_report(SystemConfig(5, 5, 11)).tight

    def test_tight_iff_outside_gap(self):
        for K in (5, 6, 7):
            gap_lo = 2 + F(4, K * (K - 1))
            for M in range(1, 7):
                for N in range(1, 7 * M):
                    cfg = SystemConfig(K, M, N)
                    expected = cfg.ratio <= gap_lo or cfg.ratio >= K - 2
                    assert gap_report(cfg).tight == expected, (K, M, N)


class TestInvariants:
    def test_breakpoint_continuity(self):
        # Adjacent branch formulas agree at every breakpoint, K in [3, 12].
        for K in range(3, 13):
            kk = K * (K - 1)
            chain = [("relay", None)]
            for b in range(2, K - 1):
                chain.append(("plateau", b))
                chain.append(("slope", b))
            chain.append(("source", None))

            def value(kind, b, r):
                # evaluate a branch formula at ratio r with M = denominator
                M, N = r.denominator, r.numerator
                if kind == "relay":
                    return F(2 * N)
                if kind == "plateau":
                    return F(2 * b * kk * M, kk + b * (b - 1))
                if kind == "slope":
                    return F(2 * kk * N, kk + b * (b - 1))
                return F(K * M)

            def right_end(kind, b):
                if kind == "relay":
                    return F(2 * kk, kk + 2)
                if kind == "plateau":
                    return F(b)
                return F((b + 1) * (kk + b * (b - 1)), kk + (b + 1) * b)

            for (kind_a, b_a), (kind_b, b_b) in zip(chain, chain[1:]):
                r = right_end(kind_a, b_a)
                assert value(kind_a, b_a, r) == value(kind_b, b_b, r), (K, kind_a, b_a)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(3, 10), st.integers(1, 20), st.integers(1, 50))
    def test_sandwich(self, K, M, N):
        cfg = SystemConfig(K, M, N)
        upper = upper_bound(cfg)
        assert achievable_dof(cfg) <= upper <= min(K * M, 2 * N)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(3, 10), st.integers(1, 15), st.integers(1, 40))
    def test_monotone_in_n(self, K, M, N):
        a, b = SystemConfig(K, M, N), SystemConfig(K, M, N + 1)
        assert upper_bound(a) <= upper_bound(b)
        assert achievable_dof(a) <= achievable_dof(b)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(3, 10), st.integers(1, 15), st.integers(1, 40))
    def test_monotone_in_m(self, K, M, N):
        a, b = SystemConfig(K, M, N), SystemConfig(K, M + 1, N)
        assert upper_bound(a) <= upper_bound(b)
        assert achievable_dof(a) <= achievable_dof(b)

    def test_results_are_reduced_nonnegative_rationals(self):
        for K in (3, 5, 8):
            for M in (1, 3, 7):
                for N in (1, 9, 33):
                    for value in (
                        upper_bound(SystemConfig(K, M, N)),
                        achievable_dof(SystemConfig(K, M, N)),
                    ):
                        assert isinstance(value, Fraction)
                        assert value >= 0
                        assert value.denominator > 0  # Fraction keeps lowest terms


class TestPublishedClosedForms:
    def test_k3_min_form(self):
        for M in range(1, 51):
            for N in range(1, 51):
                assert upper_bound(SystemConfig(3, M, N)) == k3_closed_form(M, N)
                assert achievable_dof(SystemConfig(3, M, N)) == k3_closed_form(M, N)

    def test_k4_max_min_form(self):
        rng = random.Random(123)
        for _ in range(1000):
            M, N = rng.randint(1, 60), rng.randint(1, 60)
            assert upper_bound(SystemConfig(4, M, N)) == k4_closed_form(M, N)
