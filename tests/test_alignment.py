"""Alignment synthesis tests.

Independent oracles: a sympy exact-rational mirror of the construction
(residual must be exactly zero), a brute-force search for the maximal
symmetric stream count, and a row-reduction rank routine for null-space
dimensions.
"""

import dataclasses
import io
import itertools
import json
import pathlib
from concurrent.futures import ThreadPoolExecutor
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ychannel import (
    AlignmentInfeasibleError,
    AlignmentVerificationError,
    ChannelSet,
    ConfigurationError,
    DecodabilityError,
    DegenerateChannelError,
    DegenerateSplitError,
    DimensionError,
    InfeasibleConfigurationError,
    NeedsExtensionError,
    StreamAllocation,
    SystemConfig,
    YChannelError,
    allocate_streams,
    assemble_scheme,
    corner_points,
    load_scheme,
    plan_extension,
    prepare,
    sample_channels,
    save_scheme,
    scheme_from_dict,
    scheme_to_dict,
    verify_alignment_conditions,
)
from ychannel import alignment, simulation
from ychannel.bounds import corner_abscissa

CORNERS = [(4, 3, 7, 2), (5, 5, 11, 2), (5, 4, 13, 3)]
DATA = pathlib.Path(__file__).parent / "data"


def build_all(K, M, N, beta, seed):
    cfg = SystemConfig(K, M, N)
    ch = sample_channels(cfg, seed)
    alloc = allocate_streams(cfg, beta)
    scheme = assemble_scheme(ch, alloc, beta)
    return ch, alloc, scheme


def partner_index(user, partner):
    """Where ``partner`` sits among ``user``'s partners in a user-by-partner stack."""
    return partner - (partner > user)


def pairs_of(K):
    """The unordered user pairs i < j in lexicographic order."""
    return list(itertools.combinations(range(K), 2))


def row_subsets(K, beta, q):
    """The subset each compression row annihilates: the C(K, beta) subsets in
    lexicographic order, q rows each."""
    return [subset for subset in itertools.combinations(range(K), beta) for _ in range(q)]


def assert_rows_annihilate(P, ch, subsets):
    """Each row of P annihilates the stacked uplink of its subset, and of no other."""
    K, beta = ch.cfg.K, len(subsets[0])
    for row, subset in zip(P, subsets, strict=True):
        for other in itertools.combinations(range(K), beta):
            stack = np.hstack([ch.uplink[g] for g in other])
            annihilated = np.linalg.norm(row @ stack) / np.linalg.norm(row) <= 1e-9
            assert annihilated == (other == subset), (subset, other)


def by_direction(V):
    """A (K, K-1, M, x) user-by-partner stack keyed by direction: V_ij is ``V[i, j - (j > i)]``."""
    K = len(V)
    return {(i, j): V[i, partner_index(i, j)] for i, j in itertools.permutations(range(K), 2)}


def one_member_precoders(ch, P, alloc, beta):
    """The precoder stage on a one-member stack: precoders by direction, ||V_ij||_2 per pair."""
    H = np.stack(ch.uplink)[None]
    V, norms, _ = alignment.build_precoders(H, ch.uplink_norms[None], P[None], alloc, beta)
    return by_direction(V[0]), norms[0]


def brute_force_max_x(K, M, N, beta):
    """Largest symmetric stream count passing the counting chain.

    Scans x in [0, 2M], requiring the per-subset row count to be integral
    and both feasibility inequalities to hold.
    """
    subsets = comb(K, beta)
    covers = comb(K - 2, beta - 2)
    best = 0
    for x in range(2 * M + 1):
        rows = K * (K - 1) * x // 2
        q, rem = divmod(rows, subsets)
        if rem:
            continue
        p = q * covers
        if q > N - beta * M:
            continue
        if p < rows - 2 * M + x:
            continue
        best = x
    return best


def rank_by_row_reduction(matrix, tol=1e-9):
    """Gaussian elimination rank with a pivot tolerance."""
    m = np.array(matrix, dtype=complex)
    rows, cols = m.shape
    scale = max(float(np.abs(m).max()), 1.0) if m.size else 1.0
    rank = 0
    for col in range(cols):
        if rank >= rows:
            break
        piv = rank + int(np.argmax(np.abs(m[rank:, col])))
        if abs(m[piv, col]) <= tol * scale:
            continue
        m[[rank, piv]] = m[[piv, rank]]
        m[rank] = m[rank] / m[rank, col]
        for r in range(rows):
            if r != rank:
                m[r] = m[r] - m[r, col] * m[rank]
        rank += 1
    return rank


class TestAllocate:
    @pytest.mark.parametrize(
        "K,M,N,beta,x,d_total",
        [(4, 3, 7, 2, 1, 12), (5, 4, 13, 3, 1, 20), (5, 5, 11, 2, 1, 20)],
    )
    def test_corner_allocations(self, K, M, N, beta, x, d_total):
        alloc = allocate_streams(SystemConfig(K, M, N), beta)
        assert alloc.per_pair == x
        assert alloc.d_total == d_total
        assert alloc.rows == d_total // 2

    def test_fractional_x_reports_extension(self):
        with pytest.raises(NeedsExtensionError) as err:
            allocate_streams(SystemConfig(5, 3, 7), 2)
        assert err.value.factor == 5  # x = 12/20 = 3/5

    def test_below_corner_names_required_n(self):
        with pytest.raises(InfeasibleConfigurationError) as err:
            allocate_streams(SystemConfig(5, 4, 11), 3)
        assert "needs N >= 13" in str(err.value)

    def test_beta_range(self):
        with pytest.raises(ConfigurationError):
            allocate_streams(SystemConfig(5, 4, 13), 4)
        with pytest.raises(ConfigurationError):
            allocate_streams(SystemConfig(5, 4, 13), 1)

    @pytest.mark.parametrize("beta", [2.0, "2", True, None, np.float64(2.0)])
    def test_non_integer_beta_is_refused(self, beta):
        # 2.0 raised a bare TypeError from comb, and True passed as beta 1
        cfg = SystemConfig(4, 3, 7)
        alloc, ch = allocate_streams(cfg, 2), sample_channels(cfg, 0)
        for build in (
            lambda: allocate_streams(cfg, beta),
            lambda: assemble_scheme(ch, alloc, beta),
        ):
            with pytest.raises(ConfigurationError, match="beta must be an integer"):
                build()

    def test_numpy_integer_beta_is_kept_as_an_int(self, tmp_path):
        # an np.int64 beta was stored in the scheme, and json refused to save it
        cfg = SystemConfig(4, 3, 7)
        ch = sample_channels(cfg, 0)
        scheme = assemble_scheme(ch, allocate_streams(cfg, np.int64(2)), np.int64(2))
        assert type(scheme.beta) is int
        assert scheme.alloc == allocate_streams(cfg, 2)
        save_scheme(scheme, str(tmp_path / "scheme.json"))
        assert load_scheme(str(tmp_path / "scheme.json")).beta == 2

    @pytest.mark.parametrize("beta", [1, 2])
    def test_three_users_message_names_missing_corner(self, beta):
        with pytest.raises(ConfigurationError) as err:
            allocate_streams(SystemConfig(3, 2, 3), beta)
        assert str(err.value) == f"K=3 has no constructible corner with beta >= 2, got {beta}"


class TestRowBudget:
    """``allocate_streams`` owns the whole row budget, and both feasibility
    conditions of the construction hold identically once it allocates."""

    @staticmethod
    def check_identities(alloc, beta):
        K, M, N = alloc.cfg.K, alloc.cfg.M, alloc.cfg.N
        q, x, rows = alloc.per_subset, alloc.per_pair, alloc.rows
        alpha = corner_abscissa(K, beta)
        assert q * comb(K, beta) == rows
        assert q == (alpha - beta) * M <= N - beta * M  # fits each subset's null space
        assert q * comb(K - 2, beta - 2) == rows - 2 * M + x  # leaves x precoder dimensions

    @pytest.mark.parametrize("K", [4, 5, 6, 7])
    def test_identities_hold_and_every_plan_target_allocates(self, K):
        allocated = planned = 0
        for corner, M in itertools.product(corner_points(K)[1:], range(1, 7)):
            beta = corner.beta
            n_min = -(-corner.abscissa.numerator * M // corner.abscissa.denominator)
            for N in range(n_min, n_min + 3):
                try:
                    alloc = allocate_streams(SystemConfig(K, M, N), beta)
                except NeedsExtensionError:
                    continue
                self.check_identities(alloc, beta)
                allocated += 1
            for N in range(1, K * M + 3):
                try:
                    plan = plan_extension(SystemConfig(K, M, N), corner)
                except InfeasibleConfigurationError:  # t above MAX_EXTENSION: no target
                    continue
                planned += 1
                target = SystemConfig(K, plan.effective_M, plan.effective_N)
                assert target.ratio == corner.abscissa
                self.check_identities(allocate_streams(target, beta), beta)
        assert allocated > 0 and planned > 0

    @pytest.mark.parametrize(
        "K,M,N,beta,q",
        [(4, 3, 7, 2, 1), (5, 4, 13, 3, 1), (5, 5, 11, 2, 1), (6, 26, 81, 3, 3)],
    )
    def test_corner_rows_per_subset(self, K, M, N, beta, q):
        alloc = allocate_streams(SystemConfig(K, M, N), beta)
        assert alloc.per_subset == q
        ch = sample_channels(alloc.cfg, 0)
        scheme = assemble_scheme(ch, alloc, beta)
        assert len(scheme.compression) == len(scheme.row_residuals) == q * comb(K, beta)
        assert_rows_annihilate(scheme.compression, ch, row_subsets(K, beta, q))

    def test_non_integral_q_reports_extension(self):
        # x = 2 is integral but 30 rows do not divide over C(6,3) = 20 subsets
        with pytest.raises(NeedsExtensionError, match="30 compression rows") as err:
            allocate_streams(SystemConfig(6, 13, 41), 3)
        assert err.value.factor == 2

    @pytest.mark.parametrize("beta", [0, 1, 3, 9])
    def test_beta_without_a_corner_is_a_configuration_error(self, beta):
        # 0 and 9 raised math.comb's ValueError and a ZeroDivisionError, and
        # 1 and 3 asked for a 2-symbol extension
        cfg = SystemConfig(4, 3, 7)
        ch, alloc = sample_channels(cfg, 0), allocate_streams(cfg, 2)
        with pytest.raises(ConfigurationError, match="beta must be in \\[2, 2\\] for K=4"):
            assemble_scheme(ch, alloc, beta)

    def test_allocation_of_another_cfg_is_refused(self):
        alloc = allocate_streams(SystemConfig(4, 3, 7), 2)
        want = "is not the beta=2 allocation of SystemConfig\\(K=4, M=3, N=9\\)"
        with pytest.raises(DimensionError, match=want):
            assemble_scheme(sample_channels(SystemConfig(4, 3, 9), 0), alloc, 2)

    def test_one_allocation_per_assemble_scheme(self, monkeypatch):
        # the check against a foreign allocation reads the built scheme's; it derived its own
        calls, real = [], alignment.allocate_streams

        def counted(cfg, beta):
            calls.append((cfg, beta))
            return real(cfg, beta)

        cfg = SystemConfig(4, 3, 7)
        alloc = allocate_streams(cfg, 2)
        monkeypatch.setattr(alignment, "allocate_streams", counted)
        assert assemble_scheme(sample_channels(cfg, 0), alloc, 2).alloc == alloc
        assert calls == [(cfg, 2)]

    @pytest.mark.parametrize("per_pair,per_subset", [(2, 1), (1, 2), (2, 2)])
    def test_handmade_allocation_off_the_budget_is_refused(self, per_pair, per_subset):
        cfg = SystemConfig(4, 3, 7)
        alloc = StreamAllocation(cfg, per_pair, per_subset)
        with pytest.raises(DimensionError, match="is not the beta=2 allocation of SystemConfig"):
            assemble_scheme(sample_channels(cfg, 0), alloc, 2)

    def test_handmade_allocation_below_the_corner_is_refused(self):
        # q = 1 rows per subset but the null space of each 10 x 10 H_S is empty
        tight = SystemConfig(5, 5, 10)
        with pytest.raises(InfeasibleConfigurationError) as err:
            assemble_scheme(sample_channels(tight, 0), StreamAllocation(tight, 1, 1), 2)
        assert err.value.inequality == "N/M >= corner abscissa"


class TestCompressionMatrix:
    def test_shape_and_residuals(self):
        ch, alloc, scheme = build_all(4, 3, 7, 2, 1)
        P = scheme.compression
        assert P.shape == (6, 7)
        for row, subset in zip(P, row_subsets(4, 2, 1), strict=True):
            stack = np.hstack([ch.uplink[g] for g in subset])
            assert np.linalg.norm(row @ stack) / np.linalg.norm(row) <= 1e-9

    def test_full_row_rank(self):
        ch, alloc, scheme = build_all(5, 4, 13, 3, 2)
        P = scheme.compression
        assert P.shape == (10, 13)
        sv = np.linalg.svd(P, compute_uv=False)
        assert sv[-1] > 1e-10 * sv[0]

    def test_provenance_order_lexicographic(self):
        # row k annihilates the k-th subset in lexicographic order, and no other subset
        ch, alloc, scheme = build_all(4, 3, 7, 2, 1)
        expected = list(itertools.combinations(range(4), 2))
        assert_rows_annihilate(scheme.compression, ch, expected)


class TestPrecoders:
    def test_twelve_nonzero_columns(self):
        ch, alloc, scheme = build_all(4, 3, 7, 2, 1)
        assert scheme.precoders.shape[:2] == (4, 3)
        for v in scheme.precoders.reshape(12, *scheme.precoders.shape[2:]):
            assert v.shape == (3, 1)
            assert np.linalg.norm(v) > 0.0
            assert np.linalg.norm(v[:, 0]) <= 1.0 + 1e-12

    def test_null_dimension_matches_rank_bound(self):
        ch, alloc, scheme = build_all(5, 5, 11, 2, 3)
        P = scheme.compression
        for i, j in pairs_of(5):
            a = np.hstack([P @ ch.uplink[i], -(P @ ch.uplink[j])])
            assert a.shape == (10, 10)
            sv = np.linalg.svd(a, compute_uv=False)
            rank = int(np.sum(sv > 1e-10 * sv[0]))
            assert rank == 9
            assert 2 * 5 - rank >= alloc.per_pair

    def test_dimension_oracle_row_reduction(self):
        # SVD null dimension equals 2M - rank from an independent
        # elimination routine, instances with M <= 4.
        for K, M, N, beta, seed in [(4, 3, 7, 2, 5), (5, 4, 13, 3, 6)]:
            ch, alloc, scheme = build_all(K, M, N, beta, seed)
            P = scheme.compression
            for i, j in pairs_of(K):
                a = np.hstack([P @ ch.uplink[i], -(P @ ch.uplink[j])])
                sv = np.linalg.svd(a, compute_uv=False)
                svd_null = a.shape[1] - int(np.sum(sv > 1e-10 * sv[0]))
                assert svd_null == 2 * M - rank_by_row_reduction(a)

    def test_infeasible_when_rows_removed(self):
        # Halving the compression matrix rows makes the pair channels full
        # rank again, so there is no null space left for the precoders.
        ch, alloc, scheme = build_all(4, 3, 7, 2, 1)
        rng = np.random.default_rng(0)
        fake = rng.standard_normal((6, 7)) + 1j * rng.standard_normal((6, 7))
        fake /= np.linalg.norm(fake, axis=1, keepdims=True)
        with pytest.raises(AlignmentInfeasibleError):
            one_member_precoders(ch, fake, alloc, 2)


class TestAssembledScheme:
    @pytest.mark.parametrize("K,M,N,beta", CORNERS)
    def test_basis_square_invertible(self, K, M, N, beta):
        ch, alloc, scheme = build_all(K, M, N, beta, 1)
        rows = alloc.rows
        assert scheme.aligned_basis.shape == (rows, rows)
        assert scheme.basis_condition < 1e8
        assert scheme.alignment_residual <= 1e-8

    def test_alignment_identity_across_seeds(self):
        for K, M, N, beta in CORNERS:
            for seed in range(10):
                ch, alloc, scheme = build_all(K, M, N, beta, seed)
                # decodability: smallest basis singular value stays clear of 0
                sv = np.linalg.svd(scheme.aligned_basis, compute_uv=False)
                assert sv[-1] > 1e-6 * sv[0]
                P = scheme.compression
                for i, j in pairs_of(K):
                    v_ij = scheme.precoders[i, partner_index(i, j)]
                    left = P @ ch.uplink[i] @ v_ij
                    right = P @ ch.uplink[j] @ scheme.precoders[j, partner_index(j, i)]
                    scale = (
                        np.linalg.norm(P, 2)
                        * np.linalg.norm(ch.uplink[i], 2)
                        * np.linalg.norm(v_ij, 2)
                    )
                    assert np.abs(left - right).max() / scale <= 1e-8

    @pytest.mark.parametrize("direction", [(0, 1), (1, 0)])
    def test_nan_precoder_fails_certification(self, monkeypatch, direction):
        # either side of the alignment identity may carry the NaN
        ch, alloc, _ = build_all(4, 3, 7, 2, 1)
        real = alignment.build_precoders
        # the precoder stage's stack holds V_ij at user i's partner slot of j
        i, j = direction

        def poisoned(*args):
            V, norms, compressed = real(*args)
            V = V.copy()
            V[0, i, partner_index(i, j), 0, 0] = np.nan
            return V, norms, compressed

        monkeypatch.setattr(alignment, "build_precoders", poisoned)
        with pytest.raises(AlignmentVerificationError):
            assemble_scheme(ch, alloc, 2)

    def test_channel_config_mismatch_raises(self):
        # a batch takes its allocation from the first member's cfg; a (4,3,8) member
        # would get the (4,3,7) allocation
        members = tuple(sample_channels(SystemConfig(4, 3, N), 0) for N in (7, 8))
        with pytest.raises(DimensionError, match="channel cfg .*N=8.* does not match .*N=7"):
            alignment.assemble_schemes(members, 2)

    @pytest.mark.parametrize("K,M,N,beta", [(4, 3, 7, 2), (6, 5, 21, 4)])
    def test_rank_deficient_fixture_raises_domain_error(self, K, M, N, beta):
        # two users share one uplink; at (6,5,21,4) the null-space solve
        # itself is singular, which must not surface as numpy's LinAlgError
        cfg = SystemConfig(K, M, N)
        sampled = sample_channels(cfg, 1)
        uplink = sampled.uplink.copy()
        uplink[1] = uplink[0]
        ch = ChannelSet(cfg, sampled.seed, uplink, sampled.downlink)
        with pytest.raises(YChannelError):
            assemble_scheme(ch, allocate_streams(cfg, beta), beta)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("K,M,N,beta", [(4, 3, 7, 2), (6, 5, 21, 4)])
    def test_non_finite_channel_raises_domain_error(self, K, M, N, beta, bad):
        # the channel norms come first; numpy's LinAlgError must not surface from them
        cfg = SystemConfig(K, M, N)
        sampled = sample_channels(cfg, 1)
        uplink = sampled.uplink.copy()
        uplink[2, 0, 1] = bad
        ch = ChannelSet(cfg, sampled.seed, uplink, sampled.downlink)
        with np.errstate(invalid="ignore"):
            with pytest.raises(DegenerateChannelError, match="uplink 2 of member 0 has a NaN"):
                assemble_scheme(ch, allocate_streams(cfg, beta), beta)
            with pytest.raises(DegenerateChannelError, match="uplink 2 of member 1 has a NaN"):
                alignment.assemble_schemes((sampled, ch), beta)

    def test_exact_arithmetic_residual_is_zero(self):
        # Rational-channel mirror of the whole construction in sympy: the
        # alignment residual is exactly zero, so floating error is the
        # only residual source in the numeric path.
        sympy = pytest.importorskip("sympy")
        rng = np.random.default_rng(12)
        K, M, N = 4, 3, 7
        channels = [
            sympy.Matrix(rng.integers(-9, 10, size=(N, M)).tolist()) / 7
            for _ in range(K)
        ]
        pairs = list(itertools.combinations(range(K), 2))
        rows = []
        for i, j in pairs:
            stack = channels[i].row_join(channels[j])  # N x 2M
            null = stack.T.nullspace()
            assert null, "left null space must be nonempty"
            rows.append(null[0].T)
        P = sympy.Matrix.vstack(*rows)  # 6 x 7
        assert P.rank() == 6
        basis_blocks = []
        residual_zero = True
        for i, j in pairs:
            a = (P * channels[i]).row_join(-(P * channels[j]))  # 6 x 6
            null = a.nullspace()
            assert null, "pair null space must be nonempty"
            w = null[0]
            v_ij, v_ji = w[:M, :], w[M:, :]
            diff = P * channels[i] * v_ij - P * channels[j] * v_ji
            residual_zero = residual_zero and diff == sympy.zeros(6, 1)
            basis_blocks.append(P * channels[i] * v_ij)
        assert residual_zero
        basis = sympy.Matrix.hstack(*basis_blocks)
        assert basis.det() != 0  # exact decodability


def exact_corners(n_max=60):
    """Every (K, M, N, beta), K <= 7, at a corner ratio with N <= n_max and
    an integral per-pair count 4M / (2 + K(K-1) - beta(beta-1))."""
    out = []
    for K in range(4, 8):
        for corner in corner_points(K):
            beta = corner.beta
            for M in range(1, n_max + 1):
                N = corner.abscissa * M
                if beta >= 2 and N <= n_max and N.denominator == 1 and not 4 * M % (
                    2 + K * (K - 1) - beta * (beta - 1)
                ):
                    out.append((K, M, int(N), beta))
    return out


class TestRandomCorners:
    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(exact_corners()), st.integers(0, 2**64 - 1))
    def test_verified_or_domain_error(self, instance, seed):
        # any exception other than a YChannelError fails the draw
        K, M, N, beta = instance
        cfg = SystemConfig(K, M, N)
        ch = sample_channels(cfg, seed)
        try:
            scheme = assemble_scheme(ch, allocate_streams(cfg, beta), beta)
        except YChannelError:
            return
        assert verify_alignment_conditions(scheme, ch).passed


class TestVerifier:
    def test_passes_on_constructed_schemes(self):
        for K, M, N, beta in CORNERS:
            ch, alloc, scheme = build_all(K, M, N, beta, 2)
            report = verify_alignment_conditions(scheme, ch)
            assert report.passed
            for check in report.per_pair.values():
                assert check.null_rows_found >= check.null_rows_required

    def test_corner_pair_coverage_counts(self):
        ch, alloc, scheme = build_all(4, 3, 7, 2, 1)
        report = verify_alignment_conditions(scheme, ch)
        assert all(c.null_rows_found == 1 for c in report.per_pair.values())

    def test_detects_corrupted_compression_row(self):
        ch, alloc, scheme = build_all(4, 3, 7, 2, 1)
        rng = np.random.default_rng(5)
        bad = np.array(scheme.compression)
        row = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        bad[0] = row / np.linalg.norm(row)
        corrupted = dataclasses.replace(scheme, compression=bad)
        report = verify_alignment_conditions(corrupted, ch)
        assert not report.passed
        broken = [p for p, c in report.per_pair.items() if not c.condition1]
        assert row_subsets(4, 2, 1)[0] in [tuple(p) for p in broken]

    def test_detects_perturbed_precoder(self):
        ch, alloc, scheme = build_all(4, 3, 7, 2, 1)
        precoders = np.array(scheme.precoders)
        precoders[0, partner_index(0, 1), 0, 0] += 1e-3
        corrupted = dataclasses.replace(scheme, precoders=precoders)
        report = verify_alignment_conditions(corrupted, ch)
        assert not report.passed
        assert not report.per_pair[(0, 1)].condition2

    def test_nan_compression_row_fails_without_raising(self):
        ch, alloc, scheme = build_all(4, 3, 7, 2, 1)
        bad = np.array(scheme.compression)
        bad[0, 2] = np.nan
        corrupted = dataclasses.replace(scheme, compression=bad)
        report = verify_alignment_conditions(corrupted, ch)
        assert not report.passed
        # the NaN row no longer counts for the pair it annihilated
        assert not report.per_pair[row_subsets(4, 2, 1)[0]].condition1
        assert not any(check.condition2 for check in report.per_pair.values())

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_channel_fails_its_pairs_without_raising(self, bad):
        ch, alloc, scheme = build_all(5, 4, 13, 3, 1)
        uplink = ch.uplink.copy()
        uplink[3, 5, 2] = bad
        other = ChannelSet(ch.cfg, ch.seed, uplink, ch.downlink)
        with np.errstate(invalid="ignore"):
            report = verify_alignment_conditions(scheme, other)
        failed = [pair for pair, check in report.per_pair.items() if not check.passed]
        assert failed == [pair for pair in pairs_of(5) if 3 in pair]
        assert not any(report.per_pair[pair].condition2 for pair in failed)

    @pytest.mark.parametrize("K,M,N", [(5, 3, 7), (4, 3, 8)])
    def test_channel_config_mismatch_raises(self, K, M, N):
        # at (5,3,7) users 0-3 would share substreams and pass; at N=8 numpy raised
        ch, alloc, scheme = build_all(4, 3, 7, 2, 1)
        other = sample_channels(SystemConfig(K, M, N), 1)
        with pytest.raises(DimensionError, match="does not match scheme cfg"):
            verify_alignment_conditions(scheme, other)

    def test_nan_precoder_fails(self):
        ch, alloc, scheme = build_all(4, 3, 7, 2, 1)
        precoders = np.array(scheme.precoders)
        precoders[2, partner_index(2, 1), 0, 0] = np.nan
        report = verify_alignment_conditions(dataclasses.replace(scheme, precoders=precoders), ch)
        assert not report.per_pair[(1, 2)].condition2
        assert all(report.per_pair[p].passed for p in report.per_pair if p != (1, 2))


def reference_verifier(scheme, ch):
    """Per-pair (null rows found, precoder residual, tolerance), scaled by the pair norms."""
    P = scheme.compression
    row_norms = np.linalg.norm(P, axis=1)
    out = {}
    for i, j in pairs_of(scheme.cfg.K):
        target = np.hstack([ch.uplink[i], -ch.uplink[j]])
        scale = np.linalg.norm(target, 2)
        found = np.count_nonzero(
            np.linalg.norm(P @ target, axis=1) <= alignment.VERIFY_TOL * scale * row_norms
        )
        a = np.hstack([P @ ch.uplink[i], -(P @ ch.uplink[j])])
        V = scheme.precoders
        stacked = np.vstack([V[i, partner_index(i, j)], V[j, partner_index(j, i)]])
        residual = float(np.abs(a @ stacked).max())
        out[(i, j)] = (found, residual, alignment.VERIFY_TOL * max(1.0, np.linalg.norm(a, 2)))
    return out


class TestBatchedVerifier:
    INSTANCES = [
        (4, 3, 7, 2),
        (5, 5, 11, 2),
        (5, 4, 13, 3),
        (6, 15, 32, 2),
        (6, 26, 81, 3),
        (6, 5, 21, 4),
    ]

    @pytest.mark.parametrize("K,M,N,beta", INSTANCES)
    def test_matches_pair_norm_oracle(self, K, M, N, beta):
        # same counts and residuals; tolerances within [1/sqrt(2), 1] of the pair norm's
        for seed in range(5):
            ch, alloc, scheme = build_all(K, M, N, beta, seed)
            reference = reference_verifier(scheme, ch)
            report = verify_alignment_conditions(scheme, ch)
            assert list(report.per_pair) == pairs_of(K)
            for pair, check in report.per_pair.items():
                found, residual, tolerance = reference[pair]
                assert check.null_rows_found == found
                assert check.precoder_residual == residual
                assert tolerance / np.sqrt(2) <= check.residual_tolerance <= tolerance
                assert check.passed

    def test_one_svd_call_given_user_norms(self, monkeypatch):
        ch, alloc, scheme = build_all(6, 26, 81, 3, 0)
        ch.uplink_norms  # cached by the channel set, shared with the construction
        calls = []
        svd = np.linalg._linalg.svd

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg._linalg, "svd", counted)
        monkeypatch.setattr(np.linalg, "svd", counted)
        assert verify_alignment_conditions(scheme, ch).passed
        assert calls == []  # the compressed-channel norms come from Gram eigenvalues


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def reference_null_space(mats):
    """The null-space kernel one matrix at a time: [a; E] stacked and solved per matrix."""
    rows, n = mats[0].shape
    complement = alignment._complement(rows, n)
    rhs = np.eye(n, n - rows, -rows)  # [0; I]
    z = np.stack([np.linalg.solve(np.vstack([a, complement]), rhs) for a in mats])
    return np.linalg.qr(z)[0]


def per_pair_construction(ch, alloc, beta):
    """The construction one subset and one pair at a time.

    Each subset's channels are side by side in their own array, each null
    space comes from its own solve, each pair's compressed channel and
    aligned blocks come from 2-D products, and ||P||_2 and every ||V_ij||_2
    from their own SVDs.  Returns the compression matrix, its row residuals,
    the precoders, the aligned basis and the normalized alignment residual.
    """
    K, M, x = ch.cfg.K, ch.cfg.M, alloc.per_pair
    subsets = list(itertools.combinations(range(K), beta))
    stacks = [np.hstack([ch.uplink[g] for g in subset]) for subset in subsets]
    null = reference_null_space([stack.T for stack in stacks])
    q = alloc.rows // len(subsets)
    picked = [np.ascontiguousarray(basis[:, :q].T) for basis in null]
    P = np.vstack(picked)
    row_residuals = np.concatenate(
        [np.linalg.norm(rows @ stack, axis=1) for rows, stack in zip(picked, stacks)]
    )
    provenance = [subset for subset in subsets for _ in range(q)]
    reduced, pairs = [], pairs_of(K)
    for i, j in pairs:
        a = np.hstack([P @ ch.uplink[i], -(P @ ch.uplink[j])])
        shared = np.array([i in s and j in s for s in provenance])
        reduced.append(a[~shared])
    null = reference_null_space(reduced)
    top, bottom = null[:, :M], null[:, M:]
    scales = np.maximum(np.linalg.norm(top, axis=1), np.linalg.norm(bottom, axis=1))
    precoders = {}
    for (i, j), v_ij, v_ji, larger in zip(pairs, top, bottom, scales):
        precoders[(i, j)], precoders[(j, i)] = v_ij / larger, v_ji / larger
    blocks, residuals = [], []
    for i, j in pairs:
        left = P @ ch.uplink[i] @ precoders[(i, j)]
        right = P @ ch.uplink[j] @ precoders[(j, i)]
        scale = np.linalg.norm(P, 2) * ch.uplink_norms[i] * np.linalg.norm(precoders[(i, j)], 2)
        blocks.append(left)
        residuals.append(np.abs(left - right).max() / scale)
    return P, row_residuals, precoders, np.hstack(blocks), float(np.max(residuals))


class TestBatchedConstruction:
    INSTANCES = [(4, 3, 7, 2), (6, 15, 32, 2), (5, 4, 13, 3), (6, 5, 21, 4)]

    @pytest.mark.parametrize("K,M,N,beta", INSTANCES)
    def test_bit_identical_to_per_pair_oracle(self, K, M, N, beta):
        for seed in (0, 1):
            ch, alloc, scheme = build_all(K, M, N, beta, seed)
            P, row_residuals, precoders, basis, residual = per_pair_construction(ch, alloc, beta)
            assert_same_bits(scheme.compression, P)
            assert_same_bits(scheme.row_residuals, row_residuals)
            assert scheme.precoders.shape == (K, K - 1, ch.cfg.M, alloc.per_pair)
            for (i, j), v in precoders.items():
                assert_same_bits(scheme.precoders[i, partner_index(i, j)], v)
            assert_same_bits(scheme.aligned_basis, basis)
            assert scheme.alignment_residual == residual

    @pytest.mark.parametrize("corruption", ["row_not_annihilating", "provenance_relabelled"])
    def test_precoders_name_the_first_failing_pair(self, corruption, monkeypatch):
        # pair (0,1) passes; the error names the first pair in order that fails
        ch, alloc, scheme = build_all(4, 3, 7, 2, 1)
        P = scheme.compression.copy()
        subsets, pairs = row_subsets(4, 2, 1), pairs_of(4)
        if corruption == "row_not_annihilating":
            k = subsets.index((1, 2))
            P[k] = np.random.default_rng(0).standard_normal(7) / np.sqrt(7)
            named = "(1,2)"
        else:
            # the (2,3) row relabelled (1,3): (1,3) now counts one row too many
            k, shared = subsets.index((2, 3)), alignment._shared_rows(4, 2, 1).copy()
            shared[pairs.index((2, 3)), k], shared[pairs.index((1, 3)), k] = False, True
            monkeypatch.setattr(alignment, "_shared_rows", lambda *key: shared)
            named = "(1,3)"
        with pytest.raises(AlignmentInfeasibleError) as err:
            one_member_precoders(ch, P, alloc, 2)
        assert str(err.value).startswith(f"pair {named}:")

    @pytest.mark.parametrize("half,named", [(slice(0, 15), "(1, 3)"), (slice(15, 30), "(3, 1)")])
    def test_rank_loss_names_the_direction(self, monkeypatch, half, named):
        # zero the V_13 rows (top M) or the V_31 rows (bottom M) of one of pair (1,3)'s two
        # null-space columns at (6,15,32); the other half keeps the column's scale, so only
        # the rank check fails
        ch, alloc, scheme = build_all(6, 15, 32, 2, 0)
        real, row = alignment._null_space, pairs_of(6).index((1, 3))

        def zeroed(square, rows):
            null = real(square, rows)
            null[row, half, 0] = 0.0
            return null

        monkeypatch.setattr(alignment, "_null_space", zeroed)
        with pytest.raises(DegenerateSplitError) as err:
            one_member_precoders(ch, scheme.compression, alloc, 2)
        assert str(err.value).startswith(f"precoder {named} lost column rank")

    def test_empty_batch_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="at least one channel set"):
            alignment.assemble_schemes((), 2)

    def test_only_batches_hold_work_buffers(self):
        # the buffers are per thread, so a new thread starts without any
        def buffers():
            return {name: getattr(alignment._scratch, name, None) for name in ("blocks", "gather")}

        def run():
            build_all(4, 3, 7, 2, 0)
            single = buffers()
            prepare(SystemConfig(6, 15, 32), 2, 0)
            held = buffers()
            prepare(SystemConfig(4, 3, 7), 2, 0)  # a smaller batch
            return single, held, buffers()

        with ThreadPoolExecutor(max_workers=1) as pool:
            single, held, after = pool.submit(run).result(timeout=120)
        assert single == {"blocks": None, "gather": None}
        assert all(buffer is not None for buffer in held.values())
        assert all(after[name] is buffer for name, buffer in held.items())


class TestCertificationGates:
    """Each construction gate fires on a stage whose output breaks its condition."""

    @staticmethod
    def corrupt_null_space(monkeypatch, stage, corrupt):
        """Apply ``corrupt`` to the null spaces of one stage: 0 compression, 1 precoders."""
        calls, real = [], alignment._null_space

        def corrupted(square, rows):
            null = real(square, rows)
            calls.append(rows)
            return corrupt(null) if len(calls) == stage + 1 else null

        monkeypatch.setattr(alignment, "_null_space", corrupted)

    def test_compression_rows_off_the_null_space_are_refused(self, monkeypatch):
        self.corrupt_null_space(monkeypatch, 0, lambda null: null + 1e-3)
        with pytest.raises(DegenerateChannelError, match="subset \\(0, 1\\): null row residual"):
            build_all(4, 3, 7, 2, 1)

    def test_null_vector_vanishing_on_both_halves_is_refused(self, monkeypatch):
        def vanish(null):
            null = null.copy()
            null[1, :, 0] = 0.0  # pair (0, 2)
            return null

        self.corrupt_null_space(monkeypatch, 1, vanish)
        with pytest.raises(DegenerateSplitError, match="pair \\(0,2\\): null vector vanished"):
            build_all(4, 3, 7, 2, 1)

    def test_ill_conditioned_basis_is_refused(self, monkeypatch):
        _, _, scheme = build_all(4, 3, 7, 2, 1)
        monkeypatch.setattr(alignment, "BASIS_COND_MAX", scheme.basis_condition / 2)
        with pytest.raises(DecodabilityError, match="aligned basis condition number"):
            build_all(4, 3, 7, 2, 1)


class TestNullSpaceKernel:
    INSTANCES = [*TestBatchedVerifier.INSTANCES, (5, 1, 3, 2)]  # the last runs at t = 5

    @pytest.mark.parametrize("K,M,N,beta", INSTANCES)
    def test_batched_solve_matches_per_matrix_solves(self, K, M, N, beta, monkeypatch):
        # every block of both stages; prepare hands the kernel the uplink's
        # blocks and then the dual's in one call per stage
        calls = []
        real = alignment._null_space

        def recorded(square, rows):
            null = real(square, rows)
            calls.append((np.array(square[:, :rows]), null))
            return null

        monkeypatch.setattr(alignment, "_null_space", recorded)
        prep = prepare(SystemConfig(K, M, N), beta, 0)
        cfg, x = prep.ch.cfg, prep.scheme.alloc.per_pair  # the effective (M, N) at t > 1
        stages = [
            (2 * comb(K, beta), beta * cfg.M, cfg.N),
            (2 * comb(K, 2), 2 * cfg.M - x, 2 * cfg.M),
        ]
        assert prep.bc is not None
        assert [wide.shape for wide, _ in calls] == stages
        for wide, null in calls:
            assert_same_bits(null, reference_null_space(wide))


class TestPairOrder:
    INSTANCES = [(4, 3, 7, 2), (5, 5, 11, 2), (6, 5, 21, 4), (7, 6, 31, 5)]  # K = 4..7

    @pytest.mark.parametrize("K,M,N,beta", INSTANCES)
    def test_blocks_verifier_and_messages_share_one_order(self, K, M, N, beta):
        ch, alloc, scheme = build_all(K, M, N, beta, 0)
        x = alloc.per_pair
        assert scheme.pair_blocks == [(p, k * x, (k + 1) * x) for k, p in enumerate(pairs_of(K))]
        blocks = [pair for pair, _, _ in scheme.pair_blocks]
        report = verify_alignment_conditions(scheme, ch)
        assert blocks == list(report.per_pair) == list(alignment.message_order(K)[0][0::2])


class TestPrecoderSpectrum:
    @pytest.mark.parametrize("K,M,N,beta", [(4, 3, 7, 2), (6, 15, 32, 2), (5, 4, 13, 3)])
    def test_returned_norms_are_the_spectral_norms(self, K, M, N, beta):
        for seed in (0, 1):
            ch, alloc, scheme = build_all(K, M, N, beta, seed)
            precoders, norms = one_member_precoders(ch, scheme.compression, alloc, beta)
            assert norms.shape == (comb(K, 2),)
            for k, (i, j) in enumerate(pairs_of(K)):
                assert_same_bits(precoders[i, j], scheme.precoders[i, partner_index(i, j)])
                assert norms[k] == np.linalg.norm(precoders[i, j], 2)

    def test_assemble_takes_no_svd_of_the_precoder_stack(self, monkeypatch):
        cfg = SystemConfig(6, 15, 32)
        ch, alloc = sample_channels(cfg, 0), allocate_streams(cfg, 2)
        calls = []
        svd = np.linalg._linalg.svd

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg._linalg, "svd", counted)
        monkeypatch.setattr(np.linalg, "svd", counted)
        assemble_scheme(ch, alloc, 2)
        K, pairs, x = cfg.K, comb(cfg.K, 2), alloc.per_pair
        # one scheme is a batch of one: every stack has a leading member axis of 1
        assert not any(shape[-3:] == (pairs, cfg.M, x) for shape in calls), calls
        assert calls.count((1, K, K - 1, cfg.M, x)) == 1, calls

    def test_prepare_takes_three_svds(self, monkeypatch):
        # the compression spectra, the precoder stack and the basis condition, each
        # batched over the uplink and its dual; the channel norms take none
        cfg = SystemConfig(6, 15, 32)
        alloc = allocate_streams(cfg, 2)
        calls = []
        svd = np.linalg._linalg.svd

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg._linalg, "svd", counted)
        monkeypatch.setattr(np.linalg, "svd", counted)
        prepare(cfg, 2, 0)
        K, rows, x = cfg.K, alloc.rows, alloc.per_pair
        assert calls == [(2, rows, cfg.N), (2, K, K - 1, cfg.M, x), (2, rows, rows)], calls


class TestPrecoderStack:
    """``AlignmentScheme.precoders`` is one read-only (K, K-1, M, x) stack, user by partner."""

    @staticmethod
    def built(K, M, N, beta, seed):
        """The channel sets, then the uplink and dual schemes built in one batch, and the
        uplink after a JSON round trip."""
        ch, alloc, _ = build_all(K, M, N, beta, seed)
        members = (ch, simulation._dual_channels(ch))
        uplink, dual = alignment.assemble_schemes(members, beta)
        loaded = scheme_from_dict(json.loads(json.dumps(scheme_to_dict(uplink))))
        return members, (uplink, dual, loaded)

    @pytest.mark.parametrize("K,M,N,beta", [(4, 3, 7, 2), (6, 15, 32, 2), (6, 5, 21, 4)])
    def test_read_only_c_ordered_user_by_partner(self, K, M, N, beta):
        _, schemes = self.built(K, M, N, beta, 0)
        for scheme in schemes:
            V = scheme.precoders
            assert V.shape == (K, K - 1, M, scheme.alloc.per_pair)
            assert V.flags.c_contiguous and not V.flags.writeable
            with pytest.raises(ValueError):
                V[0, 0] = 0.0
            with pytest.raises(ValueError):
                V[0, 0][0, 0] += 1e-3

    @pytest.mark.parametrize("K,M,N,beta", [(4, 3, 7, 2), (6, 15, 32, 2), (5, 4, 13, 3)])
    def test_entries_match_the_per_pair_oracle(self, K, M, N, beta):
        for seed in (0, 1):
            members, (uplink, dual, _) = self.built(K, M, N, beta, seed)
            for ch, scheme in zip(members, (uplink, dual)):
                precoders = per_pair_construction(ch, scheme.alloc, beta)[2]
                assert len(precoders) == K * (K - 1)
                for (i, j), v in precoders.items():
                    assert_same_bits(scheme.precoders[i, partner_index(i, j)], v)

    @pytest.mark.parametrize("K,M,N,beta", [(4, 3, 7, 2), (5, 4, 13, 3)])
    def test_json_round_trip_is_bit_exact(self, K, M, N, beta):
        _, (uplink, _, loaded) = self.built(K, M, N, beta, 1)
        assert_same_bits(loaded.precoders, uplink.precoders)
        data = scheme_to_dict(uplink)
        keys = [f"{i},{j}" for i, j in itertools.permutations(range(K), 2)]
        assert list(data["precoders"]) == keys == sorted(keys)
        assert json.dumps(scheme_to_dict(loaded)) == json.dumps(data)

    def test_numpy_integer_config_exports_like_ints(self, tmp_path):
        # SystemConfig refused NumPy integers; it stores them as ints, so json can write them
        cfg = SystemConfig(*np.array([4, 3, 7]))
        scheme = assemble_scheme(sample_channels(cfg, 1), allocate_streams(cfg, 2), 2)
        reference = build_all(4, 3, 7, 2, 1)[2]
        for name, s in (("numpy.json", scheme), ("int.json", reference)):
            save_scheme(s, str(tmp_path / name))
        assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "int.json").read_bytes()


class TestCompressionSpectrum:
    @pytest.mark.parametrize("K,M,N,beta", [(4, 3, 7, 2), (6, 15, 32, 2), (6, 26, 81, 3)])
    def test_top_singular_value_is_the_spectral_norm(self, K, M, N, beta):
        # the rank check's top singular value scales the residual as ||P||_2 would
        for seed in (0, 1):
            ch, alloc, scheme = build_all(K, M, N, beta, seed)
            P, V = scheme.compression, scheme.precoders
            # for i < j, j is user i's partner j - 1 and i is user j's partner i
            residuals = [
                np.abs(P @ ch.uplink[i] @ V[i, j - 1] - P @ ch.uplink[j] @ V[j, i]).max()
                / (np.linalg.norm(P, 2) * ch.uplink_norms[i] * np.linalg.norm(V[i, j - 1], 2))
                for i, j in pairs_of(K)
            ]
            assert scheme.alignment_residual == float(np.max(residuals))

    def test_assemble_takes_no_second_svd_of_the_compression_matrix(self, monkeypatch):
        cfg = SystemConfig(6, 15, 32)
        ch, alloc = sample_channels(cfg, 0), allocate_streams(cfg, 2)
        calls = []
        svd = np.linalg._linalg.svd

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg._linalg, "svd", counted)
        monkeypatch.setattr(np.linalg, "svd", counted)
        assemble_scheme(ch, alloc, 2)
        # one scheme is a batch of one: the spectrum comes from a (1, rows, N) stack
        assert [shape[-2:] for shape in calls].count((alloc.rows, cfg.N)) == 1, calls
        assert calls.count((1, alloc.rows, cfg.N)) == 1, calls


class TestStreamCountOracle:
    def test_brute_force_matches_closed_form_at_corners(self):
        instances = [
            (4, 3, 7, 2),
            (5, 5, 11, 2),
            (5, 4, 13, 3),
            (6, 15, 32, 2),
            (6, 26, 81, 3),
            (6, 5, 21, 4),
        ]
        for K, M, N, beta in instances:
            closed = allocate_streams(SystemConfig(K, M, N), beta).per_pair
            assert brute_force_max_x(K, M, N, beta) == closed


class TestSchemeSerialization:
    @pytest.mark.parametrize("K,M,N,beta", [(4, 3, 7, 2), (5, 4, 13, 3)])
    def test_export_bytes_match_streamed_json(self, K, M, N, beta, tmp_path):
        _, _, scheme = build_all(K, M, N, beta, 1)
        reference = io.StringIO()
        json.dump(scheme_to_dict(scheme), reference)
        path = tmp_path / "scheme.json"
        save_scheme(scheme, str(path))
        assert path.read_bytes() == reference.getvalue().encode("utf-8")

    def test_row_residuals_are_read_only(self, tmp_path):
        _, _, scheme = build_all(4, 3, 7, 2, 1)
        path = tmp_path / "scheme.json"
        save_scheme(scheme, str(path))
        for built_or_loaded in (scheme, load_scheme(str(path))):
            for a in (built_or_loaded.compression, built_or_loaded.row_residuals):
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0] = 1.0

    def test_round_trip(self):
        ch, alloc, scheme = build_all(4, 3, 7, 2, 1)
        data = json.loads(json.dumps(scheme_to_dict(scheme)))
        back = scheme_from_dict(data)
        assert back.cfg == scheme.cfg
        assert back.beta == scheme.beta
        assert back.alloc == scheme.alloc
        assert np.allclose(back.compression, scheme.compression)
        assert np.allclose(back.aligned_basis, scheme.aligned_basis)
        assert np.allclose(back.precoders, scheme.precoders)
        assert scheme_to_dict(back) == data
        assert_rows_annihilate(back.compression, ch, row_subsets(4, 2, 1))

    def test_export_layout_is_pinned(self):
        # a change of the file format must edit these lists on purpose
        data = scheme_to_dict(build_all(4, 3, 7, 2, 1)[2])
        assert list(data) == [
            "cfg", "beta", "compression", "precoders", "aligned_basis", "metrics"
        ]
        assert list(data["cfg"]) == ["K", "M", "N"]
        assert list(data["compression"]) == ["matrix", "row_residuals"]
        assert list(data["metrics"]) == ["alignment_residual", "basis_condition"]

    @pytest.mark.parametrize(
        "K,M,N,beta", [(4, 3, 7, 2), (6, 5, 21, 4), (5, 1, 3, 2), (4, 4, 9, 2), (4, 3, 8, 2)]
    )
    def test_every_exported_scheme_loads(self, K, M, N, beta):
        # the last three are planned: t = 5 on the relay side, t = 7 on the source side
        # and relay antennas deactivated at t = 1
        prep = prepare(SystemConfig(K, M, N), beta, 0)
        scheme = prep.scheme
        data = json.loads(json.dumps(scheme_to_dict(scheme)))
        back = scheme_from_dict(data)
        assert back.alloc == scheme.alloc == allocate_streams(scheme.cfg, beta)
        subsets = row_subsets(scheme.cfg.K, beta, scheme.alloc.per_subset)
        assert_rows_annihilate(back.compression, prep.ch, subsets)
        assert scheme_to_dict(back) == data

    @pytest.mark.parametrize(
        "K,M,N,beta", [(4, 3, 7, 2), (6, 5, 21, 4), (5, 1, 3, 2), (4, 4, 9, 2), (4, 3, 8, 2)]
    )
    def test_file_with_allocation_and_row_subsets_loads(self, K, M, N, beta):
        # files written before the allocation and the row provenance were derived on
        # load carry both; they are not read, and the scheme comes back bit for bit
        prep = prepare(SystemConfig(K, M, N), beta, 0)
        scheme = prep.scheme
        data = scheme_to_dict(scheme)
        keys = [f"{i},{j}" for i, j in itertools.permutations(range(K), 2)]
        legacy = {**data, "allocation": dict.fromkeys(keys, scheme.alloc.per_pair)}
        subsets = row_subsets(scheme.cfg.K, beta, scheme.alloc.per_subset)
        legacy["compression"] = {
            "matrix": data["compression"]["matrix"],
            "row_subsets": [list(subset) for subset in subsets],
            "row_residuals": data["compression"]["row_residuals"],
        }
        back = scheme_from_dict(json.loads(json.dumps(legacy)))
        assert back.alloc == scheme.alloc
        assert_rows_annihilate(back.compression, prep.ch, subsets)
        for got, want in [
            (back.compression, scheme.compression),
            (back.row_residuals, scheme.row_residuals),
            (back.precoders, scheme.precoders),
            (back.aligned_basis, scheme.aligned_basis),
        ]:
            assert_same_bits(got, want)
        assert scheme_to_dict(back) == data

    def test_file_of_the_earlier_layout_loads(self):
        # written by the exporter that stored the allocation and the row provenance
        path = DATA / "scheme_k4_m3_n7_beta2_seed1_with_allocation.json"
        stored = json.loads(path.read_text(encoding="utf-8"))
        scheme = load_scheme(str(path))
        assert scheme.alloc == allocate_streams(SystemConfig(4, 3, 7), 2)
        assert [list(s) for s in row_subsets(4, 2, scheme.alloc.per_subset)] == (
            stored["compression"]["row_subsets"]
        )
        del stored["allocation"], stored["compression"]["row_subsets"]
        assert json.dumps(scheme_to_dict(scheme)) == json.dumps(stored)

    @pytest.mark.parametrize(
        "mutate",
        ["precoder_extra_column", "precoder_missing", "compression_row_missing",
         "basis_row_missing"],
    )
    def test_rejects_shapes_off_the_allocation(self, mutate):
        # each of these used to load; the verifier or relay_decode then raised
        # a raw numpy ValueError or KeyError, or the short compression passed
        _, _, scheme = build_all(4, 3, 7, 2, 1)
        data = scheme_to_dict(scheme)
        if mutate == "precoder_extra_column":
            data["precoders"]["0,1"] = [row + [[1.0, 0.0]] for row in data["precoders"]["0,1"]]
        elif mutate == "precoder_missing":
            del data["precoders"]["0,1"]
        elif mutate == "compression_row_missing":
            del data["compression"]["matrix"][-1]
        else:
            del data["aligned_basis"][-1]
        with pytest.raises(ConfigurationError, match="scheme"):
            scheme_from_dict(data)

    def test_precoder_count_is_checked_before_the_key_list(self, monkeypatch):
        # a file of a few hundred bytes must be refused without O(K^2) work
        def refused(K):
            raise AssertionError("message_order called for a file with no precoders")

        monkeypatch.setattr(alignment, "message_order", refused)
        data = {
            "cfg": {"K": 1000, "M": 249750, "N": 499501}, "beta": 2, "precoders": {},
            "compression": {"matrix": [], "row_residuals": []}, "aligned_basis": [],
            "metrics": {"alignment_residual": 0.0, "basis_condition": 1.0},
        }
        with pytest.raises(ConfigurationError, match="a precoder for every ordered pair"):
            scheme_from_dict(data)

    @pytest.mark.parametrize(
        "content",
        [b"", b'{"cfg": ', b"[1,2", b'{"cfg": "\xff"}', b"[" * 100_000],
        ids=["empty", "truncated_object", "truncated_array", "not_utf8", "nested_past_the_stack"],
    )
    def test_unreadable_file_is_a_configuration_error(self, content, tmp_path):
        # these raised json.JSONDecodeError, UnicodeDecodeError or RecursionError
        path = tmp_path / "scheme.json"
        path.write_bytes(content)
        with pytest.raises(ConfigurationError, match="is not readable UTF-8 JSON"):
            load_scheme(str(path))

    def test_rejects_non_finite_entries(self):
        _, _, scheme = build_all(4, 3, 7, 2, 1)
        data = scheme_to_dict(scheme)
        data["precoders"]["1,0"][0][0] = [0.0, float("inf")]
        with pytest.raises(ConfigurationError, match="NaN or infinite"):
            scheme_from_dict(json.loads(json.dumps(data)))

    @pytest.mark.parametrize("mutate", ["ragged_row", "one_number_entry", "row_not_a_list"])
    def test_rejects_malformed_matrix_layout(self, mutate):
        # each raised numpy's or Python's bare ValueError or TypeError
        _, _, scheme = build_all(4, 3, 7, 2, 1)
        data = scheme_to_dict(scheme)
        if mutate == "ragged_row":
            del data["compression"]["matrix"][0][-1]
        elif mutate == "one_number_entry":
            data["precoders"]["0,1"][0][0] = [1.0]
        else:
            data["aligned_basis"][0] = 5.0
        with pytest.raises(ConfigurationError, match="rows of \\[re, im\\] number pairs"):
            scheme_from_dict(json.loads(json.dumps(data)))

    @pytest.mark.parametrize(
        "mutate",
        ["metrics_missing", "K_string", "M_string", "not_an_object", "cfg_number",
         "precoders_number", "metrics_array", "row_residuals_number"],
    )
    def test_missing_section_or_string_count_is_a_configuration_error(self, mutate):
        # these raised a bare KeyError, TypeError or AttributeError
        _, _, scheme = build_all(4, 3, 7, 2, 1)
        data = scheme_to_dict(scheme)
        if mutate == "metrics_missing":
            del data["metrics"]
        elif mutate == "K_string":
            data["cfg"]["K"] = "4"
        elif mutate == "M_string":
            data["cfg"]["M"] = "3"
        elif mutate == "not_an_object":
            data = []
        elif mutate == "row_residuals_number":
            data["compression"]["row_residuals"] = 5
        else:
            section, kind = mutate.split("_")
            data[section] = 5 if kind == "number" else []
        with pytest.raises(ConfigurationError, match="metrics|must be an int|must be a JSON"):
            scheme_from_dict(json.loads(json.dumps(data)))

    @pytest.mark.parametrize(
        "mutate",
        ["residual_missing", "residual_nan", "residual_past_float", "beta_string",
         "beta_not_a_corner", "metric_nan", "metric_negative", "cfg_below_corner"],
    )
    def test_rejects_provenance_off_cfg_and_beta(self, mutate):
        # each of these but the last loaded silently, "7" as beta = 7; a cfg under
        # the corner failed on a matrix shape and now fails on its allocation
        _, _, scheme = build_all(4, 3, 7, 2, 1)
        data = scheme_to_dict(scheme)
        compression, metrics = data["compression"], data["metrics"]
        if mutate == "residual_missing":
            del compression["row_residuals"][-1]
        elif mutate == "residual_nan":
            compression["row_residuals"][2] = float("nan")
        elif mutate == "residual_past_float":
            compression["row_residuals"][2] = 10**400
        elif mutate == "beta_string":
            data["beta"] = "7"
        elif mutate == "beta_not_a_corner":
            data["beta"] = 7
        elif mutate == "cfg_below_corner":
            data["cfg"]["N"] = 6
        elif mutate == "metric_nan":
            metrics["basis_condition"] = float("nan")
        else:
            metrics["alignment_residual"] = -1e-12
        with pytest.raises(ConfigurationError, match="scheme"):
            scheme_from_dict(json.loads(json.dumps(data)))
