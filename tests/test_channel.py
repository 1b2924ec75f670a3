"""Channel sampling, extension planning and plan application tests."""

import dataclasses
import itertools
import json
import pathlib
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ychannel import (
    ChannelSet,
    ConfigurationError,
    DimensionError,
    ExtensionPlan,
    InfeasibleConfigurationError,
    StageError,
    SystemConfig,
    allocate_streams,
    apply_extension_plan,
    assemble_scheme,
    corner_points,
    mac_phase,
    make_frame,
    plan_extension,
    prepare,
    relay_decode,
    sample_channels,
    simulate,
    verify_alignment_conditions,
)
from ychannel import channel, simulation
from ychannel.channel import (
    LABEL_DOWNLINK,
    LABEL_FRAME,
    LABEL_MIXER,
    LABEL_UPLINK,
    _box_muller,
    _gaussian_rows,
    _spectral_norms,
    substream,
)
from ychannel.alignment import (
    _stored_matrix,
    complex_matrix_to_pairs,
    scheme_from_dict,
    scheme_to_dict,
)


def corner(K, beta):
    return next(c for c in corner_points(K) if c.beta == beta)


def reference_transform(r1, r2):
    """Box-Muller as one complex expression, the form every draw used before batching."""
    radius = np.sqrt(-2.0 * np.log(1.0 - r1))
    angle = 2.0 * np.pi * r2
    return (radius * np.cos(angle) + 1j * radius * np.sin(angle)) / np.sqrt(2.0)


def reference_gaussian(rng, shape):
    """One matrix from its own generator: radius uniforms, then angle uniforms."""
    r1 = rng.random(shape)
    return reference_transform(r1, rng.random(shape))


class TestSampling:
    def test_deterministic(self):
        a = sample_channels(SystemConfig(4, 2, 5), 99)
        b = sample_channels(SystemConfig(4, 2, 5), 99)
        for x, y in zip((*a.uplink, *a.downlink), (*b.uplink, *b.downlink)):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_out_of_range_seed(self, seed):
        with pytest.raises(ConfigurationError, match="seed"):
            sample_channels(SystemConfig(4, 3, 7), seed)

    @pytest.mark.parametrize("seed", [np.int64(3), np.uint64(3), np.int32(3)])
    def test_numpy_integer_seed_samples_like_int(self, seed):
        ch = sample_channels(SystemConfig(4, 3, 7), seed)
        want = sample_channels(SystemConfig(4, 3, 7), 3)
        assert type(ch.seed) is int and ch.seed == 3
        for x, y in zip((*ch.uplink, *ch.downlink), (*want.uplink, *want.downlink)):
            assert x.tobytes() == y.tobytes()
        prep, same = prepare(SystemConfig(4, 3, 7), 2, seed), prepare(SystemConfig(4, 3, 7), 2, 3)
        assert type(prep.seed) is int
        assert simulate(prep, snr_db=30.0) == simulate(same, snr_db=30.0)

    @pytest.mark.parametrize("seed", [1.5, 3.0, True, False, "3", None, np.float64(3.0)])
    def test_rejects_non_integer_seed(self, seed):
        with pytest.raises(ConfigurationError, match="seed must be an integer"):
            sample_channels(SystemConfig(4, 3, 7), seed)
        with pytest.raises(StageError) as err:
            prepare(SystemConfig(4, 3, 7), 2, seed)
        assert isinstance(err.value.cause, ConfigurationError)

    def test_largest_seed_accepted(self):
        ch = sample_channels(SystemConfig(4, 3, 7), 2**64 - 1)
        assert ch.seed == 2**64 - 1

    def test_seeds_differ(self):
        a = sample_channels(SystemConfig(4, 2, 5), 1)
        b = sample_channels(SystemConfig(4, 2, 5), 2)
        assert not np.allclose(a.uplink[0], b.uplink[0])

    def test_generator_golden_values(self):
        # Guards against generator or transform drift across versions.
        ch = sample_channels(SystemConfig(3, 2, 2), 42)
        assert ch.uplink[0][0, 0] == pytest.approx(
            -0.8854138090623936 + 0.965371556765521j, abs=1e-12
        )
        assert ch.downlink[2][1, 1] == pytest.approx(
            0.1986937805922941 - 0.6106317702830786j, abs=1e-12
        )

    def test_entry_power_near_unit(self):
        ch = sample_channels(SystemConfig(4, 3, 7), 1)
        power = np.concatenate(
            [np.abs(m.ravel()) ** 2 for m in (*ch.uplink, *ch.downlink)]
        )
        assert power.size == 4 * (7 * 3 + 3 * 7)
        assert 0.8 <= power.mean() <= 1.2

    def test_pooled_variance_within_5_percent(self):
        ch = sample_channels(SystemConfig(5, 20, 50), 0)
        power = np.concatenate(
            [np.abs(m.ravel()) ** 2 for m in (*ch.uplink, *ch.downlink)]
        )
        assert power.size >= 10_000
        assert abs(power.mean() - 1.0) <= 0.05

    def test_full_rank(self):
        ch = sample_channels(SystemConfig(3, 2, 4), 7)
        for h in ch.uplink:
            assert np.linalg.matrix_rank(h) == 2
        for g in ch.downlink:
            assert np.linalg.matrix_rank(g) == 2

    def test_arrays_immutable(self):
        ch = sample_channels(SystemConfig(3, 2, 2), 0)
        with pytest.raises(ValueError):
            ch.uplink[0][0, 0] = 0


def two_step_reference(ch, plan):
    """The former path: symbol_extend (kron lift), then mix and slice, or
    deactivate (prefix slice) when t == 1.  Each mixer is drawn from its own
    generator and factored alone, against the batched draw and QR."""
    t, m_eff, n_eff = plan.t, plan.effective_M, plan.effective_N
    if t == 1:
        return [h[:n_eff, :m_eff] for h in ch.uplink], [g[:m_eff, :n_eff] for g in ch.downlink]
    ups = [np.ascontiguousarray(np.kron(np.eye(t), h)) for h in ch.uplink]
    downs = [np.ascontiguousarray(np.kron(np.eye(t), g)) for g in ch.downlink]

    def mixer(index, n):
        q, _ = np.linalg.qr(reference_gaussian(substream(ch.seed, LABEL_MIXER, index), (n, n)))
        return q

    if plan.side == "relay":
        u = mixer(0, t * ch.cfg.N)
        return [(u @ h)[:n_eff, :] for h in ups], [(g @ u.conj().T)[:, :n_eff] for g in downs]
    us = [mixer(i + 1, t * ch.cfg.M) for i in range(ch.cfg.K)]
    return (
        [(h @ u.conj().T)[:, :m_eff] for h, u in zip(ups, us)],
        [(u @ g)[:m_eff, :] for g, u in zip(downs, us)],
    )


class TestApplyExtensionPlan:
    def test_t1_identity(self):
        ch = sample_channels(SystemConfig(4, 3, 6), 5)
        same = apply_extension_plan(ch, ExtensionPlan(1, 3, 6, "none"))
        for x, y in zip((*same.uplink, *same.downlink), (*ch.uplink, *ch.downlink)):
            assert np.array_equal(x, y)
        assert same.cfg == ch.cfg

    def test_t1_prefix_shapes(self):
        ch = sample_channels(SystemConfig(5, 4, 14), 0)
        cut = apply_extension_plan(ch, ExtensionPlan(1, 4, 13, "relay"))
        assert all(h.shape == (13, 4) for h in cut.uplink)
        assert all(g.shape == (4, 13) for g in cut.downlink)
        assert cut.cfg == SystemConfig(5, 4, 13)
        assert np.array_equal(cut.uplink[2], ch.uplink[2][:13, :])
        assert np.array_equal(cut.downlink[2], ch.downlink[2][:, :13])

    @pytest.mark.parametrize(
        "cfg, plan",
        [
            (SystemConfig(4, 3, 6), ExtensionPlan(1, 4, 6, "source")),
            (SystemConfig(4, 3, 6), ExtensionPlan(1, 3, 0, "relay")),
            (SystemConfig(3, 2, 5), ExtensionPlan(0, 2, 5, "none")),
            # t > 1 plans were never checked: N = 99 gave a 15 x 5 matrix under
            # a cfg saying N = 99, and M = 0 surfaced as a SystemConfig error
            (SystemConfig(5, 1, 3), ExtensionPlan(5, 5, 99, "relay")),
            (SystemConfig(5, 1, 3), ExtensionPlan(5, 0, 11, "relay")),
        ],
        ids=["t1_M_above", "t1_N_zero", "t0", "t5_N_above", "t5_M_zero"],
    )
    def test_rejects_plan_outside_extended_counts(self, cfg, plan):
        with pytest.raises(DimensionError, match="extension plan"):
            apply_extension_plan(sample_channels(cfg, 4), plan)

    @pytest.mark.parametrize(
        "plan",
        [ExtensionPlan(2.0, 6, 14, "relay"), ExtensionPlan(1, 2.5, 7, "none"),
         ExtensionPlan(True, 3, 7, "none"), ExtensionPlan(1, 3, "7", "none")],
        ids=["t_float", "M_float", "t_bool", "N_string"],
    )
    def test_non_integer_plan_fields_are_configuration_errors(self, plan):
        # 2.0 raised a bare TypeError from np.eye, 2.5 one from slicing, and True ran as t = 1
        ch = sample_channels(SystemConfig(4, 3, 7), 4)
        with pytest.raises(ConfigurationError, match="plan .* must be an integer"):
            apply_extension_plan(ch, plan)

    @pytest.mark.parametrize("side", ["none", "sideways", ""])
    def test_extension_needs_a_side(self, side):
        # any side but "relay" used to get source-side mixers
        ch = sample_channels(SystemConfig(4, 3, 7), 4)
        with pytest.raises(DimensionError, match="needs side 'relay' or 'source'"):
            apply_extension_plan(ch, ExtensionPlan(2, 6, 14, side))
        assert apply_extension_plan(ch, ExtensionPlan(1, 3, 7, side)).cfg == ch.cfg

    def test_block_diagonal_lift(self):
        # with nothing truncated, the relay rotation cancels in H^H H
        ch = sample_channels(SystemConfig(3, 5, 11), 2)
        ext = apply_extension_plan(ch, ExtensionPlan(2, 10, 22, "relay"))
        h = ext.uplink[0]
        assert h.shape == (22, 10)
        assert ext.cfg == SystemConfig(3, 10, 22)
        gram = ch.uplink[0].conj().T @ ch.uplink[0]
        assert np.allclose(h.conj().T @ h, np.kron(np.eye(2), gram), atol=1e-12)

    @pytest.mark.parametrize("K, M, N, beta", [(3, 1, 1, 1), (5, 1, 3, 2), (4, 4, 9, 2)])
    def test_effective_matrices_full_rank(self, K, M, N, beta):
        # the lift has rank t * rank(h), and truncation in a rotated basis keeps
        # every effective matrix at full rank min(effective_M, effective_N)
        cfg = SystemConfig(K, M, N)
        plan = plan_extension(cfg, corner(K, beta))
        assert plan.t > 1
        ext = apply_extension_plan(sample_channels(cfg, 4), plan)
        full = min(plan.effective_M, plan.effective_N)
        for m in (*ext.uplink, *ext.downlink):
            assert np.linalg.matrix_rank(m) == full

    def test_matches_two_step_reference(self):
        kinds = set()
        for K in (4, 5):
            for M in (1, 2, 3):
                for N in range(1, 3 * M + 3):
                    cfg = SystemConfig(K, M, N)
                    for target in corner_points(K):
                        plan = plan_extension(cfg, target)
                        if plan.t > 12:  # bounds the run time
                            continue
                        kinds.add((plan.t > 1, plan.side))
                        ch = sample_channels(cfg, 7)
                        got = apply_extension_plan(ch, plan)
                        ups, downs = two_step_reference(ch, plan)
                        assert got.cfg == SystemConfig(K, plan.effective_M, plan.effective_N)
                        for x, y in zip((*got.uplink, *got.downlink), (*ups, *downs)):
                            assert x.shape == y.shape
                            assert x.tobytes() == np.ascontiguousarray(y).tobytes()
        assert kinds >= {(True, "relay"), (True, "source"), (False, "relay"), (False, "none")}

    @pytest.mark.parametrize("t", [2, 5, 7, 15])
    @pytest.mark.parametrize("side", ["relay", "source"])
    def test_broadcast_lift_matches_kron_bit_for_bit(self, t, side):
        # one broadcast product per direction against np.kron per matrix,
        # signed zeros included (tobytes tells -0.0 from 0.0)
        cfg = SystemConfig(4, 2, 3)
        plan = ExtensionPlan(t, t * 2 - (side == "source"), t * 3 - (side == "relay"), side)
        for seed in range(20):
            ch = sample_channels(cfg, seed)
            got = apply_extension_plan(ch, plan)
            ups, downs = two_step_reference(ch, plan)
            for x, y in zip((*got.uplink, *got.downlink), (*ups, *downs)):
                assert x.tobytes() == np.ascontiguousarray(y).tobytes()


class TestSubstreamKeys:
    # label and index fill 32 key bits each: index 2^32 drew the stream of
    # (label + 1, 0), and a negative index or a label >= 2^32 raised numpy's
    # own ValueError
    @pytest.mark.parametrize("label, index", [(0, 2**32), (0, -1), (2**32, 0), (-1, 0)])
    def test_out_of_range_label_or_index_is_refused(self, label, index):
        with pytest.raises(ConfigurationError, match=r"\[0, 2\^32\)"):
            substream(5, label, index)
        with pytest.raises(ConfigurationError, match=r"\[0, 2\^32\)"):
            _gaussian_rows(5, [(label, index)], 3)

    def test_largest_label_and_index_have_their_own_stream(self):
        top = substream(5, 2**32 - 1, 2**32 - 1).random(4)
        assert not np.array_equal(top, substream(5, 0, 0).random(4))
        rows = _gaussian_rows(5, [(2**32 - 1, 2**32 - 1)], 2)
        ref = reference_gaussian(substream(5, 2**32 - 1, 2**32 - 1), (2,))
        assert rows[0].tobytes() == ref.tobytes()


class TestBatchedDraws:
    """Every batched draw against one generator and one complex expression per matrix."""

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("K, M, N", [(4, 3, 7), (6, 26, 81)])
    def test_sample_channels_matches_per_matrix_draws(self, K, M, N, seed):
        ch = sample_channels(SystemConfig(K, M, N), seed)
        for i in range(K):
            h = reference_gaussian(substream(seed, LABEL_UPLINK, i), (N, M))
            g = reference_gaussian(substream(seed, LABEL_DOWNLINK, i), (M, N))
            assert ch.uplink[i].tobytes() == h.tobytes()
            assert ch.downlink[i].tobytes() == g.tobytes()

    def test_transform_keeps_the_zeros_of_the_complex_expression(self):
        # a radius uniform of exactly 0 gives radius -0.0; the complex
        # expression still returns +0.0 for both parts, whatever the angle
        r1 = np.array([0.0, 0.0, 0.0, 0.0, 0.5, 0.5, 0.25])
        r2 = np.array([0.0, 0.3, 0.6, 0.9, 0.0, 0.75, 0.5])
        got = _box_muller(np.stack([r1, r2])[None].copy())[0]
        assert got.tobytes() == reference_transform(r1, r2).tobytes()

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("K, M, N, beta", [(4, 3, 7, 2), (6, 15, 32, 2)])
    def test_frame_matches_per_pair_draws(self, K, M, N, beta, seed):
        cfg = SystemConfig(K, M, N)
        alloc = allocate_streams(cfg, beta)
        scheme = assemble_scheme(sample_channels(cfg, seed), alloc, beta)
        frame = make_frame(scheme, seed)
        rng = substream(seed, LABEL_FRAME)
        pairs = list(itertools.permutations(range(K), 2))
        assert frame.stack.shape == (K, K - 1, alloc.per_pair)
        assert list(frame.streams) == pairs  # the per-pair view keeps the draw order
        for i, j in pairs:  # user by partner is the draw order
            want = reference_gaussian(rng, (alloc.per_pair,))
            assert frame.stack[i, j - (j > i)].tobytes() == want.tobytes()
            assert frame.streams[(i, j)].tobytes() == want.tobytes()


class TestSpectralNorms:
    """``_spectral_norms`` against the SVD's ||A||_2, one matrix at a time."""

    @staticmethod
    def assert_matches_svd(stack):
        got = _spectral_norms(stack)
        want = np.linalg.norm(stack.reshape(-1, *stack.shape[-2:]), 2, axis=(1, 2))
        assert got.shape == stack.shape[:-2] and got.dtype == np.float64
        np.testing.assert_allclose(got.reshape(-1), want, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("shape", [(12, 32, 15), (2, 6, 15, 32), (3, 2, 81, 26), (5, 1, 1)])
    def test_random_tall_wide_and_scalar_stacks(self, shape):
        rng = np.random.default_rng(sum(shape))
        self.assert_matches_svd(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    @pytest.mark.parametrize("rows, cols, rank", [(7, 3, 1), (3, 7, 2), (15, 32, 14), (9, 9, 4)])
    def test_rank_deficient_matrices(self, rows, cols, rank):
        rng = np.random.default_rng(rows * cols + rank)
        left = rng.standard_normal((4, rows, rank)) + 1j * rng.standard_normal((4, rows, rank))
        right = rng.standard_normal((4, rank, cols)) + 1j * rng.standard_normal((4, rank, cols))
        self.assert_matches_svd(left @ right)

    @pytest.mark.parametrize("shape", [(3, 7, 3), (2, 3, 7), (4, 1, 1)])
    def test_all_zero_matrices_give_plus_zero(self, shape):
        norms = _spectral_norms(np.zeros(shape, complex))
        assert norms.tobytes() == np.zeros(shape[0]).tobytes()  # +0.0, neither -0.0 nor NaN

    def test_underflowing_gram_is_clamped_not_nan(self):
        norms = _spectral_norms(np.full((2, 5, 3), 1e-170 + 1e-170j))
        assert np.isfinite(norms).all() and (norms >= 0).all()

    # 1e200 is finite, but its square overflows the Gram matrix
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf), 1e200])
    def test_non_finite_gram_gives_nan_and_leaves_the_rest(self, bad):
        rng = np.random.default_rng(7)
        stack = rng.standard_normal((2, 3, 8, 5)) + 1j * rng.standard_normal((2, 3, 8, 5))
        want = np.linalg.norm(stack, 2, axis=(2, 3))
        stack[1, 2, 4, 0] = bad
        with np.errstate(invalid="ignore", over="ignore"):
            got = _spectral_norms(stack)
        assert np.isnan(got[1, 2])
        mask = np.ones(got.shape, bool)
        mask[1, 2] = False
        np.testing.assert_allclose(got[mask], want[mask], rtol=1e-14, atol=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_uplink_norms_of_a_non_finite_channel(self, bad):
        sampled = sample_channels(SystemConfig(4, 3, 7), 1)
        uplink = sampled.uplink.copy()
        uplink[2, 1, 1] = bad
        ch = ChannelSet(sampled.cfg, sampled.seed, uplink, sampled.downlink)
        with np.errstate(invalid="ignore"):
            norms = ch.uplink_norms
        assert not norms.flags.writeable
        assert np.isnan(norms[2])
        np.testing.assert_allclose(norms[[0, 1, 3]], sampled.uplink_norms[[0, 1, 3]], rtol=0)


class TestChannelStacks:
    """Each direction is one read-only, C-ordered stack whose matrices are, byte for
    byte, those of the per-matrix reference: one generator per matrix, then kron, mix
    and slice."""

    @staticmethod
    def assert_stacks(ch, ups, downs):
        K, M, N = ch.cfg.K, ch.cfg.M, ch.cfg.N
        for got, want, shape in ((ch.uplink, ups, (K, N, M)), (ch.downlink, downs, (K, M, N))):
            assert type(got) is np.ndarray and got.shape == shape and got.dtype == complex
            assert got.flags.c_contiguous and not got.flags.writeable
            assert got.tobytes() == b"".join(np.ascontiguousarray(m).tobytes() for m in want)
            with pytest.raises(ValueError):
                got[0, 0, 0] = 0
        assert ch.downlink is ch.downlink

    # (5, 5, 12) is a t = 1 prefix deactivation, (5, 1, 3) a t = 5 relay-side
    # extension and (4, 4, 9) a t = 7 source-side one
    @pytest.mark.parametrize(
        "K, M, N, t, side", [(5, 5, 12, 1, "relay"), (5, 1, 3, 5, "relay"), (4, 4, 9, 7, "source")]
    )
    def test_stacks_match_the_per_matrix_reference(self, K, M, N, t, side):
        cfg, seed = SystemConfig(K, M, N), 3
        plan = plan_extension(cfg, corner(K, 2))
        assert (plan.t, plan.side) == (t, side)
        reference = SimpleNamespace(
            cfg=cfg,
            seed=seed,
            uplink=[reference_gaussian(substream(seed, LABEL_UPLINK, i), (N, M)) for i in range(K)],
            downlink=[
                reference_gaussian(substream(seed, LABEL_DOWNLINK, i), (M, N)) for i in range(K)
            ],
        )
        sampled = sample_channels(cfg, seed)
        self.assert_stacks(sampled, reference.uplink, reference.downlink)
        extended = apply_extension_plan(sampled, plan)
        ups, downs = two_step_reference(reference, plan)
        self.assert_stacks(extended, ups, downs)
        # a set built from its uplink first draws the same downlink on the first read
        late = sample_channels(cfg, seed)
        assert np.array_equal(late.uplink_norms, sampled.uplink_norms)
        assert "downlink" not in vars(late)
        self.assert_stacks(late, reference.uplink, reference.downlink)


@pytest.fixture
def downlink_draws(monkeypatch):
    """The (label, index) keys of every downlink row ``_gaussian_rows`` draws from now on."""
    drawn, real = [], channel._gaussian_rows

    def recording(seed, keys, n):
        drawn.extend(key for key in keys if key[0] == LABEL_DOWNLINK)
        return real(seed, keys, n)

    monkeypatch.setattr(channel, "_gaussian_rows", recording)
    return drawn


class TestDownlinkOnFirstRead:
    """A sampled set draws its downlink on the first read; an explicit one is kept."""

    @pytest.mark.parametrize("K, M, N, beta", [(4, 3, 7, 2), (6, 5, 21, 4)])
    def test_the_uplink_only_path_draws_no_downlink(self, downlink_draws, K, M, N, beta):
        cfg, seed = SystemConfig(K, M, N), 2
        ch = sample_channels(cfg, seed)
        scheme = assemble_scheme(ch, allocate_streams(cfg, beta), beta)
        assert verify_alignment_conditions(scheme, ch).passed
        frame = make_frame(scheme, seed)
        relay_decode(scheme, mac_phase(scheme, ch, frame, 0.0))
        assert downlink_draws == []
        assert "downlink" not in vars(ch)

    # (4, 3, 7) prepares at t = 1 and (5, 1, 3) at t = 5
    @pytest.mark.parametrize("K, M, N, t", [(4, 3, 7, 1), (5, 1, 3, 5)])
    def test_prepare_draws_each_downlink_row_once(self, downlink_draws, K, M, N, t):
        prep = prepare(SystemConfig(K, M, N), 2, 1)
        assert prep.t == t and prep.bc is not None
        assert downlink_draws == [(LABEL_DOWNLINK, i) for i in range(K)]

    def test_explicit_downlinks_are_kept(self, downlink_draws):
        sampled = sample_channels(SystemConfig(4, 3, 7), 1)
        cfg, seed, uplink = sampled.cfg, sampled.seed, sampled.uplink
        given = np.ascontiguousarray(sampled.uplink.transpose(0, 2, 1))
        matrices = tuple(given)  # as tests/test_simulation.py's ``transposed`` passes it
        positional = ChannelSet(cfg, seed, uplink, given)
        keyword = ChannelSet(cfg=cfg, seed=seed, uplink=uplink, downlink=matrices)
        dual = simulation._dual_channels(positional)
        replaced = dataclasses.replace(dual, uplink=dual.uplink[[1, 1, 2, 3]])
        assert positional.downlink is given
        assert keyword.downlink is matrices
        assert replaced.downlink is dual.downlink
        assert downlink_draws == []


class TestPlanExtension:
    def test_integer_relay_deactivation(self):
        plan = plan_extension(SystemConfig(5, 5, 12), corner(5, 2))
        assert plan.t == 1
        assert (plan.effective_M, plan.effective_N) == (5, 11)
        assert plan.side == "relay"

    def test_fractional_needs_extension(self):
        plan = plan_extension(SystemConfig(5, 1, 3), corner(5, 2))
        assert plan.t == 5
        assert (plan.effective_M, plan.effective_N) == (5, 11)
        assert plan.side == "relay"

    def test_already_at_corner(self):
        plan = plan_extension(SystemConfig(4, 3, 7), corner(4, 2))
        assert plan.t == 1
        assert (plan.effective_M, plan.effective_N) == (3, 7)
        assert plan.side == "none"

    def test_source_side(self):
        # ratio below the corner: sources give up antennas
        plan = plan_extension(SystemConfig(5, 10, 11), corner(5, 2))
        assert plan.side == "source"
        eff = Fraction(plan.effective_N, plan.effective_M)
        assert eff == corner(5, 2).abscissa

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(3, 8), st.integers(1, 29), st.integers(1, 119), st.booleans())
    def test_side_none_means_unchanged(self, data, K, M, N, at_corner):
        # "none" only at the corner ratio, where nothing is extended or dropped
        target = data.draw(st.sampled_from(corner_points(K)))
        alpha = target.abscissa
        if at_corner:
            M = alpha.denominator * (M % 4 + 1)
            N = alpha.numerator * M // alpha.denominator
        try:
            plan = plan_extension(SystemConfig(K, M, N), target)
        except InfeasibleConfigurationError:
            assume(False)  # t above the cap
        assert (plan.side == "none") == (Fraction(N, M) == alpha)
        if plan.side == "none":
            assert plan.t == 1
            assert (plan.effective_M, plan.effective_N) == (M, N)

    def test_extension_cap(self):
        # ratio 1 against the corner 81/26 needs t = 81
        cap = "reaching ratio 81/26 needs a 81-symbol extension, above the cap 64"
        with pytest.raises(InfeasibleConfigurationError, match=cap) as err:
            plan_extension(SystemConfig(6, 1, 1), corner(6, 3))
        assert err.value.inequality == "t <= MAX_EXTENSION"

    def test_apply_plan_shapes(self):
        cfg = SystemConfig(5, 1, 3)
        plan = plan_extension(cfg, corner(5, 2))
        ch = apply_extension_plan(sample_channels(cfg, 11), plan)
        assert ch.cfg == SystemConfig(5, 5, 11)
        assert all(h.shape == (11, 5) for h in ch.uplink)
        assert all(g.shape == (5, 11) for g in ch.downlink)

    def test_apply_plan_deterministic(self):
        cfg = SystemConfig(5, 1, 3)
        plan = plan_extension(cfg, corner(5, 2))
        a = apply_extension_plan(sample_channels(cfg, 11), plan)
        b = apply_extension_plan(sample_channels(cfg, 11), plan)
        for x, y in zip(a.uplink, b.uplink):
            assert np.array_equal(x, y)

    def test_ratios_hit_target_exactly(self):
        for K, M, N, beta in [(5, 5, 12, 2), (5, 1, 3, 2), (5, 7, 30, 3), (6, 4, 30, 4)]:
            cfg = SystemConfig(K, M, N)
            plan = plan_extension(cfg, corner(K, beta))
            eff = Fraction(plan.effective_N, plan.effective_M)
            assert eff == corner(K, beta).abscissa


class TestFixtureFormat:
    def test_round_trip(self):
        # every channel matrix survives the [re, im] codec and JSON text bit for bit
        ch = sample_channels(SystemConfig(4, 2, 5), 31)
        for matrix in (*ch.uplink, *ch.downlink):
            text = json.dumps(complex_matrix_to_pairs(matrix))
            back = _stored_matrix(json.loads(text), matrix.shape, "channel")
            assert back.tobytes() == matrix.tobytes()

    def test_rejects_non_finite_entries(self):
        # json reads NaN; a NaN compression entry must not reach the verifier
        cfg = SystemConfig(4, 3, 7)
        scheme = assemble_scheme(sample_channels(cfg, 1), allocate_streams(cfg, 2), 2)
        data = scheme_to_dict(scheme)
        data["compression"]["matrix"][2][4] = [float("nan"), 0.0]
        with pytest.raises(ConfigurationError, match="NaN or infinite"):
            scheme_from_dict(json.loads(json.dumps(data)))

    def test_entries_are_re_im_pairs(self):
        cfg = SystemConfig(4, 3, 7)
        scheme = assemble_scheme(sample_channels(cfg, 0), allocate_streams(cfg, 2), 2)
        entry = scheme_to_dict(scheme)["compression"]["matrix"][0][0]
        assert isinstance(entry, list) and len(entry) == 2
        assert entry[0] == scheme.compression[0, 0].real
        assert entry[1] == scheme.compression[0, 0].imag

    def test_pairs_match_per_entry_floats(self):
        # the one-call encoding gives the per-entry [float(re), float(im)] lists
        rng = np.random.default_rng(3)
        m = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        m[0, 0], m[1, 2] = complex(-0.0, 0.0), complex(0.0, -0.0)
        for matrix in (m, m.real, np.arange(6).reshape(2, 3)):
            want = [[[float(v.real), float(v.imag)] for v in row] for row in matrix]
            got = complex_matrix_to_pairs(matrix)
            assert json.dumps(got) == json.dumps(want)

    def test_matches_frozen_fixture(self):
        # Golden fixture: resampling with the recorded (cfg, seed) must
        # reproduce the stored matrices exactly.
        path = pathlib.Path(__file__).parent / "data" / "channel_k3_m1_n2_seed5.json"
        with open(path, encoding="utf-8") as fh:
            golden = json.load(fh)
        dims = golden["cfg"]
        fresh = sample_channels(SystemConfig(dims["K"], dims["M"], dims["N"]), golden["seed"])
        for direction in ("uplink", "downlink"):
            stored = np.array(golden[direction], float).view(complex)[..., 0]
            sampled = getattr(fresh, direction)
            assert stored.shape == sampled.shape
            assert stored.tobytes() == sampled.tobytes()
