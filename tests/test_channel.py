"""Channel sampling, deactivation, extension and planning tests."""

import json
import pathlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ychannel import (
    ConfigurationError,
    DimensionError,
    InfeasibleConfigurationError,
    SystemConfig,
    apply_extension_plan,
    channel_from_dict,
    channel_to_dict,
    corner_points,
    deactivate,
    plan_extension,
    sample_channels,
    symbol_extend,
)


def corner(K, beta):
    return next(c for c in corner_points(K) if c.beta == beta)


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


class TestDeactivate:
    def test_identity(self):
        ch = sample_channels(SystemConfig(4, 3, 6), 5)
        same = deactivate(ch, 3, 6)
        for x, y in zip(same.uplink, ch.uplink):
            assert np.array_equal(x, y)
        assert same.cfg == ch.cfg

    def test_shapes(self):
        ch = sample_channels(SystemConfig(5, 4, 14), 0)
        cut = deactivate(ch, 4, 13)
        assert all(h.shape == (13, 4) for h in cut.uplink)
        assert all(g.shape == (4, 13) for g in cut.downlink)
        assert cut.cfg == SystemConfig(5, 4, 13)

    def test_composition(self):
        ch = sample_channels(SystemConfig(4, 4, 9), 3)
        once = deactivate(ch, 2, 9)
        twice = deactivate(deactivate(ch, 3, 9), 2, 9)
        for x, y in zip(once.uplink, twice.uplink):
            assert np.array_equal(x, y)

    def test_out_of_range(self):
        ch = sample_channels(SystemConfig(4, 3, 6), 5)
        with pytest.raises(DimensionError):
            deactivate(ch, 4, 6)
        with pytest.raises(DimensionError):
            deactivate(ch, 3, 0)


class TestSymbolExtend:
    def test_t1_identity(self):
        ch = sample_channels(SystemConfig(3, 2, 3), 1)
        assert symbol_extend(ch, 1) is ch

    def test_block_diagonal_lift(self):
        ch = sample_channels(SystemConfig(3, 5, 11), 2)
        ext = symbol_extend(ch, 2)
        h = ext.uplink[0]
        assert h.shape == (22, 10)
        assert np.array_equal(h[:11, :5], ch.uplink[0])
        assert np.array_equal(h[11:, 5:], ch.uplink[0])
        assert np.all(h[:11, 5:] == 0)
        assert np.all(h[11:, :5] == 0)
        assert ext.cfg == SystemConfig(3, 10, 22)

    def test_rank_additivity(self):
        ch = sample_channels(SystemConfig(3, 2, 5), 4)
        ext = symbol_extend(ch, 3)
        for h, lifted in zip(ch.uplink, ext.uplink):
            base = np.sum(np.linalg.svd(h, compute_uv=False) > 1e-10)
            big = np.sum(np.linalg.svd(lifted, compute_uv=False) > 1e-10)
            assert big == 3 * base

    def test_invalid_factor(self):
        ch = sample_channels(SystemConfig(3, 2, 5), 4)
        with pytest.raises(DimensionError):
            symbol_extend(ch, 0)

    def test_commutes_with_deactivation(self):
        # extend(deactivate) equals selecting the matching per-slot
        # rows/columns of deactivate(extend).
        ch = sample_channels(SystemConfig(3, 3, 5), 8)
        t, m_use, n_use = 2, 2, 4
        a = symbol_extend(deactivate(ch, m_use, n_use), t)
        ext = symbol_extend(ch, t)
        rows = [s * 5 + r for s in range(t) for r in range(n_use)]
        cols = [s * 3 + c for s in range(t) for c in range(m_use)]
        for ha, h in zip(a.uplink, ext.uplink):
            assert np.array_equal(ha, h[np.ix_(rows, cols)])
        for ga, g in zip(a.downlink, ext.downlink):
            assert np.array_equal(ga, g[np.ix_(cols, rows)])


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
        plan = plan_extension(SystemConfig(K, M, N), target, max_extension=10**6)
        assert (plan.side == "none") == (Fraction(N, M) == alpha)
        if plan.side == "none":
            assert plan.t == 1
            assert (plan.effective_M, plan.effective_N) == (M, N)

    def test_extension_cap(self):
        with pytest.raises(InfeasibleConfigurationError):
            plan_extension(SystemConfig(5, 1, 3), corner(5, 2), max_extension=3)

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
            plan = plan_extension(cfg, corner(K, beta), max_extension=128)
            eff = Fraction(plan.effective_N, plan.effective_M)
            assert eff == corner(K, beta).abscissa


class TestFixtureFormat:
    def test_round_trip(self):
        ch = sample_channels(SystemConfig(4, 2, 5), 31)
        data = json.loads(json.dumps(channel_to_dict(ch)))
        back = channel_from_dict(data)
        assert back.cfg == ch.cfg
        assert back.seed == ch.seed
        for x, y in zip((*back.uplink, *back.downlink), (*ch.uplink, *ch.downlink)):
            assert np.array_equal(x, y)

    def test_rejects_non_finite_entries(self):
        # NaN used to load and end in numpy's LinAlgError inside synthesis
        data = channel_to_dict(sample_channels(SystemConfig(4, 3, 7), 1))
        data["uplink"][2][4][1] = [float("nan"), 0.0]
        with pytest.raises(ConfigurationError, match="NaN or infinite"):
            channel_from_dict(json.loads(json.dumps(data)))

    @pytest.mark.parametrize("direction", ["uplink", "downlink"])
    def test_rejects_missing_matrix(self, direction):
        # three uplink matrices for K = 4 used to load and end in an IndexError
        data = channel_to_dict(sample_channels(SystemConfig(4, 3, 7), 1))
        del data[direction][-1]
        with pytest.raises(DimensionError, match="4 matrices per direction"):
            channel_from_dict(data)

    @pytest.mark.parametrize("seed", [-5, 2**64])
    def test_rejects_out_of_range_seed(self, seed):
        data = channel_to_dict(sample_channels(SystemConfig(4, 3, 7), 1))
        data["seed"] = seed
        with pytest.raises(ConfigurationError, match="seed"):
            channel_from_dict(data)

    def test_entries_are_re_im_pairs(self):
        ch = sample_channels(SystemConfig(3, 1, 2), 0)
        data = channel_to_dict(ch)
        entry = data["uplink"][0][0][0]
        assert isinstance(entry, list) and len(entry) == 2
        assert entry[0] == ch.uplink[0][0, 0].real
        assert entry[1] == ch.uplink[0][0, 0].imag

    def test_matches_frozen_fixture(self):
        # Golden fixture: resampling with the recorded (cfg, seed) must
        # reproduce the stored matrices exactly.
        path = pathlib.Path(__file__).parent / "data" / "channel_k3_m1_n2_seed5.json"
        with open(path, encoding="utf-8") as fh:
            golden = channel_from_dict(json.load(fh))
        fresh = sample_channels(golden.cfg, golden.seed)
        for x, y in zip(
            (*fresh.uplink, *fresh.downlink), (*golden.uplink, *golden.downlink)
        ):
            assert np.array_equal(x, y)
