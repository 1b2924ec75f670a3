"""Two-phase simulation tests: identities, round trips, noise, rates."""

import dataclasses
import io
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ychannel import (
    BroadcastInfeasibleError,
    ConfigurationError,
    DegenerateChannelError,
    DimensionError,
    InfeasibleConfigurationError,
    NetworkCodedVector,
    StageError,
    SymbolFrame,
    SystemConfig,
    YChannelError,
    allocate_streams,
    assemble_scheme,
    bc_phase,
    build_bc_scheme,
    cancel_self_interference,
    corner_points,
    decode_user,
    end_to_end,
    estimate_dof_slope,
    fit_slope,
    mac_phase,
    make_frame,
    plan_extension,
    prepare,
    relay_decode,
    sample_channels,
    simulate,
    simulate_grid,
    stack_network_coded,
    sum_rate_curve,
)
from ychannel import alignment, simulation
from ychannel.alignment import message_order
from ychannel.channel import ChannelSet
from ychannel.simulation import CSV_COLUMNS, RECOVERY_TOL, result_record, write_records_csv


def corner_setup(K, M, N, beta, seed):
    cfg = SystemConfig(K, M, N)
    ch = sample_channels(cfg, seed)
    alloc = allocate_streams(cfg, beta)
    scheme = assemble_scheme(ch, alloc, beta)
    return ch, scheme


def ordered_pairs(scheme):
    return list(itertools.permutations(range(scheme.cfg.K), 2))


def zero_frame(scheme):
    K, x = scheme.cfg.K, scheme.alloc.per_pair
    return SymbolFrame(np.zeros((K, K - 1, x), dtype=complex))


def stream(frame, i, j):
    """s_ij, the stream user i sends to user j, from the user-by-partner stack."""
    return frame.stack[i, partner_index(i, j)]


class TestFrames:
    def test_deterministic(self):
        _, scheme = corner_setup(4, 3, 7, 2, 1)
        a = make_frame(scheme, 5)
        b = make_frame(scheme, 5)
        assert a.stack.shape == (4, 3, 1) and not a.stack.flags.writeable
        assert list(a.streams) == ordered_pairs(scheme)
        for i, j in ordered_pairs(scheme):
            assert np.array_equal(stream(a, i, j), stream(b, i, j))
            assert np.shares_memory(a.streams[(i, j)], stream(a, i, j))  # a view, not a copy

    def test_network_coded_stacking(self):
        _, scheme = corner_setup(4, 3, 7, 2, 1)
        frame = make_frame(scheme, 2)
        nc = stack_network_coded(scheme, frame)
        assert nc.entries.shape == (6,)
        for (pair, start, stop) in scheme.pair_blocks:
            i, j = pair
            expected = stream(frame, i, j) + stream(frame, j, i)
            assert np.allclose(nc.entries[start:stop], expected)


class TestMacPhase:
    def test_zero_symbols_zero_output(self):
        ch, scheme = corner_setup(4, 3, 7, 2, 1)
        y = mac_phase(scheme, ch, zero_frame(scheme), 0.0)
        assert np.all(y == 0)

    def test_channel_set_of_another_cfg_is_refused(self):
        _, scheme = corner_setup(4, 3, 7, 2, 1)
        other = sample_channels(SystemConfig(4, 3, 8), 1)
        with pytest.raises(DimensionError, match="does not match scheme cfg"):
            mac_phase(scheme, other, zero_frame(scheme), 0.0)

    def test_single_stream_base_case(self):
        ch, scheme = corner_setup(4, 3, 7, 2, 1)
        frame = zero_frame(scheme)
        frame.stack[0, partner_index(0, 1), 0] = 1.0
        y = mac_phase(scheme, ch, frame, 0.0)
        expected = ch.uplink[0] @ scheme.precoders[0, partner_index(0, 1)][:, 0]
        assert np.allclose(y, expected)

    def test_superposition(self):
        ch, scheme = corner_setup(5, 5, 11, 2, 3)
        f1 = make_frame(scheme, 1)
        f2 = make_frame(scheme, 2)
        combo = SymbolFrame(2.0 * f1.stack - 1j * f2.stack)
        y = mac_phase(scheme, ch, combo, 0.0)
        y1 = mac_phase(scheme, ch, f1, 0.0)
        y2 = mac_phase(scheme, ch, f2, 0.0)
        assert np.allclose(y, 2.0 * y1 - 1j * y2, atol=1e-10)

    def test_compression_identity(self):
        # Compressing the noiseless relay observation lands exactly on the
        # aligned basis times the network-coded vector.
        ch, scheme = corner_setup(4, 3, 7, 2, 1)
        frame = make_frame(scheme, 9)
        y = mac_phase(scheme, ch, frame, 0.0)
        nc = stack_network_coded(scheme, frame)
        lhs = scheme.compression @ y
        rhs = scheme.aligned_basis @ nc.entries
        scale = max(1.0, np.abs(rhs).max())
        assert np.abs(lhs - rhs).max() / scale <= 1e-8

    def test_noise_requires_rng(self):
        ch, scheme = corner_setup(4, 3, 7, 2, 1)
        with pytest.raises(ConfigurationError):
            mac_phase(scheme, ch, make_frame(scheme, 0), 0.1, rng=None)

    @pytest.mark.parametrize(
        "noise_var", [-1.0, float("nan"), float("inf"), None, "0.1", 1j, True]
    )
    def test_rejects_bad_noise_variance(self, noise_var):
        # checked where the noise is drawn, before any NaN reception exists; None,
        # "0.1" and 1j raised a bare TypeError, and True was taken as 1.0
        ch, scheme = corner_setup(4, 3, 7, 2, 1)
        frame = make_frame(scheme, 0)
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError, match="noise variance"):
            mac_phase(scheme, ch, frame, noise_var, rng)
        bc = build_bc_scheme(scheme, ch)
        nc = stack_network_coded(scheme, frame)
        with pytest.raises(ConfigurationError, match="noise variance"):
            bc_phase(bc, ch, nc, noise_var, rng)

    def test_frame_shape_mismatch_is_a_dimension_error(self):
        ch, scheme = corner_setup(4, 3, 7, 2, 1)  # x = 1
        stack = make_frame(scheme, 0).stack  # (4, 3, 1)
        stacks = [
            stack[:, :2],  # a partner's stream missing
            stack[:3],  # a user missing
            np.zeros((4, 3, 2), dtype=complex),  # x = 2
            stack[..., None],
            stack.reshape(12, 1),  # pair rows, not user by partner
            make_frame(scheme, 0).streams,  # a dict has shape ()
        ]
        for wrong in stacks:
            with pytest.raises(DimensionError, match="frame"):
                mac_phase(scheme, ch, SymbolFrame(wrong), 0.0)
            # the x = 2 stack gave a (12,) sum vector and the 3-user one an IndexError
            with pytest.raises(DimensionError, match="frame"):
                stack_network_coded(scheme, SymbolFrame(wrong))


class TestRelayDecode:
    @pytest.mark.parametrize("K,M,N,beta,seed", [(4, 3, 7, 2, 1), (5, 5, 11, 2, 3)])
    def test_noiseless_round_trip(self, K, M, N, beta, seed):
        ch, scheme = corner_setup(K, M, N, beta, seed)
        frame = make_frame(scheme, seed)
        truth = stack_network_coded(scheme, frame)
        decoded = relay_decode(scheme, mac_phase(scheme, ch, frame, 0.0))
        assert np.abs(decoded.entries - truth.entries).max() <= 1e-6

    def test_zero_in_zero_out(self):
        ch, scheme = corner_setup(4, 3, 7, 2, 1)
        decoded = relay_decode(scheme, np.zeros(7, dtype=complex))
        assert np.all(decoded.entries == 0)

    @pytest.mark.parametrize("shape", [(8,), (6,), (7, 1)])
    def test_observation_length_mismatch_raises(self, shape):
        ch, scheme = corner_setup(4, 3, 7, 2, 1)
        with pytest.raises(DimensionError, match="N=7"):
            relay_decode(scheme, np.zeros(shape, dtype=complex))


def transposed(ch):
    """The dual channel set: each uplink is a transposed downlink, and vice versa."""
    return ChannelSet(
        cfg=ch.cfg,
        seed=ch.seed,
        uplink=tuple(np.ascontiguousarray(g.T) for g in ch.downlink),
        downlink=tuple(np.ascontiguousarray(h.T) for h in ch.uplink),
    )


def per_pair_bc(scheme, ch):
    """Relay precoder, filters and selector residual, one filter product at a time."""
    cfg, alloc = scheme.cfg, scheme.alloc
    dual = assemble_scheme(transposed(ch), alloc, scheme.beta)
    precoder = np.linalg.solve(dual.aligned_basis, dual.compression).T
    per_node = (cfg.K - 1) * alloc.per_pair
    gamma = np.sqrt(per_node / (2.0 * np.linalg.norm(precoder, "fro") ** 2))
    precoder *= gamma
    filters = {
        (i, j): dual.precoders[i, partner_index(i, j)].T / gamma
        for i, j in itertools.permutations(range(cfg.K), 2)
    }
    residuals = []
    for (i, j), start, stop in scheme.pair_blocks:
        want = np.zeros((stop - start, alloc.rows))
        want[:, start:stop] = np.eye(stop - start)
        for user, partner in ((i, j), (j, i)):
            selector = filters[(user, partner)] @ ch.downlink[user] @ precoder
            residuals.append(np.abs(selector - want).max())
    return precoder, filters, float(np.max(residuals))


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def partner_index(user, partner):
    """Where ``partner`` sits among ``user``'s partners in a user-by-partner stack."""
    return partner - (partner > user)


def others(user, K):
    """``user``'s partners in stack order."""
    return [j for j in range(K) if j != user]


def filter_stack(filters, K):
    """A dict of per-pair filters as the (K, K-1, x, M) user-by-partner stack, each
    filter column major as the construction lays it out."""
    rows = [[filters[(i, j)].T for j in range(K) if j != i] for i in range(K)]
    return np.array(rows).swapaxes(-1, -2)


class TestBroadcastPhase:
    @pytest.mark.parametrize("K,M,N,beta", [(4, 3, 7, 2), (6, 15, 32, 2), (5, 4, 13, 3)])
    def test_bit_identical_to_per_pair_oracle(self, K, M, N, beta):
        for seed in (0, 1):
            ch, scheme = corner_setup(K, M, N, beta, seed)
            bc = build_bc_scheme(scheme, ch)
            precoder, filters, residual = per_pair_bc(scheme, ch)
            assert_same_bits(bc.relay_precoder, precoder)
            assert bc.filters.shape == (K, K - 1, scheme.alloc.per_pair, M)
            for (user, partner), f in filters.items():
                assert_same_bits(bc.filters[user, partner_index(user, partner)], f)
            assert bc.selector_residual == residual

    def test_selector_certification(self):
        ch, scheme = corner_setup(4, 3, 7, 2, 1)
        bc = build_bc_scheme(scheme, ch)
        assert bc.selector_residual <= 1e-8
        rows = scheme.alloc.rows
        for user in range(4):
            for j in range(4):
                if j == user:
                    continue
                pair = (min(user, j), max(user, j))
                start, stop = next(
                    (s, e) for p, s, e in scheme.pair_blocks if p == pair
                )
                f = bc.filters[user, partner_index(user, j)]
                system = f @ ch.downlink[user] @ bc.relay_precoder
                desired = system[:, start:stop]
                other = np.delete(system, np.s_[start:stop], axis=1)
                assert np.linalg.matrix_rank(desired) == stop - start
                assert np.abs(desired - np.eye(stop - start)).max() <= 1e-8
                assert np.abs(other).max() <= 1e-8

    def test_nan_dual_precoder_fails_certification(self, monkeypatch):
        # max(0.0, nan) is 0.0, so a builtin fold would certify NaN filters
        ch, scheme = corner_setup(4, 3, 7, 2, 1)
        single, batched = simulation.assemble_scheme, simulation.assemble_schemes

        def poison(dual):
            v = np.array(dual.precoders)
            v[0, partner_index(0, 1), 0, 0] = np.nan
            return dataclasses.replace(dual, precoders=v)

        monkeypatch.setattr(simulation, "assemble_scheme", lambda *args: poison(single(*args)))
        with pytest.raises(BroadcastInfeasibleError):
            build_bc_scheme(scheme, ch)
        # prepare builds the dual in one batch with the uplink
        def poisoned(*args):
            uplink, dual = batched(*args)
            return [uplink, poison(dual)]

        monkeypatch.setattr(simulation, "assemble_schemes", poisoned)
        prep = prepare(SystemConfig(4, 3, 7), 2, 1)
        assert prep.bc is None
        assert prep.bc_failure.startswith("downlink selector residual nan")

    def test_channel_config_mismatch_raises(self):
        ch, scheme = corner_setup(4, 3, 7, 2, 1)
        with pytest.raises(DimensionError, match="does not match scheme cfg"):
            build_bc_scheme(scheme, sample_channels(SystemConfig(4, 3, 8), 1))

    def test_certified_arrays_are_read_only(self):
        # a written filter would leave simulate's errors and the cached gains disagreeing
        prep = prepare(SystemConfig(4, 3, 7), 2, 1)
        scheme, bc = prep.scheme, prep.bc
        for a in (
            scheme.compression,
            scheme.row_residuals,
            scheme.aligned_basis,
            scheme.precoders,
            bc.relay_precoder,
            bc.filters,
            prep.stream_gains,
        ):
            assert not a.flags.writeable
        with pytest.raises(ValueError):
            bc.filters[1, partner_index(1, 0)][0, 0] += 1e-3

    def test_zero_vector_received_as_zero(self):
        ch, scheme = corner_setup(4, 3, 7, 2, 1)
        frame = zero_frame(scheme)
        nc = stack_network_coded(scheme, frame)
        received = bc_phase(build_bc_scheme(scheme, ch), ch, nc, 0.0)
        for y in received:
            assert np.all(y == 0)

    def test_user_recovers_pair_blocks(self):
        ch, scheme = corner_setup(5, 4, 13, 3, 2)
        frame = make_frame(scheme, 4)
        nc = stack_network_coded(scheme, frame)
        bc = build_bc_scheme(scheme, ch)
        received = bc_phase(bc, ch, nc, 0.0)
        for user in range(5):
            blocks = decode_user(scheme, bc, user, received[user])
            assert blocks.shape == (4, scheme.alloc.per_pair)
            for j in others(user, 5):
                expected = stream(frame, user, j) + stream(frame, j, user)
                assert np.abs(blocks[partner_index(user, j)] - expected).max() <= 1e-6

    def test_self_interference_cancellation(self):
        ch, scheme = corner_setup(4, 3, 7, 2, 1)
        frame = make_frame(scheme, 8)
        nc = stack_network_coded(scheme, frame)
        bc = build_bc_scheme(scheme, ch)
        received = bc_phase(bc, ch, nc, 0.0)
        for user in range(4):
            blocks = decode_user(scheme, bc, user, received[user])
            partners = cancel_self_interference(frame, user, blocks)
            assert partners.shape == blocks.shape
            for j in others(user, 4):
                truth = stream(frame, j, user)
                assert np.abs(partners[partner_index(user, j)] - truth).max() <= 1e-6

    def test_shape_mismatches_are_dimension_errors(self):
        prep = prepare(SystemConfig(4, 3, 7), 2, 1)
        scheme, ch, bc = prep.scheme, prep.ch, prep.bc
        decoded = relay_decode(scheme, mac_phase(scheme, ch, prep.frame[0], 0.0))
        # another M returned a (4, 2) reception instead of raising
        others = (SystemConfig(5, 4, 13), SystemConfig(5, 3, 7), SystemConfig(4, 3, 8),
                  SystemConfig(4, 2, 7))
        for other in others:
            with pytest.raises(DimensionError, match="does not match the downlink scheme"):
                bc_phase(bc, sample_channels(other, 1), decoded)
        for rows in ((5,), (7,), (6, 1)):
            wrong = NetworkCodedVector(np.zeros(rows, dtype=complex))
            with pytest.raises(DimensionError, match="sum vector"):
                bc_phase(bc, ch, wrong)
        received = bc_phase(bc, ch, decoded)
        frame = prep.frame[0]
        blocks = decode_user(scheme, bc, 0, received[0])
        # True was taken as user 1, and np.True_ is in range(4) as well
        for user in (7, 4, -1, True, np.True_, 1.0):
            with pytest.raises(DimensionError, match="K=4 users"):
                decode_user(scheme, bc, user, received[0])
            with pytest.raises(DimensionError, match="K=4 users"):
                cancel_self_interference(frame, user, blocks)
        for shape in ((2,), (4,), (3, 1)):
            with pytest.raises(DimensionError, match="M=3"):
                decode_user(scheme, bc, 0, np.zeros(shape, dtype=complex))
        # (3,) and (1,) would broadcast against the user's (3, 1) streams
        for shape in ((3,), (1,), (1, 1), (3, 2), (4, 3, 1)):
            with pytest.raises(DimensionError, match="decoded"):
                cancel_self_interference(frame, 0, np.zeros(shape, dtype=complex))


class TestEndToEnd:
    @pytest.mark.parametrize(
        "K,M,N,beta,seed", [(4, 3, 7, 2, 1), (5, 4, 13, 3, 2), (5, 5, 11, 2, 3)]
    )
    def test_noiseless_corners(self, K, M, N, beta, seed):
        result = end_to_end(SystemConfig(K, M, N), beta, seed)
        assert result.t == 1
        assert result.relay_recovery_error <= 1e-6
        assert result.bc_failure is None
        assert result.user_recovery_error <= 1e-6

    def test_extension_path(self):
        result = end_to_end(SystemConfig(5, 1, 3), 2, 4)
        assert result.t == 5
        assert result.relay_recovery_error <= 1e-6
        assert result.user_recovery_error <= 1e-6

    def test_source_side_extension_path(self):
        # ratio below the corner: sources give up fractional antennas.
        # (4,4,9) has N > beta*M, where block-structured rows defeat an
        # unpivoted null-space split.
        for M, N in [(3, 2), (4, 9)]:
            result = end_to_end(SystemConfig(4, M, N), 2, 0)
            assert result.t == 7
            assert result.relay_recovery_error <= 1e-6
            assert result.user_recovery_error <= 1e-6

    def test_noisy_run_reports_rates(self):
        result = end_to_end(SystemConfig(4, 3, 7), 2, 1, snr_db=40.0)
        assert result.snr_db == pytest.approx(40.0)
        assert result.sum_rate is not None and result.sum_rate > 0
        assert len(result.rates) == 12
        assert result.relay_recovery_error > 0

    def test_errors_are_stage_tagged(self):
        from ychannel import StageError

        with pytest.raises(StageError) as err:
            prepare(SystemConfig(5, 4, 11), 4, 0)  # K=5 has no beta=4 corner
        assert err.value.stage == "synthesis"

    @pytest.mark.parametrize(
        "K,M,N,beta", [(4, 3, 7, 1), (4, 3, 7, 7), (3, 2, 3, 1), (5, 4, 11, 4)]
    )
    def test_beta_without_a_corner_is_refused_before_any_draw(self, K, M, N, beta, monkeypatch):
        # prepare named these in three texts, two of them after drawing the channels
        def refused(cfg, seed):
            raise AssertionError("channels drawn for a beta with no corner")

        monkeypatch.setattr(simulation, "sample_channels", refused)
        cfg = SystemConfig(K, M, N)
        with pytest.raises(ConfigurationError) as expected:
            allocate_streams(cfg, beta)
        with pytest.raises(StageError) as err:
            prepare(cfg, beta, 0)
        assert err.value.stage == "synthesis"
        assert type(err.value.cause) is ConfigurationError
        assert str(err.value.cause) == str(expected.value)

    @pytest.mark.parametrize("beta", [2.0, "2", True, None])
    def test_non_integer_beta_is_a_configuration_error(self, beta):
        # 2.0 raised a bare TypeError from comb, as a seed of 2.0 would not
        with pytest.raises(StageError) as err:
            prepare(SystemConfig(4, 3, 7), beta, 0)
        assert err.value.stage == "synthesis"
        assert isinstance(err.value.cause, ConfigurationError)
        assert "beta must be an integer" in str(err.value.cause)

    def test_numpy_integer_beta_runs_like_int(self):
        prep = prepare(SystemConfig(4, 3, 7), np.int64(2), 0)
        assert type(prep.beta) is int and type(prep.scheme.beta) is int
        assert simulate(prep, snr_db=30.0) == end_to_end(SystemConfig(4, 3, 7), 2, 0, snr_db=30.0)

    @pytest.mark.parametrize("snr_db", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_bad_noise_var(self, snr_db):
        with pytest.raises(ConfigurationError, match="dB"):
            end_to_end(SystemConfig(4, 3, 7), 2, 1, snr_db=snr_db)
        prep = prepare(SystemConfig(4, 3, 7), 2, 1)
        with pytest.raises(ConfigurationError, match="dB"):
            simulate(prep, snr_db=snr_db)

    def test_noise_level_is_keyword_only(self):
        # an old positional noise variance must not pass for an SNR in dB
        prep = prepare(SystemConfig(4, 3, 7), 2, 1)
        with pytest.raises(TypeError):
            simulate(prep, 0.0)
        with pytest.raises(TypeError):
            end_to_end(SystemConfig(4, 3, 7), 2, 1, 0.0)

    def test_monotone_degradation(self):
        levels = [40.0, 20.0, 0.0]  # SNR in dB, falling
        errs = np.array([
            [simulate(prep, snr_db=snr).relay_recovery_error for snr in levels]
            for prep in (prepare(SystemConfig(4, 3, 7), 2, seed) for seed in range(100))
        ])
        means = errs.mean(axis=0)
        assert means[0] <= means[1] <= means[2]

    def test_noise_matches_rate_model(self, monkeypatch):
        # The empirical zero-forcing noise of simulate, per stream and hop,
        # must give back the rates pairwise_rates reports at the same SNR.
        prep = prepare(SystemConfig(4, 3, 7), 2, 1)
        snr_db, draws = 30.0, 2000
        fresh = itertools.count(1)
        substream = simulation.substream

        def noise_stream(seed, label, index=0):
            if label != simulation.LABEL_NOISE:
                return substream(seed, label, index)
            return np.random.default_rng(next(fresh))

        relay, received = [], []

        def recorded_relay(scheme, y):
            relay.append(relay_decode(scheme, y))
            return relay[-1]

        def recorded_bc(*args):
            received.append(bc_phase(*args))
            return received[-1]

        monkeypatch.setattr(simulation, "substream", noise_stream)
        monkeypatch.setattr(simulation, "relay_decode", recorded_relay)
        monkeypatch.setattr(simulation, "bc_phase", recorded_bc)
        for _ in range(draws):
            simulate(prep, snr_db=snr_db)
        monkeypatch.undo()

        scheme = prep.scheme
        assert len(received) == draws
        users = [
            (user, decode_user(scheme, prep.bc, user, y))
            for rows in received
            for user, y in enumerate(rows)
        ]
        truth = stack_network_coded(scheme, make_frame(scheme, prep.seed)).entries
        relay_est = np.array([r.entries for r in relay])
        v = np.mean(np.abs(relay_est - truth) ** 2, axis=0)
        K = scheme.cfg.K
        expected = simulation.pairwise_rates(prep, snr_db)
        assert len(expected) == K * (K - 1)
        for (i, j), start, stop in scheme.pair_blocks:
            for src, user in ((i, j), (j, i)):
                own = [b[partner_index(user, src)] for u, b in users if u == user]
                w = np.mean(np.abs(np.array(own) - relay_est[:, start:stop]) ** 2, axis=0)
                rate = np.minimum(
                    np.log2(1.0 + 2.0 / v[start:stop]), np.log2(1.0 + 1.0 / w)
                ).sum()
                assert rate == pytest.approx(expected[(src, user)], rel=0.05), (src, user)


def two_hop_rates(prep, snr_db):
    """Rates from the raw matrices: each hop's zero-forcing rate, the smaller per stream."""
    scheme = prep.scheme
    sigma2 = (scheme.cfg.K - 1) * scheme.alloc.per_pair * 10.0 ** (-snr_db / 10.0)
    solver = np.linalg.solve(scheme.aligned_basis, scheme.compression)
    mac_rate = np.log2(1.0 + 2.0 / (sigma2 * np.linalg.norm(solver, axis=1) ** 2))
    rates = {}
    for (i, j), start, stop in scheme.pair_blocks:
        for src, user in ((i, j), (j, i)):
            f = np.linalg.norm(prep.bc.filters[user, partner_index(user, src)], axis=1)
            bc_rate = np.log2(1.0 + 1.0 / (sigma2 * f**2))
            rates[(src, user)] = float(np.minimum(mac_rate[start:stop], bc_rate).sum())
    return rates


class TestRates:
    @pytest.mark.parametrize("K,M,N,beta", [(4, 3, 7, 2), (6, 15, 32, 2), (5, 1, 3, 2)])
    def test_stream_gains_match_two_hop_oracle(self, K, M, N, beta):
        # the weaker hop's gain gives the same floats, in the same message order
        for seed in (0, 1):
            prep = prepare(SystemConfig(K, M, N), beta, seed)
            assert prep.stream_gains.shape == (K * (K - 1), prep.scheme.alloc.per_pair)
            for snr_db in (0.0, 17.5, 30.0, 60.0, 90.0):
                rates = simulation.pairwise_rates(prep, snr_db)
                assert list(rates.items()) == list(two_hop_rates(prep, snr_db).items())

    def test_message_order_is_formed_once_per_k(self):
        order, sent, received = message_order(5)
        assert message_order(5)[0] is order and isinstance(order, tuple)
        pairs = itertools.combinations(range(5), 2)
        assert order == tuple(msg for i, j in pairs for msg in ((i, j), (j, i)))
        # a message's entry in a user-by-partner stack, at its sender and at its receiver
        assert list(zip(*sent)) == [(i, j - (j > i)) for i, j in order]
        assert list(zip(*received)) == [(j, i - (i > j)) for i, j in order]
        assert not any(a.flags.writeable for a in sent + received)
        prep = prepare(SystemConfig(5, 4, 13), 3, 0)
        assert tuple(simulation.pairwise_rates(prep, 30.0)) == order

    def test_rates_do_no_linear_algebra_per_point(self, monkeypatch):
        prep = prepare(SystemConfig(4, 3, 7), 2, 1)
        gains = prep.stream_gains

        def forbidden(*args, **kwargs):
            raise AssertionError("linear algebra at an SNR point")

        monkeypatch.setattr(np.linalg, "solve", forbidden)
        monkeypatch.setattr(np.linalg, "norm", forbidden)
        for snr_db in (30.0, 60.0):
            simulation.pairwise_rates(prep, snr_db)
        assert prep.stream_gains is gains

    @pytest.mark.parametrize("snr_db", [4000.0, -3000.5, float("nan"), float("inf"), "30", True])
    def test_out_of_range_snr_rejected(self, snr_db, monkeypatch):
        prep = prepare(SystemConfig(4, 3, 7), 2, 0)
        with pytest.raises(ConfigurationError, match=r"\[-3000, 3000\] dB"):
            simulation.pairwise_rates(prep, snr_db)
        with pytest.raises(ConfigurationError, match=r"\[-3000, 3000\] dB"):
            simulate(prep, snr_db=snr_db)
        # the grid is checked before any seed is prepared
        calls = []
        monkeypatch.setattr(simulation, "prepare", lambda *a, **k: calls.append(a))
        for entry in (sum_rate_curve, estimate_dof_slope):
            with pytest.raises(ConfigurationError):
                entry(SystemConfig(4, 3, 7), 2, [0, 1], [30.0, snr_db])
        assert calls == []

    def test_snr_bound_is_inclusive(self):
        prep = prepare(SystemConfig(4, 3, 7), 2, 0)
        for snr_db in (-3000.0, 3000.0):
            rates = simulation.pairwise_rates(prep, snr_db)
            assert all(np.isfinite(rate) for rate in rates.values())
        assert np.isfinite(simulate(prep, snr_db=3000.0).sum_rate)

    # each id is the unit noise its SNR stands for
    @pytest.mark.parametrize(
        "snr_db", [3050.0, 3233.0, -3010.0], ids=["1e-305", "5e-324", "1e+301"]
    )
    def test_simulate_rejects_out_of_range_noise_first(self, snr_db, monkeypatch):
        prep = prepare(SystemConfig(4, 3, 7), 2, 0)
        # no stage may run before the SNR is refused
        for stage in ("mac_phase", "_uplink_sum", "relay_decode", "bc_phase"):
            monkeypatch.setattr(simulation, stage, None)
        with pytest.raises(ConfigurationError, match="dB"):
            simulate(prep, snr_db=snr_db)

    @pytest.mark.parametrize(
        "rates",
        [[1.0, 2.0], [1.0, np.nan, 2.0], [1.0, np.inf, 2.0], [[1.0, 2.0, 3.0]],
         ["1.0", "2.0", "3.0"], ["1.0", "x", "3.0"], [1.0, [2.0, 3.0], 4.0], [[1.0], [2.0, 3.0]],
         [1.0, 2.0, 3.0j], np.array([1.0, 2.0, 3.0]) + 0j],
        ids=[f"rates{k}" for k in range(4)]
        + ["strings", "bad_string", "ragged", "ragged_rows", "complex", "complex_array"],
    )
    def test_fit_slope_needs_one_finite_rate_per_point(self, rates):
        # strings were converted or raised a bare ValueError, ragged rates raised
        # numpy's ValueError, and complex ones a TypeError or a ComplexWarning
        with pytest.raises(ConfigurationError, match="one finite sum rate per SNR point"):
            fit_slope([1, 2, 3], rates)

    @pytest.mark.parametrize(
        "grid", [["1", "2"], [1.0, np.inf], [1.0, np.nan]], ids=["strings", "inf", "nan"]
    )
    def test_fit_slope_checks_its_snr_points(self, grid, capfd):
        # strings were converted, and inf or NaN reached LAPACK, which printed to stderr
        with pytest.raises(ConfigurationError, match="dB"):
            fit_slope(grid, np.array([1.0, 2.0]))
        assert capfd.readouterr().err == ""

    def test_numpy_seeds_and_grid_match_lists(self):
        # "if not seeds" raised numpy's ambiguous truth value for an array
        cfg, grid = SystemConfig(4, 3, 7), [30.0, 40.0, 55.5]
        want = sum_rate_curve(cfg, 2, [0, 1], grid)
        got = sum_rate_curve(cfg, 2, np.arange(2), np.array(grid))
        assert got.tobytes() == want.tobytes()
        slope = estimate_dof_slope(cfg, 2, [0], grid[:2])
        assert estimate_dof_slope(cfg, 2, np.array([0]), np.array(grid[:2])) == slope

    def test_scalar_grids_and_seeds_are_configuration_errors(self, monkeypatch):
        # each raised a bare TypeError from len() or iteration; a set or a dict raised
        # one from numpy ("not 'set'"), estimate_dof_slope only after preparing a seed,
        # and simulate_grid returned its results in hash order
        cfg = SystemConfig(4, 3, 7)
        calls = []
        monkeypatch.setattr(simulation, "prepare", lambda *a, **k: calls.append(a))
        for grid in (30.0, {60.0, 70.0}, {60.0: 1, 70.0: 2}):
            with pytest.raises(ConfigurationError, match="SNR grid must be a sequence"):
                sum_rate_curve(cfg, 2, [1], grid)
            with pytest.raises(ConfigurationError, match="SNR grid must be a sequence"):
                estimate_dof_slope(cfg, 2, [1], grid)
            with pytest.raises(ConfigurationError, match="SNR grid must be a sequence"):
                fit_slope(grid, [1.0, 2.0])
        for seeds in (5, {1, 2}, {1: 0}, frozenset({3})):
            with pytest.raises(ConfigurationError, match="seeds must be a sequence"):
                sum_rate_curve(cfg, 2, seeds, [30.0, 40.0])
        assert calls == []
        monkeypatch.undo()
        prep = prepare(cfg, 2, 0)
        for grid in (30.0, None, np.float64(30.0), np.array(30.0), {60.0, 70.0}, {60.0: 1}):
            with pytest.raises(ConfigurationError, match="SNR grid must be a sequence"):
                simulate_grid(prep, grid)

    def test_sum_rate_curve_needs_an_snr_point(self, monkeypatch):
        calls = []
        monkeypatch.setattr(simulation, "prepare", lambda *a, **k: calls.append(a))
        with pytest.raises(ConfigurationError, match="one SNR point"):
            sum_rate_curve(SystemConfig(4, 3, 7), 2, [1], [])
        assert calls == []

    @pytest.mark.parametrize("bad", [2**64, -1, 1.5, True], ids=["2^64", "-1", "1.5", "True"])
    def test_every_seed_is_checked_before_any_is_prepared(self, bad, monkeypatch):
        # seed 0 was prepared in full before the bad seed raised a "synthesis" StageError
        calls = []
        monkeypatch.setattr(simulation, "prepare", lambda *a, **k: calls.append(a))
        for entry in (sum_rate_curve, estimate_dof_slope):
            with pytest.raises(ConfigurationError, match=rf"^seed .*, got {re.escape(str(bad))}$"):
                entry(SystemConfig(4, 3, 7), 2, [0, bad], [30.0, 40.0])
        assert calls == []

    def test_fit_slope_zero_rates(self):
        assert fit_slope([30, 40, 50, 60], np.zeros(4)) == 0.0

    def test_fit_slope_exact_line(self):
        # rate = 3 * log2(P) + 1 has slope 3 in DoF units
        grid = [20.0, 30.0, 40.0]
        rates = [3 * snr * np.log2(10) / 10 + 1 for snr in grid]
        assert fit_slope(grid, np.array(rates)) == pytest.approx(3.0, abs=1e-9)

    def test_fit_needs_two_points(self):
        with pytest.raises(ConfigurationError):
            fit_slope([30.0], np.array([1.0]))

    def test_fit_needs_two_distinct_points(self, monkeypatch):
        with pytest.raises(ConfigurationError, match="distinct"):
            fit_slope([30, 30], np.array([1.0, 2.0]))
        # the grid is checked before any seed is prepared
        calls = []
        monkeypatch.setattr(simulation, "prepare", lambda *a, **k: calls.append(a))
        for grid in ([30.0], [30.0, 30.0]):
            with pytest.raises(ConfigurationError, match="distinct"):
                estimate_dof_slope(SystemConfig(4, 3, 7), 2, [0, 1, 2], grid)
        assert calls == []

    def test_slope_smoke(self):
        slope = estimate_dof_slope(
            SystemConfig(4, 3, 7), 2, list(range(10)), [30, 40, 50, 60]
        )
        assert 0.85 * 12 <= slope <= 1.1 * 12

    def test_slope_invariant_to_grid_offset(self):
        cfg = SystemConfig(4, 3, 7)
        seeds = list(range(10))
        base = estimate_dof_slope(cfg, 2, seeds, [30, 40, 50, 60])
        shifted = estimate_dof_slope(cfg, 2, seeds, [50, 60, 70, 80])
        assert abs(shifted - base) / base <= 0.05


class TestPreparedPipeline:
    def test_frame_drawn_once_per_seed(self, monkeypatch):
        # every point equals a freshly prepared pipeline's: the frame depends
        # on the seed alone and each call starts a fresh noise substream
        cfg, grid = SystemConfig(4, 3, 7), [20.0, 30.0, 40.0, 50.0]
        fresh = [simulate(prepare(cfg, 2, 3), snr_db=snr) for snr in grid]
        prep = prepare(cfg, 2, 3)
        calls = []

        def counted(scheme, seed):
            calls.append(seed)
            return make_frame(scheme, seed)

        monkeypatch.setattr(simulation, "make_frame", counted)
        for snr, want in zip(grid, fresh):
            got = simulate(prep, snr_db=snr)
            assert got.relay_recovery_error == want.relay_recovery_error
            assert got.user_recovery_error == want.user_recovery_error
            assert got.sum_rate == want.sum_rate
        assert calls == [3]
        frame, truth = prep.frame
        assert not truth.entries.flags.writeable
        assert not frame.stack.flags.writeable

    def test_one_record_serves_every_noise_level(self):
        cfg = SystemConfig(4, 3, 7)
        prep = prepare(cfg, 2, 3)
        for snr in (None, 40.0, 20.0):
            assert simulate(prep, snr_db=snr) == end_to_end(cfg, 2, 3, snr_db=snr)

    def test_downlink_failures(self, monkeypatch):
        from ychannel import BroadcastInfeasibleError, DecodabilityError, StageError

        def failing(error):
            def finish(scheme, ch, dual):
                raise error

            return finish

        # prepare finishes the batched dual with the helper build_bc_scheme shares
        monkeypatch.setattr(
            simulation, "_bc_from_dual", failing(BroadcastInfeasibleError("no dual"))
        )
        result = end_to_end(SystemConfig(4, 3, 7), 2, 1, snr_db=30.0)
        assert result.bc_failure == "no dual"
        assert result.user_recovery_error is None and result.sum_rate is None
        # bc is None, and the error names the seed as montecarlo does
        with pytest.raises(BroadcastInfeasibleError, match="no rate available at seed 1: no dual"):
            sum_rate_curve(SystemConfig(4, 3, 7), 2, [1], [30.0, 40.0])
        with pytest.raises(BroadcastInfeasibleError, match="at seed 1: no dual"):
            estimate_dof_slope(SystemConfig(4, 3, 7), 2, [1], [30.0, 40.0])
        monkeypatch.setattr(
            simulation, "_bc_from_dual", failing(DecodabilityError("singular"))
        )
        with pytest.raises(StageError) as err:
            prepare(SystemConfig(4, 3, 7), 2, 1)
        assert err.value.stage == "bc"

    def test_sum_rate_curve_matches_end_to_end(self):
        cfg = SystemConfig(4, 3, 7)
        seeds = [0, 1]
        grid = [30.0, 40.0, 50.0]
        per_point = [
            [end_to_end(cfg, 2, seed, snr_db=snr).sum_rate for snr in grid]
            for seed in seeds
        ]
        curve = sum_rate_curve(cfg, 2, seeds, grid)
        assert np.array_equal(curve, np.mean(per_point, axis=0))

    def test_two_schemes_per_seed(self, monkeypatch):
        # one batch per seed, the uplink and its dual, and no scheme built alone
        calls = []
        batched = simulation.assemble_schemes

        def counted_batch(members, *args):
            uplink, dual = members
            assert all(np.array_equal(h, g.T) for h, g in zip(dual.uplink, uplink.downlink))
            calls.extend(ch.seed for ch in members)
            return batched(members, *args)

        def counted(*args, **kwargs):
            calls.append(args[0].seed)
            return assemble_scheme(*args, **kwargs)

        monkeypatch.setattr(simulation, "assemble_schemes", counted_batch)
        monkeypatch.setattr(simulation, "assemble_scheme", counted)
        monkeypatch.setattr(alignment, "assemble_scheme", counted)
        sum_rate_curve(SystemConfig(4, 3, 7), 2, [0, 1, 2], [30.0, 40.0, 50.0])
        assert calls == [0, 0, 1, 1, 2, 2]


def per_stage_run(prep, snr_db):
    """(noiseless relay observation, relay error, user error) from the per-stage
    loop ``simulate`` replaced.

    One matrix at a time: the uplink sums from zeros per source and over
    sources, the relay noise's real then imaginary normals, then each
    user's, the solve, and every user's filters, cancellation and error
    maximum from its dicts.
    """
    scheme, ch, bc = prep.scheme, prep.ch, prep.bc
    K, M, N, x = scheme.cfg.K, scheme.cfg.M, scheme.cfg.N, scheme.alloc.per_pair
    sigma2 = 0.0 if snr_db is None else (K - 1) * x * 10.0 ** (-snr_db / 10.0)
    rng = simulation.substream(prep.seed, simulation.LABEL_NOISE)

    def awgn(size):
        if sigma2 == 0.0:
            return np.zeros(size, dtype=complex)
        re = rng.standard_normal(size)
        im = rng.standard_normal(size)
        return np.sqrt(sigma2 / 2.0) * (re + 1j * im)

    frame = make_frame(scheme, prep.seed)
    y = np.zeros(N, dtype=complex)
    for i in range(K):
        sent = np.zeros(M, dtype=complex)
        for j in range(K):
            if j != i:
                sent = sent + scheme.precoders[i, partner_index(i, j)] @ stream(frame, i, j)
        y = y + ch.uplink[i] @ sent
    noiseless = y
    y = y + awgn(N)
    decoded = np.linalg.solve(scheme.aligned_basis, scheme.compression @ y)
    relay_err = float(np.abs(decoded - stack_network_coded(scheme, frame).entries).max())
    if bc is None:
        return noiseless, relay_err, None
    relay_tx = bc.relay_precoder @ decoded
    received = [g @ relay_tx + awgn(M) for g in ch.downlink]
    worst = 0.0
    for user in range(K):
        for j in range(K):
            if j != user:
                f = bc.filters[user, partner_index(user, j)]
                estimate = f @ received[user] - stream(frame, user, j)
                worst = max(worst, float(np.abs(estimate - stream(frame, j, user)).max()))
    return noiseless, relay_err, worst


class TestStackedSimulate:
    """``simulate_grid`` runs one short pass per SNR point over the seed's stacks."""

    GRID = [None, 20.0, 45.5, 70.0]

    # (5, 1, 3) extends t = 5 on the relay side, (4, 4, 9) t = 7 on the source side
    @pytest.mark.parametrize(
        "K,M,N,beta", [(4, 3, 7, 2), (5, 1, 3, 2), (4, 4, 9, 2), (6, 5, 21, 4), (6, 15, 32, 2)]
    )
    def test_bit_identical_to_the_per_stage_loop(self, K, M, N, beta):
        prep = prepare(SystemConfig(K, M, N), beta, 1)
        assert prep.bc is not None
        observation = mac_phase(prep.scheme, prep.ch, prep.frame[0], 0.0)
        for snr_db, got in zip(self.GRID, simulate_grid(prep, self.GRID), strict=True):
            noiseless, *want = per_stage_run(prep, snr_db)
            assert_same_bits(observation, noiseless)
            assert [got.relay_recovery_error, got.user_recovery_error] == want, snr_db

    def test_bit_identical_without_a_downlink_scheme(self):
        prep = dataclasses.replace(prepare(SystemConfig(4, 3, 7), 2, 1), bc=None, bc_failure="x")
        for snr_db, got in zip(self.GRID, simulate_grid(prep, self.GRID), strict=True):
            _, *want = per_stage_run(prep, snr_db)
            assert [got.relay_recovery_error, got.user_recovery_error] == want
            assert got.bc_failure == "x" and got.sum_rate is None
        with pytest.raises(BroadcastInfeasibleError, match="x"):
            simulation.pairwise_rates(prep, 30.0)

    def test_stages_match_their_per_matrix_products(self):
        prep = prepare(SystemConfig(6, 15, 32), 2, 2)  # x = 2
        scheme, ch, bc = prep.scheme, prep.ch, prep.bc
        K, M = scheme.cfg.K, scheme.cfg.M
        y = mac_phase(scheme, ch, prep.frame[0], 0.0)
        assert_same_bits(y, per_stage_run(prep, None)[0])
        decoded = relay_decode(scheme, y)
        received = bc_phase(bc, ch, decoded, 0.0)
        assert received.shape == (K, M)
        for user in range(K):
            relay_tx = bc.relay_precoder @ decoded.entries
            assert_same_bits(received[user], ch.downlink[user] @ relay_tx + np.zeros(M))
            blocks = decode_user(scheme, bc, user, received[user])
            assert blocks.shape == (K - 1, scheme.alloc.per_pair)
            for j in others(user, K):
                got = blocks[partner_index(user, j)]
                assert_same_bits(got, bc.filters[user, partner_index(user, j)] @ received[user])

    def test_reverse_order_gives_equal_results(self):
        cfg = SystemConfig(4, 3, 7)
        forward, backward = prepare(cfg, 2, 5), prepare(cfg, 2, 5)
        ahead = [simulate(forward, snr_db=snr) for snr in self.GRID]
        behind = [simulate(backward, snr_db=snr) for snr in reversed(self.GRID)]
        assert ahead == behind[::-1]
        # and a second pass over the warm pipeline repeats the first
        assert [simulate(forward, snr_db=snr) for snr in self.GRID] == ahead
        assert simulate_grid(backward, self.GRID[::-1]) == behind

    def test_mixed_grid_matches_one_point_calls(self):
        # no state leaks from one point to the next, noiseless or noisy
        grid = [None, -10.0, 45.5, None, 90.0]
        prep = prepare(SystemConfig(4, 3, 7), 2, 4)
        got = simulate_grid(prep, grid)
        assert [r.snr_db for r in got] == grid
        for snr_db, result in zip(grid, got, strict=True):
            assert result == simulate(prepare(SystemConfig(4, 3, 7), 2, 4), snr_db=snr_db)
            assert result == simulate(prep, snr_db=snr_db)
        assert simulate_grid(prep, []) == []

    def test_each_point_keys_one_noise_substream(self, monkeypatch):
        prep = prepare(SystemConfig(4, 3, 7), 2, 1)
        prep.frame  # drawn before counting: the frame keys its own substream
        grid = [None, 20.0, 45.5, None, 70.0]
        want = simulate_grid(prep, grid)
        keyed = []
        substream = simulation.substream

        def counted(seed, label, index=0):
            keyed.append((seed, label))
            return substream(seed, label, index)

        monkeypatch.setattr(simulation, "substream", counted)
        assert simulate_grid(prep, grid) == want
        assert keyed == [(1, simulation.LABEL_NOISE)] * len(grid)
        # every point is checked before any is run
        keyed.clear()
        with pytest.raises(ConfigurationError, match="dB"):
            simulate_grid(prep, [30.0, None, 4000.0])
        assert keyed == []

    def test_cached_arrays_are_read_only_and_formed_once(self):
        prep = prepare(SystemConfig(4, 3, 7), 2, 0)

        def cached():
            frame, truth = prep.frame
            return frame.stack, truth.entries, prep.bc.filters, prep.ch.downlink

        simulate(prep, snr_db=30.0)
        first = cached()
        for a in first:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 1.0
        simulate_grid(prep, [40.0, None])
        assert all(a is b for a, b in zip(first, cached()))

    def test_user_filters_keep_the_column_major_layout(self):
        # a row-major copy of the filters changes the bits of their products
        prep = prepare(SystemConfig(6, 15, 32), 2, 0)
        filters, frame = prep.bc.filters, prep.frame[0]
        _, sent_at, received_at = message_order(6)
        sent, wanted = frame.stack, np.empty_like(frame.stack)
        wanted[received_at] = sent[sent_at]
        assert filters.shape == (6, 5, 2, 15)
        assert all(f.flags.f_contiguous and not f.flags.c_contiguous for f in filters[0])
        per_pair = per_pair_bc(prep.scheme, prep.ch)[1]
        for i, j in ordered_pairs(prep.scheme):
            k = partner_index(i, j)
            assert_same_bits(filters[i, k], per_pair[(i, j)])
            assert_same_bits(sent[i, k], stream(frame, i, j))
            assert_same_bits(wanted[i, k], stream(frame, j, i))


def assert_same_scheme(got, want):
    assert got.cfg == want.cfg and got.alloc == want.alloc
    assert got.beta == want.beta  # so the rows come from the same subsets
    for a, b in [
        (got.compression, want.compression),
        (got.row_residuals, want.row_residuals),
        (got.aligned_basis, want.aligned_basis),
        (got.precoders, want.precoders),
    ]:
        assert_same_bits(a, b)
    assert got.alignment_residual == want.alignment_residual
    assert got.basis_condition == want.basis_condition


class TestBatchedPrepare:
    """``prepare`` builds the uplink scheme and its dual in one batch."""

    # the six criterion-3 corners and the t = 5 extension of (5, 1, 3)
    INSTANCES = [
        (4, 3, 7, 2),
        (5, 5, 11, 2),
        (5, 4, 13, 3),
        (6, 15, 32, 2),
        (6, 26, 81, 3),
        (6, 5, 21, 4),
        (5, 1, 3, 2),
    ]

    @pytest.mark.parametrize("K,M,N,beta", INSTANCES)
    def test_bit_identical_to_one_scheme_at_a_time(self, K, M, N, beta):
        for seed in (0, 1):
            prep = prepare(SystemConfig(K, M, N), beta, seed)
            ch = prep.ch
            scheme = assemble_scheme(ch, allocate_streams(ch.cfg, beta), beta)
            assert_same_scheme(prep.scheme, scheme)
            precoder, filters, residual = per_pair_bc(scheme, ch)
            dual = assemble_scheme(transposed(ch), scheme.alloc, beta)
            assert_same_bits(prep.bc.relay_precoder, precoder)
            assert prep.bc.filters.shape == (K, K - 1, scheme.alloc.per_pair, ch.cfg.M)
            for (user, partner), f in filters.items():
                assert_same_bits(prep.bc.filters[user, partner_index(user, partner)], f)
            assert prep.bc.selector_residual == residual
            assert prep.bc.dual_basis_condition == dual.basis_condition
            stack = filter_stack(filters, K)
            bc = simulation.BcScheme(precoder, stack, residual, dual.basis_condition)
            alone = simulation.PreparedPipeline(
                prep.cfg, beta, seed, prep.t, ch, scheme, bc, None
            )
            assert_same_bits(prep.stream_gains, alone.stream_gains)

    def test_each_stage_runs_once_on_the_uplink_and_its_dual(self, monkeypatch):
        members = {"build_compression_matrix": [], "build_precoders": []}
        for name, calls in members.items():
            real = getattr(alignment, name)

            def counted(H, *args, real=real, calls=calls):
                calls.append(H.shape[0])
                return real(H, *args)

            monkeypatch.setattr(alignment, name, counted)
        prep = prepare(SystemConfig(4, 3, 7), 2, 0)
        assert prep.bc is not None
        assert members == {"build_compression_matrix": [2], "build_precoders": [2]}

    def test_one_allocation_per_prepare(self, monkeypatch):
        # the batch derives the allocation once, for the uplink and its dual
        calls, real = [], alignment.allocate_streams

        def counted(cfg, beta):
            calls.append((cfg, beta))
            return real(cfg, beta)

        for module in (alignment, simulation):
            monkeypatch.setattr(module, "allocate_streams", counted, raising=False)
        prep = prepare(SystemConfig(6, 15, 32), 2, 0)
        assert prep.bc is not None
        assert calls == [(prep.ch.cfg, 2)]

    def test_failed_dual_leaves_the_uplink_as_built_alone(self, monkeypatch):
        # two users share a downlink, so only the dual construction fails
        real = simulation._dual_channels

        def degenerate(ch):
            dual = real(ch)
            return dataclasses.replace(dual, uplink=dual.uplink[[1, 1, 2, 3]])

        monkeypatch.setattr(simulation, "_dual_channels", degenerate)
        prep = prepare(SystemConfig(4, 3, 7), 2, 1)
        ch = prep.ch
        scheme = assemble_scheme(ch, allocate_streams(ch.cfg, 2), 2)
        assert_same_scheme(prep.scheme, scheme)
        # the batch raises its first failure; prepare rebuilds the uplink alone
        with pytest.raises(DegenerateChannelError):
            alignment.assemble_schemes((ch, degenerate(ch)), 2)
        with pytest.raises(BroadcastInfeasibleError) as err:
            build_bc_scheme(scheme, ch)
        assert prep.bc is None
        assert prep.bc_failure == str(err.value)
        assert prep.bc_failure.startswith("dual construction failed: ")
        result = simulate(prep)
        assert result.bc_failure == prep.bc_failure
        assert result.relay_recovery_error <= RECOVERY_TOL

    def test_uplink_rank_loss_without_extension_stays_degenerate(self, monkeypatch):
        # at t = 1 a rank loss is a probability-zero draw, not a structural one
        def degenerate(*args):
            raise DegenerateChannelError("compression matrix lost row rank")

        monkeypatch.setattr(simulation, "assemble_schemes", degenerate)
        monkeypatch.setattr(simulation, "assemble_scheme", degenerate)
        with pytest.raises(StageError) as err:
            prepare(SystemConfig(4, 3, 7), 2, 0)
        assert err.value.stage == "synthesis"
        assert type(err.value.cause) is DegenerateChannelError

    def test_uplink_rank_loss_under_extension_is_infeasible(self):
        # the source-side t=7 plan of (4,1,2) loses compression rank on every draw
        with pytest.raises(StageError) as err:
            prepare(SystemConfig(4, 1, 2), 2, 0)
        assert err.value.stage == "synthesis"
        assert isinstance(err.value.cause, InfeasibleConfigurationError)
        assert "t=7" in str(err.value.cause)


def extension_instances(m_max=3, n_max=60):
    """Every (K, M, N, beta), K <= 7, M <= m_max, N <= n_max, whose plan
    extends by 1 < t <= 64 symbols to an effective N <= n_max."""
    out = []
    for K in range(4, 8):
        for corner in corner_points(K):
            for M, N in itertools.product(range(1, m_max + 1), range(1, n_max + 1)):
                try:
                    plan = plan_extension(SystemConfig(K, M, N), corner)
                except YChannelError:
                    continue
                if corner.beta >= 2 and plan.t > 1 and plan.effective_N <= n_max:
                    out.append((K, M, N, corner.beta))
    return out


class TestRandomExtensions:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(extension_instances()), st.integers(0, 2**64 - 1))
    def test_recovered_or_domain_error(self, instance, seed):
        # any exception other than a YChannelError fails the draw
        K, M, N, beta = instance
        try:
            prep = prepare(SystemConfig(K, M, N), beta, seed)
        except YChannelError:
            return
        result = simulate(prep)
        assert result.relay_recovery_error <= RECOVERY_TOL
        if prep.bc is not None:
            assert result.user_recovery_error <= RECOVERY_TOL


class TestRecords:
    def test_csv_columns_and_line_endings(self):
        result = end_to_end(SystemConfig(4, 3, 7), 2, 1, snr_db=30.0)
        buf = io.StringIO()
        write_records_csv([result_record(result)], buf)
        text = buf.getvalue()
        lines = text.split("\n")
        assert lines[0] == "K,M,N,beta,t,seed,snr_db,relay_err,user_err,sum_rate"
        assert "\r" not in text
        assert lines[1].startswith("4,3,7,2,1,1,30.0,")

    def test_noiseless_record_blank_optionals(self):
        result = end_to_end(SystemConfig(4, 3, 7), 2, 1)
        record = result_record(result)
        assert record["snr_db"] == ""
        assert record["sum_rate"] == ""

    def test_record_keys_are_the_csv_columns(self):
        # DictWriter writes "" for a missing key without an error, so the
        # header test alone would not catch a dropped key
        for snr_db in (None, 30.0):
            record = result_record(end_to_end(SystemConfig(4, 3, 7), 2, 1, snr_db=snr_db))
            assert list(record) == CSV_COLUMNS
