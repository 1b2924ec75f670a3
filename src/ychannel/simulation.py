"""Two-phase link-level simulation of the alignment relaying scheme.

Uplink (MAC) phase: every source precodes its per-pair streams and
transmits; the relay compresses its observation and solves the aligned
basis for the stacked pairwise symbol sums.

Downlink (BC) phase: the relay precodes the network-coded vector so that
each user's receive filter lands exactly on the sums it participates in.
The downlink precoder comes from running the same alignment construction
on the transposed downlink channels; transposing that dual scheme turns
its compression matrix into the relay transmit precoder and its source
precoders into receive filters, and composing with the inverse dual basis
makes every filter output a clean selector of the wanted sums.
``prepare`` runs that dual construction in one batch with the uplink's.
The downlink path is certified per instance by residual and rank checks
and is kept isolated: uplink recovery never depends on it.

Noisy runs add AWGN at the relay and the users.  Every node sends total
power (K-1)x over unit-power streams and an SNR of snr_db puts that total
over unit noise, so the simulator and the zero-forcing rates behind the
DoF slope estimate share the per-stream noise (K-1)*x*10^(-snr_db/10).

``prepare`` keeps only what the channel realization fixes: both schemes,
the seed's symbol frame and ``stream_gains``.  ``simulate_grid`` runs a
seed's whole SNR grid in one call.  It forms the noiseless relay
observation and each user's wanted streams once per grid; each point then
adds its relay noise, makes one ``relay_decode`` solve and one ``bc_phase``,
filters all K users in one product and takes two error maxima.  Each point
re-keys the noise substream from the seed alone, so every point sees the
same normals scaled to its own variance and gives what a one-point grid
gives.  The draws come in a fixed order: the relay's real parts, then its
imaginary parts, then each user's.  ``simulate`` is the one-point grid, so
a loop of ``simulate`` calls redoes the SNR-free work at every point.

``mac_phase``, ``decode_user`` and ``cancel_self_interference`` are single
stages on the same stacks that ``simulate_grid`` does not call; the
benchmark's span table names them.
"""

from __future__ import annotations

import csv
import itertools
import numbers
from collections.abc import Mapping, Set
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from .alignment import (
    AlignmentScheme,
    assemble_scheme,
    assemble_schemes,
    message_order,
)
from .bounds import corner_points
from .channel import (
    LABEL_FRAME,
    LABEL_NOISE,
    ChannelSet,
    _box_muller,
    apply_extension_plan,
    plan_extension,
    sample_channels,
    substream,
)
from .config import SystemConfig, check_integer
from .errors import (
    BroadcastInfeasibleError,
    ConfigurationError,
    DecodabilityError,
    DegenerateChannelError,
    DimensionError,
    InfeasibleConfigurationError,
    StageError,
    YChannelError,
)

__all__ = [
    "SymbolFrame",
    "NetworkCodedVector",
    "BcScheme",
    "SimResult",
    "make_frame",
    "stack_network_coded",
    "mac_phase",
    "relay_decode",
    "build_bc_scheme",
    "bc_phase",
    "decode_user",
    "cancel_self_interference",
    "PreparedPipeline",
    "prepare",
    "simulate",
    "simulate_grid",
    "end_to_end",
    "pairwise_rates",
    "sum_rate_curve",
    "fit_slope",
    "estimate_dof_slope",
    "result_record",
    "write_records_csv",
    "CSV_COLUMNS",
]

# Noiseless relay/user recovery must be at least this accurate.
RECOVERY_TOL = 1e-6
# Residual ceiling for the downlink selector certification.
SELECTOR_TOL = 1e-8
# Largest |SNR| in dB: beyond it 10^(-snr/10) is 0 or overflows.
SNR_DB_MAX = 3000.0

CSV_COLUMNS = [
    "K",
    "M",
    "N",
    "beta",
    "t",
    "seed",
    "snr_db",
    "relay_err",
    "user_err",
    "sum_rate",
]


@dataclass(frozen=True)
class SymbolFrame:
    """One frame of symbols, the (K, K-1, x) stack user by partner: ``stack[i, k]`` is
    the stream s_ij that user i sends to its k-th partner j (k = j - (j > i))."""

    stack: np.ndarray

    @cached_property
    def streams(self) -> dict[tuple[int, int], np.ndarray]:
        """A view of the stack's rows keyed by ordered pair (i, j), in ``permutations`` order."""
        pairs = itertools.permutations(range(len(self.stack)), 2)
        return {(i, j): self.stack[i, j - (j > i)] for i, j in pairs}


@dataclass(frozen=True)
class NetworkCodedVector:
    """Stacked pairwise sums in the scheme's pair order."""

    entries: np.ndarray


def make_frame(scheme: AlignmentScheme, seed: int) -> SymbolFrame:
    """Draw a deterministic frame of unit-variance complex Gaussian symbols, read-only."""
    K, x = scheme.cfg.K, scheme.alloc.per_pair
    # user by partner, count radius uniforms then count angle uniforms: one stream in order
    uniforms = substream(seed, LABEL_FRAME).random((K * (K - 1), 2, x))
    stack = _box_muller(uniforms).reshape(K, K - 1, x)
    stack.setflags(write=False)
    return SymbolFrame(stack)


def _frame_stack(scheme: AlignmentScheme, frame: SymbolFrame) -> np.ndarray:
    """The frame's stack, refused unless it has the scheme's (K, K-1, x) shape."""
    need = (scheme.cfg.K, scheme.cfg.K - 1, scheme.alloc.per_pair)
    if np.shape(frame.stack) != need:
        raise DimensionError(f"frame stack has shape {np.shape(frame.stack)}, need {need}")
    return frame.stack


def stack_network_coded(scheme: AlignmentScheme, frame: SymbolFrame) -> NetworkCodedVector:
    """Stack s_ij + s_ji over the pairs i < j in pair order, the order of ``pair_blocks``."""
    s = _frame_stack(scheme, frame)[message_order(scheme.cfg.K)[1]]  # (i, j) then (j, i)
    return NetworkCodedVector(entries=(s[0::2] + s[1::2]).ravel())


def _stream_noise_var(scheme: AlignmentScheme, snr_db: float) -> float:
    """Per-stream noise variance at an SNR in dB: unit noise over each node's power (K-1)x."""
    _check_snr_grid([snr_db])
    return (scheme.cfg.K - 1) * scheme.alloc.per_pair * 10.0 ** (-snr_db / 10.0)


def _awgn(rng: np.random.Generator | None, shape: tuple[int, ...], noise_var: float) -> np.ndarray:
    """Complex AWGN per row of ``shape``: the row's real normals, then its imaginary ones."""
    real = isinstance(noise_var, numbers.Real) and not isinstance(noise_var, bool)
    if not (real and 0.0 <= noise_var < np.inf):  # NaN fails too
        raise ConfigurationError(f"noise variance must be a finite real >= 0, got {noise_var!r}")
    if noise_var == 0.0:
        return np.zeros(shape, dtype=complex)
    if rng is None:
        raise ConfigurationError("noisy runs need an explicit rng")
    normals = rng.standard_normal((*shape[:-1], 2, shape[-1]))
    return np.sqrt(noise_var / 2.0) * (normals[..., 0, :] + 1j * normals[..., 1, :])


def _uplink_sum(scheme: AlignmentScheme, ch: ChannelSet, streams: np.ndarray) -> np.ndarray:
    """Noiseless relay observation sum_i H_i sum_j V_ij s_ij, added from zeros in source
    and partner order (the order its bits depend on)."""
    products = (scheme.precoders @ streams[..., None])[..., 0]
    x = reduce(np.add, products.transpose(1, 0, 2), np.zeros(products.shape[::2], complex))
    return reduce(np.add, map(np.matmul, ch.uplink, x), np.zeros(scheme.cfg.N, complex))


def mac_phase(
    scheme: AlignmentScheme,
    ch: ChannelSet,
    frame: SymbolFrame,
    noise_var: float = 0.0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Superimpose all precoded uplink transmissions at the relay."""
    if ch.cfg != scheme.cfg:
        raise DimensionError(f"channel cfg {ch.cfg} does not match scheme cfg {scheme.cfg}")
    return _uplink_sum(scheme, ch, _frame_stack(scheme, frame)) + _awgn(rng, (ch.cfg.N,), noise_var)


def relay_decode(scheme: AlignmentScheme, y: np.ndarray) -> NetworkCodedVector:
    """Solve the aligned basis for the stacked pairwise sums."""
    N = scheme.cfg.N
    if np.shape(y) != (N,):
        raise DimensionError(f"relay observation shape {np.shape(y)} does not match N={N}")
    compressed = scheme.compression @ y
    try:
        entries = np.linalg.solve(scheme.aligned_basis, compressed)
    except np.linalg.LinAlgError as exc:
        raise DecodabilityError(f"aligned basis is singular: {exc}") from exc
    return NetworkCodedVector(entries=entries)


@dataclass(frozen=True)
class BcScheme:
    """Downlink precoder, per-user receive filters and certification.

    ``relay_precoder`` maps the network-coded vector to relay antennas and
    is scaled so the relay sends total power (K-1)x, the same as each
    source, when every sum entry has variance 2.  ``filters`` is the
    read-only (K, K-1, x, M) stack, user by partner: ``filters[i, k]``
    recovers user i's pair block with its k-th partner j (k = j - (j > i)).
    Each filter is column major, as the construction forms it; a row-major
    copy changes the bits of its products.
    """

    relay_precoder: np.ndarray
    filters: np.ndarray
    selector_residual: float
    dual_basis_condition: float


def _dual_channels(ch: ChannelSet) -> ChannelSet:
    """The dual channel set: the transposed downlink is its uplink, and vice versa."""
    return ChannelSet(ch.cfg, ch.seed, ch.downlink.transpose(0, 2, 1), ch.uplink.transpose(0, 2, 1))


@lru_cache(maxsize=64)
def _selector_targets(K: int, x: int) -> np.ndarray:
    """The read-only pair block each filter selects, (K, K-1, x, rows) user by partner."""
    messages, sent, _ = message_order(K)
    rows = len(messages) * x // 2
    want = np.empty((K, K - 1, x, rows))
    want[sent] = np.eye(rows).reshape(-1, x, rows).repeat(2, axis=0)  # both messages of a pair
    want.setflags(write=False)
    return want


def _bc_from_dual(scheme: AlignmentScheme, ch: ChannelSet, dual: AlignmentScheme) -> BcScheme:
    """Relay precoder, receive filters and selector check from the built dual scheme."""
    cfg = scheme.cfg
    # Transposing the dual alignment identity turns its compression matrix
    # into a transmit precoder; composing with the inverse dual basis makes
    # each user filter output the wanted pair block of the input.
    precoder = np.linalg.solve(dual.aligned_basis, dual.compression).T
    # sum entries have variance 2: send total power (K-1)x, as each source does
    per_node = (cfg.K - 1) * scheme.alloc.per_pair
    gamma = np.sqrt(per_node / (2.0 * np.linalg.norm(precoder, "fro") ** 2))
    precoder *= gamma
    # filter (user, partner) must select the pair's block of the sum vector.  The dual's
    # precoders come user by partner, K x (K-1), so one product forms all K(K-1)
    # selectors and each user's downlink is broadcast, not copied.
    K, x = cfg.K, scheme.alloc.per_pair
    filters = dual.precoders.transpose(0, 1, 3, 2) / gamma
    filters.setflags(write=False)
    selectors = filters @ ch.downlink[:, None] @ precoder
    residual = float(np.abs(selectors - _selector_targets(K, x)).max())  # keeps a NaN
    if not residual <= SELECTOR_TOL:
        raise BroadcastInfeasibleError(
            f"downlink selector residual {residual:.3e} exceeds {SELECTOR_TOL:.1e}"
        )
    precoder.setflags(write=False)
    return BcScheme(
        relay_precoder=precoder,
        filters=filters,
        selector_residual=residual,
        dual_basis_condition=dual.basis_condition,
    )


def build_bc_scheme(scheme: AlignmentScheme, ch: ChannelSet) -> BcScheme:
    """Dual alignment construction on the transposed downlink channels."""
    if ch.cfg != scheme.cfg:
        raise DimensionError(f"channel cfg {ch.cfg} does not match scheme cfg {scheme.cfg}")
    try:
        dual = assemble_scheme(_dual_channels(ch), scheme.alloc, scheme.beta)
    except YChannelError as exc:
        raise BroadcastInfeasibleError(f"dual construction failed: {exc}") from exc
    return _bc_from_dual(scheme, ch, dual)


def bc_phase(
    bc: BcScheme,
    ch: ChannelSet,
    s_plus: NetworkCodedVector,
    noise_var: float = 0.0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Broadcast the network-coded vector; row i is user i's raw reception."""
    K, N = ch.cfg.K, ch.cfg.N
    if (bc.relay_precoder.shape[0], len(bc.filters), bc.filters.shape[-1]) != (N, K, ch.cfg.M):
        raise DimensionError(f"channel cfg {ch.cfg} does not match the downlink scheme")
    if np.shape(s_plus.entries) != bc.relay_precoder.shape[1:]:
        raise DimensionError(
            f"sum vector shape {np.shape(s_plus.entries)} does not match the relay "
            f"precoder's {bc.relay_precoder.shape[1]} columns"
        )
    x = bc.relay_precoder @ s_plus.entries
    return ch.downlink @ x + _awgn(rng, (K, ch.cfg.M), noise_var)


def _check_user(user: int, K: int) -> None:
    if isinstance(user, bool) or not isinstance(user, numbers.Integral) or not 0 <= user < K:
        raise DimensionError(f"user {user} is not one of the K={K} users")


def decode_user(scheme: AlignmentScheme, bc: BcScheme, user: int, y: np.ndarray) -> np.ndarray:
    """Filter a user's reception into its (K-1, x) sums s_ij + s_ji, row k its k-th partner's."""
    K, M = scheme.cfg.K, scheme.cfg.M
    _check_user(user, K)
    if np.shape(y) != (M,):
        raise DimensionError(f"reception shape {np.shape(y)} does not match M={M}")
    return bc.filters[user] @ y


def cancel_self_interference(frame: SymbolFrame, user: int, decoded: np.ndarray) -> np.ndarray:
    """``decode_user``'s blocks less the user's own symbols: row k is its k-th partner's s_ji."""
    _check_user(user, len(frame.stack))
    if np.shape(decoded) != frame.stack.shape[1:]:
        raise DimensionError(f"decoded shape {np.shape(decoded)} is not {frame.stack.shape[1:]}")
    return decoded - frame.stack[user]


@dataclass(frozen=True)
class SimResult:
    """Outcome of one end-to-end run."""

    cfg: SystemConfig
    beta: int
    t: int
    seed: int
    snr_db: float | None
    relay_recovery_error: float
    user_recovery_error: float | None
    bc_failure: str | None
    sum_rate: float | None
    rates: dict[tuple[int, int], float] | None


@contextmanager
def _stage(name: str):
    # tags domain errors with the pipeline stage they came from
    try:
        yield
    except YChannelError as exc:
        raise StageError(name, exc) from exc


@dataclass(frozen=True)
class PreparedPipeline:
    """What one channel realization fixes; noise plays no part in it.

    ``ch`` is the planned channel set and ``scheme`` the certified uplink
    scheme on it; ``bc`` is the certified downlink scheme, or None with the
    dual construction's failure text in ``bc_failure``.  Every array is
    read-only: a filter written after ``prepare`` would make the simulated
    errors disagree with the cached ``stream_gains``.
    """

    cfg: SystemConfig
    beta: int
    seed: int
    t: int
    ch: ChannelSet
    scheme: AlignmentScheme
    bc: BcScheme | None
    bc_failure: str | None

    @cached_property
    def frame(self) -> tuple[SymbolFrame, NetworkCodedVector]:
        """The seed's symbol frame and its stacked pairwise sums, drawn once: no SNR enters."""
        frame = make_frame(self.scheme, self.seed)
        truth = stack_network_coded(self.scheme, frame)
        truth.entries.setflags(write=False)
        return frame, truth

    @cached_property
    def stream_gains(self) -> np.ndarray:
        """SNR-free noise enhancement of every stream on the weaker hop, (K(K-1), x).

        Row k holds the streams of the k-th message (src, user) in message order:
        (i, j) then (j, i) for each scheme pair i < j, the order of
        ``pairwise_rates``.  Both hops zero-force, so the per-stream noise
        sigma2 that ``simulate`` adds reaches a sum entry (power 2) at the relay
        scaled by ||solver row||^2 and a partner stream (power 1) at its user by
        ||filter row||^2.  The gain max(||solver row||^2 / 2, ||filter row||^2)
        gives the SINR 1/(sigma2 gain).  Needs ``bc``.
        """
        if self.bc is None:
            raise BroadcastInfeasibleError(self.bc_failure)
        scheme = self.scheme
        solver = np.linalg.solve(scheme.aligned_basis, scheme.compression)
        mac_gain = np.linalg.norm(solver, axis=1) ** 2 / 2.0
        # both messages of a pair travel as the same block of sums
        mac_gain = np.repeat(mac_gain.reshape(-1, scheme.alloc.per_pair), 2, axis=0)
        bc_gain = np.linalg.norm(self.bc.filters[message_order(scheme.cfg.K)[2]], axis=2) ** 2
        gains = np.maximum(mac_gain, bc_gain)
        gains.setflags(write=False)
        return gains


def prepare(cfg: SystemConfig, beta: int, seed: int) -> PreparedPipeline:
    """Plan the extension, sample, and build both certified schemes in one batched pass.

    The uplink scheme on ``ch`` and the dual on its transposed downlink share
    every construction stage (``assemble_schemes``).  If the batch fails, the
    uplink is rebuilt alone and ``build_bc_scheme`` rebuilds the dual, so
    each failure is the one its own construction gives; a downlink failure
    is recorded in ``bc_failure``.

    Synthesis errors are tagged ``"synthesis"`` and downlink errors other
    than ``BroadcastInfeasibleError`` are tagged ``"bc"``.  A rank loss under a
    symbol extension (t > 1) is structural: ``InfeasibleConfigurationError``.
    """
    with _stage("synthesis"):
        beta = check_integer(beta, "beta")
        target = next((c for c in corner_points(cfg.K) if c.beta == beta), None)
        if target is None:
            raise ConfigurationError(f"beta={beta} has no corner for K={cfg.K}")
        plan = plan_extension(cfg, target)
        ch = apply_extension_plan(sample_channels(cfg, seed), plan)
        try:
            try:
                scheme, dual = assemble_schemes((ch, _dual_channels(ch)), beta)
            except YChannelError:
                scheme, dual = assemble_schemes((ch,), beta)[0], None
        except DegenerateChannelError as exc:
            if plan.t == 1:
                raise
            raise InfeasibleConfigurationError(
                f"the t={plan.t} {plan.side}-side extension to effective (M, N) = "
                f"({plan.effective_M}, {plan.effective_N}) loses rank structurally "
                f"({type(exc).__name__})"
            ) from exc
    bc, bc_failure = None, None
    with _stage("bc"):
        try:
            bc = build_bc_scheme(scheme, ch) if dual is None else _bc_from_dual(scheme, ch, dual)
        except BroadcastInfeasibleError as exc:
            bc_failure = str(exc)
    return PreparedPipeline(cfg, beta, ch.seed, plan.t, ch, scheme, bc, bc_failure)


def simulate_grid(prep: PreparedPipeline, snr_grid_db: list[float | None]) -> list[SimResult]:
    """Transmit both phases of a prepared pipeline at each SNR in dB; None is noiseless.

    Every point, checked before any work, must lie in [-SNR_DB_MAX, SNR_DB_MAX] dB.  Each
    draws a fresh noise substream, so it gives what a one-point grid gives, and adds AWGN of
    the variance ``pairwise_rates`` assumes at the relay and the users.  Noiseless points
    must recover every sum at the relay and every partner stream at the users to within
    ``RECOVERY_TOL``.  A downlink failure is recorded in ``bc_failure``, not raised.
    """
    _check_sequence(snr_grid_db, "the SNR grid")
    _check_snr_grid([snr for snr in snr_grid_db if snr is not None])  # None is noiseless
    scheme, seed, bc = prep.scheme, prep.seed, prep.bc
    (frame, truth), (_, sent, received) = prep.frame, message_order(prep.cfg.K)
    observation = _uplink_sum(scheme, prep.ch, frame.stack)  # noiseless, for every point
    wanted = np.empty_like(frame.stack)  # entry (i, k): the stream s_ji user i wants from j
    wanted[received] = frame.stack[sent]
    results = []
    for snr_db in snr_grid_db:
        sigma2 = 0.0 if snr_db is None else _stream_noise_var(scheme, snr_db)
        rng = substream(seed, LABEL_NOISE)
        with _stage("mac"):
            y = observation + _awgn(rng, (scheme.cfg.N,), sigma2)
        with _stage("relay_decode"):
            decoded = relay_decode(scheme, y)
            relay_err = float(np.abs(decoded.entries - truth.entries).max())
        user_err = rates = total = None
        if bc is not None:
            with _stage("bc"):
                signals = bc_phase(bc, prep.ch, decoded, sigma2, rng)
                estimates = (bc.filters @ signals[:, None, :, None])[..., 0] - frame.stack
                user_err = float(np.abs(estimates - wanted).max())
            if snr_db is not None:
                rates = pairwise_rates(prep, snr_db)
                total = float(sum(rates.values()))
        results.append(SimResult(
            cfg=prep.cfg, beta=prep.beta, t=prep.t, seed=seed, snr_db=snr_db,
            relay_recovery_error=relay_err, user_recovery_error=user_err,
            bc_failure=prep.bc_failure, sum_rate=total, rates=rates,
        ))
    return results


def simulate(prep: PreparedPipeline, *, snr_db: float | None = None) -> SimResult:
    """``simulate_grid`` at one SNR in dB, None for noiseless."""
    return simulate_grid(prep, [snr_db])[0]


def end_to_end(
    cfg: SystemConfig, beta: int, seed: int, *, snr_db: float | None = None
) -> SimResult:
    """Full pipeline at one SNR in dB, None for noiseless: ``prepare`` then ``simulate``."""
    return simulate(prepare(cfg, beta, seed), snr_db=snr_db)


def _check_sequence(values, what: str) -> int:
    """The number of points in ``values``, refused without a length (a bare number) or an
    order (a set or a mapping)."""
    try:
        if isinstance(values, (Set, Mapping)):
            raise TypeError
        return len(values)
    except TypeError:
        raise ConfigurationError(f"{what} must be a sequence, got {values!r}") from None


def _check_snr_grid(snr_grid_db: list[float]) -> None:
    """Reject anything but a sequence of reals (not bools) in [-SNR_DB_MAX, SNR_DB_MAX] dB."""
    _check_sequence(snr_grid_db, "the SNR grid")
    for snr in snr_grid_db:
        number = isinstance(snr, numbers.Real) and not isinstance(snr, bool)
        if not (number and abs(snr) <= SNR_DB_MAX):
            raise ConfigurationError(
                f"SNR points must lie in [-{SNR_DB_MAX:g}, {SNR_DB_MAX:g}] dB, got {snr}"
            )


def pairwise_rates(prep: PreparedPipeline, snr_db: float) -> dict[tuple[int, int], float]:
    """Rate of every ordered message at one SNR: log2(1 + SINR), SINR from ``stream_gains``."""
    sigma2 = _stream_noise_var(prep.scheme, snr_db)
    rates = np.log2(1.0 + 1.0 / (sigma2 * prep.stream_gains)).sum(axis=1)
    return dict(zip(message_order(prep.cfg.K)[0], rates.tolist()))


def sum_rate_curve(
    cfg: SystemConfig, beta: int, seeds: list[int], snr_grid_db: list[float]
) -> np.ndarray:
    """Mean sum rate per SNR point, averaged over seeds."""
    _check_snr_grid(snr_grid_db)
    if _check_sequence(seeds, "seeds") == 0 or len(snr_grid_db) == 0:
        raise ConfigurationError("need at least one seed and one SNR point")
    curves = []
    for seed in seeds:
        prep = prepare(cfg, beta, seed)
        if prep.bc is None:
            raise BroadcastInfeasibleError(f"no rate available at seed {seed}: {prep.bc_failure}")
        curves.append([sum(pairwise_rates(prep, snr).values()) for snr in snr_grid_db])
    return np.mean(curves, axis=0)


def _check_fit_grid(snr_grid_db: list[float]) -> None:
    _check_snr_grid(snr_grid_db)
    if len(set(snr_grid_db)) < 2:
        raise ConfigurationError("slope fit needs at least 2 distinct SNR points")


def fit_slope(snr_grid_db: list[float], sum_rates: np.ndarray) -> float:
    """Least-squares slope of sum rate versus log2 of the linear SNR: one finite rate per point."""
    _check_fit_grid(snr_grid_db)
    try:
        rates = np.asarray(sum_rates)  # a string, complex, bool or object array is not real
        real = rates.dtype.kind in "iuf" and rates.shape == (len(snr_grid_db),)
    except ValueError:  # ragged
        real = False
    if not (real and np.isfinite(rates).all()):
        raise ConfigurationError(
            f"slope fit needs one finite sum rate per SNR point, real numbers, got {sum_rates!r}"
        )
    x = np.asarray(snr_grid_db, dtype=float) * (np.log2(10.0) / 10.0)
    return float(np.polyfit(x, rates.astype(float), 1)[0])


def estimate_dof_slope(
    cfg: SystemConfig, beta: int, seeds: list[int], snr_grid_db: list[float]
) -> float:
    """Fitted sum-rate slope in DoF units; approaches the stream total."""
    _check_fit_grid(snr_grid_db)  # before any seed is prepared
    curve = sum_rate_curve(cfg, beta, seeds, snr_grid_db)
    return fit_slope(snr_grid_db, curve)


def result_record(result: SimResult) -> dict:
    """Flatten a result into the ``CSV_COLUMNS`` values, in order; None becomes ""."""
    values = (
        result.cfg.K, result.cfg.M, result.cfg.N, result.beta, result.t, result.seed,
        result.snr_db, result.relay_recovery_error, result.user_recovery_error, result.sum_rate,
    )
    return {name: "" if v is None else v for name, v in zip(CSV_COLUMNS, values, strict=True)}


def write_records_csv(records: list[dict], fh) -> None:
    """Write records in the documented column order, LF line endings."""
    writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for rec in records:
        writer.writerow(rec)
