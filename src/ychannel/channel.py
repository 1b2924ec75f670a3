"""Seeded channel sampling and extension plans.

Sampling is reproducible across platforms: every matrix gets its own
Philox substream keyed by (seed, direction, node index), and normal
variates come from a Box-Muller transform of the stream's uniforms.
Philox is counter based, so the substreams are independent by key and the
byte stream is stable across library versions.  That also lets a sampled
set draw its downlink only when something reads it, so the uplink-only path
(scheme construction, verification, MAC phase and relay decode) never pays
for the K relay-to-source matrices.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .bounds import CornerPoint
from .config import SystemConfig, check_integer
from .errors import (
    ConfigurationError,
    DimensionError,
    InfeasibleConfigurationError,
)

__all__ = [
    "ChannelSet",
    "ExtensionPlan",
    "sample_channels",
    "plan_extension",
    "apply_extension_plan",
    "check_seed",
    "substream",
]

# Substream labels; frame/noise labels live here so all RNG keying is in one place.
LABEL_UPLINK = 0
LABEL_DOWNLINK = 1
LABEL_MIXER = 2
LABEL_FRAME = 3
LABEL_NOISE = 4

# Largest symbol-extension factor ``plan_extension`` plans.
MAX_EXTENSION = 64


def check_seed(seed: int) -> int:
    """A seed fills the low 64 Philox key bits: an integer in [0, 2^64), returned as an int.

    NumPy integers are accepted; a bool, a float or a string is not a seed.
    """
    value = check_integer(seed, "seed")
    if not 0 <= value < 1 << 64:
        raise ConfigurationError(f"seed must be in [0, 2^64), got {value}")
    return value


def _key(seed: int, label: int, index: int) -> int:
    """The 128-bit Philox key of one (seed, label, index) triple.

    The seed fills the low 64 bits, the index the next 32 and the label the
    top 32; a label or index outside [0, 2^32) would alias another triple.
    """
    label, index = operator.index(label), operator.index(index)
    if not (0 <= label < 1 << 32 and 0 <= index < 1 << 32):
        raise ConfigurationError(
            f"substream label and index must be in [0, 2^32), got {label} and {index}"
        )
    return check_seed(seed) | (label << 96) | (index << 64)


def substream(seed: int, label: int, index: int = 0) -> np.random.Generator:
    """Independent generator for one (seed, label, index) triple."""
    return np.random.Generator(np.random.Philox(key=_key(seed, label, index)))


def _box_muller(uniforms: np.ndarray) -> np.ndarray:
    """(rows, n) complex Gaussians from (rows, 2, n) uniforms, overwritten on the way.

    Row r takes radii from ``uniforms[r, 0]`` and angles from ``uniforms[r, 1]``
    and matches ``(radius*cos(angle) + 1j*radius*sin(angle)) / sqrt(2)`` bit
    for bit without its complex temporaries: numpy divides by sqrt(2) + 0j as
    a multiply by 1/sqrt(2), and adding 0.0 turns the -0.0 that a zero radius
    leaves into the +0.0 that the complex expression gives.
    """
    radius, angle = uniforms[:, 0], uniforms[:, 1]
    np.subtract(1.0, radius, out=radius)  # in (0, 1], keeps the log finite
    np.log(radius, out=radius)
    np.multiply(radius, -2.0, out=radius)
    np.sqrt(radius, out=radius)
    np.multiply(angle, 2.0 * np.pi, out=angle)
    scale = 1.0 / np.sqrt(2.0)
    out = np.empty(radius.shape, dtype=complex)
    re, im = out.real, out.imag
    np.sin(angle, out=im)
    np.cos(angle, out=angle)
    np.multiply(angle, radius, out=re)
    np.multiply(im, radius, out=im)
    np.multiply(re, scale, out=re)
    np.multiply(im, scale, out=im)
    out += 0.0
    return out


def _gaussian_rows(seed: int, keys: list[tuple[int, int]], n: int) -> np.ndarray:
    """A (len(keys), n) array of complex Gaussians, one row per (label, index) key.

    Row r takes n radius uniforms, then n angle uniforms, from
    ``substream(seed, *keys[r])``, but one Philox serves every row: it is
    re-keyed per row into the state that ``Philox(key=...)`` starts in:
    counter 0 and an empty buffer.  That skips the seed sequence every new
    bit generator builds.
    """
    uniforms = np.empty((len(keys), 2, n))
    rng = np.random.Generator(np.random.Philox(key=0))
    fresh = rng.bit_generator.state
    for row, (label, index) in zip(uniforms, keys):
        high, low = divmod(_key(seed, label, index), 1 << 64)
        fresh["state"]["key"] = np.array([low, high], dtype=np.uint64)
        rng.bit_generator.state = fresh
        rng.random(out=row)
    return _box_muller(uniforms)


def _freeze(m: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(m)
    out.setflags(write=False)
    return out


def _spectral_norms(stack: np.ndarray) -> np.ndarray:
    """||A||_2 of every matrix A of a (..., rows, cols) stack: the SVD's value to a few ulps.

    The root of the top eigenvalue of the smaller Gram matrix, A^H A or A A^H,
    clamped at 0 for the -0 or tiny negative one of an all-zero or underflowing
    A.  NaN where the Gram matrix is not finite (a NaN or infinite entry, or
    entries past about 1e154); nothing raises.
    """
    adjoint = stack.conj().swapaxes(-1, -2)
    gram = adjoint @ stack if stack.shape[-1] <= stack.shape[-2] else stack @ adjoint
    bad = ~np.isfinite(gram).all(axis=(-2, -1))
    gram[bad] = 0.0  # eigvalsh raises on a non-finite matrix
    return np.where(bad, np.nan, np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0)))


def _draw_stack(seed: int, label: int, K: int, rows: int, cols: int) -> np.ndarray:
    """The read-only (K, rows, cols) stack of one direction's K matrices, in one pass."""
    draws = _gaussian_rows(seed, [(label, i) for i in range(K)], rows * cols)
    return _freeze(draws.reshape(K, rows, cols))


class _DrawnOnFirstRead:
    """The ``ChannelSet.downlink`` field: kept as given, or drawn from the seed on first read.

    A frozen dataclass sets its fields with ``object.__setattr__``, which
    reaches ``__set__``; plain assignment still raises ``FrozenInstanceError``.
    """

    def __get__(self, ch: ChannelSet | None, owner: type | None = None) -> np.ndarray | None:
        if ch is None:
            return None  # the field's default: draw on first read
        try:
            return vars(ch)["downlink"]
        except KeyError:
            K, M, N = ch.cfg.K, ch.cfg.M, ch.cfg.N
            return vars(ch).setdefault("downlink", _draw_stack(ch.seed, LABEL_DOWNLINK, K, M, N))

    def __set__(self, ch: ChannelSet, downlink: np.ndarray | None) -> None:
        if downlink is not None:
            vars(ch)["downlink"] = downlink


@dataclass(frozen=True)
class ChannelSet:
    """One realization of all uplink and downlink channel matrices.

    ``uplink`` is the (K, N, M) stack whose ``uplink[i]`` is the matrix from
    source i to the relay, and ``downlink`` the (K, M, N) stack whose
    ``downlink[i]`` is the matrix from the relay to source i.  A downlink
    given to the constructor is kept as given.  Without one (``None``, as
    ``sample_channels`` builds it), the first read of ``downlink`` draws the
    K matrices of substreams ``(seed, LABEL_DOWNLINK, i)``, and every read
    returns that one stack.  Immutable once created; the arrays are
    write-locked.
    """

    cfg: SystemConfig
    seed: int
    uplink: np.ndarray
    downlink: np.ndarray | None = _DrawnOnFirstRead()

    @cached_property
    def uplink_norms(self) -> np.ndarray:
        """Spectral norm ||H_g||_2 of every uplink matrix by Gram eigenvalue, NaN if not finite."""
        norms = _spectral_norms(self.uplink)
        norms.setflags(write=False)
        return norms


def sample_channels(cfg: SystemConfig, seed: int) -> ChannelSet:
    """Draw an i.i.d. unit-variance complex Gaussian channel realization.

    Deterministic given (cfg, seed).  Only the K uplink matrices are drawn
    here; the set draws its K downlink matrices on the first read of
    ``downlink``, with the bytes a draw here would give.  Every entry is
    finite, and every matrix has full rank with probability 1; a
    rank-deficient channel set is rejected by the scheme construction.
    """
    seed = check_seed(seed)
    uplink = _draw_stack(seed, LABEL_UPLINK, cfg.K, cfg.N, cfg.M)
    return ChannelSet(cfg=cfg, seed=seed, uplink=uplink)


@dataclass(frozen=True)
class ExtensionPlan:
    """How to reach a target corner ratio from a given configuration.

    ``t`` is the symbol-extension factor; ``effective_M`` and ``effective_N``
    are the antenna counts to keep, expressed in the t-extended system.
    ``side`` records which end gives up antennas: "relay" above the corner,
    "source" below it, and "none" exactly at it, where t == 1 and the
    effective counts are the original ones.
    """

    t: int
    effective_M: int
    effective_N: int
    side: str


def plan_extension(cfg: SystemConfig, target: CornerPoint) -> ExtensionPlan:
    """Smallest extension factor and deactivation hitting the target ratio.

    Above the corner the relay gives up antennas; below it the sources do.
    When the required count is a fraction s/t in lowest terms, the system
    is first extended by t so that s antennas of the extended block
    realize the exact ratio.  A factor above ``MAX_EXTENSION`` raises.
    """
    alpha = target.abscissa
    if cfg.ratio >= alpha:
        keep = alpha * cfg.M  # relay antennas to keep, possibly fractional
        t = keep.denominator
        m_eff = t * cfg.M
        n_eff = int(keep * t)
        side = "none" if n_eff == t * cfg.N else "relay"
    else:
        keep = Fraction(cfg.N) / alpha  # source antennas to keep
        t = keep.denominator
        m_eff = int(keep * t)
        n_eff = t * cfg.N
        side = "source"
    if t > MAX_EXTENSION:
        raise InfeasibleConfigurationError(
            f"reaching ratio {alpha} needs a {t}-symbol extension, above the cap "
            f"{MAX_EXTENSION}",
            inequality="t <= MAX_EXTENSION",
        )
    return ExtensionPlan(t=t, effective_M=m_eff, effective_N=n_eff, side=side)


def _random_unitaries(seed: int, indices: range, n: int) -> np.ndarray:
    """One n x n Q factor per mixer index, from one batched QR."""
    draws = _gaussian_rows(seed, [(LABEL_MIXER, i) for i in indices], n * n)
    q, _ = np.linalg.qr(draws.reshape(-1, n, n))
    return q


def apply_extension_plan(ch: ChannelSet, plan: ExtensionPlan) -> ChannelSet:
    """Realize an extension plan on a sampled channel set: lift, rotate, truncate.

    For t > 1 every matrix is lifted to its t-fold block diagonal (the
    channel is quasi-static, so all t blocks repeat the realization) and the
    deactivated side applies a seeded random orthonormal basis change of its
    extended antenna space.  Every matrix is then truncated to the effective
    counts, which for t == 1 is plain prefix deactivation.  Per-slot antenna
    subsets would confine every aligned-subspace row to a few coordinates of
    the block-diagonal channel and provably collapse the compression matrix
    rank, whereas truncation in a generic rotated basis keeps exactly
    effective_M/effective_N usable dimensions, which is all the DoF
    argument needs.
    """
    K, M, N = ch.cfg.K, ch.cfg.M, ch.cfg.N
    fields = ("t", "effective_M", "effective_N")
    t, m_eff, n_eff = (check_integer(getattr(plan, name), f"plan {name}") for name in fields)
    if not (t >= 1 and 1 <= m_eff <= t * M and 1 <= n_eff <= t * N):
        raise DimensionError(
            f"extension plan t={t}, effective (M, N) = ({m_eff}, {n_eff}) needs "
            f"t >= 1, 1 <= M <= t*{M} and 1 <= N <= t*{N}"
        )
    if t > 1 and plan.side not in ("relay", "source"):
        raise DimensionError(f"a t={t} extension needs side 'relay' or 'source', got {plan.side!r}")
    uplink, downlink = ch.uplink, ch.downlink
    if t > 1:
        # kron(eye(t), A) of every stacked A in one broadcast product, entry for entry
        eye = np.eye(t)[:, None, :, None]
        uplink = (eye * uplink[:, None, :, None]).reshape(K, t * N, t * M)
        downlink = (eye * downlink[:, None, :, None]).reshape(K, t * M, t * N)
        if plan.side == "relay":
            (mixer,) = _random_unitaries(ch.seed, range(1), t * N)
            uplink = mixer @ uplink
            downlink = downlink @ mixer.conj().T
        else:
            mixers = _random_unitaries(ch.seed, range(1, K + 1), t * M)
            uplink = uplink @ mixers.conj().transpose(0, 2, 1)
            downlink = mixers @ downlink
    uplink, downlink = _freeze(uplink[:, :n_eff, :m_eff]), _freeze(downlink[:, :m_eff, :n_eff])
    return ChannelSet(SystemConfig(K, m_eff, n_eff), ch.seed, uplink, downlink)
