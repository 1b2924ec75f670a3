"""Seeded channel sampling and extension plans.

Sampling is reproducible across platforms: every matrix gets its own
Philox substream keyed by (seed, direction, node index), and normal
variates come from a Box-Muller transform of the stream's uniforms.
Philox is counter based, so the substreams are independent by key and the
byte stream is stable across library versions.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .bounds import CornerPoint
from .config import SystemConfig
from .errors import (
    ConfigurationError,
    DimensionError,
    InfeasibleConfigurationError,
)
from .serialization import complex_matrix_from_pairs, complex_matrix_to_pairs, stored_entries

__all__ = [
    "ChannelSet",
    "ExtensionPlan",
    "sample_channels",
    "plan_extension",
    "apply_extension_plan",
    "channel_to_dict",
    "channel_from_dict",
    "check_seed",
    "substream",
    "complex_gaussian",
]

# Substream labels; frame/noise labels live here so all RNG keying is in one place.
LABEL_UPLINK = 0
LABEL_DOWNLINK = 1
LABEL_MIXER = 2
LABEL_FRAME = 3
LABEL_NOISE = 4


def check_seed(seed: int) -> int:
    """A seed fills the low 64 Philox key bits: an integer in [0, 2^64), returned as an int.

    NumPy integers are accepted; a bool, a float or a string is not a seed.
    """
    try:
        if isinstance(seed, bool):
            raise TypeError
        value = operator.index(seed)
    except TypeError:
        raise ConfigurationError(f"seed must be an integer, got {seed!r}") from None
    if not 0 <= value < 1 << 64:
        raise ConfigurationError(f"seed must be in [0, 2^64), got {value}")
    return value


def substream(seed: int, label: int, index: int = 0) -> np.random.Generator:
    """Independent generator for one (seed, label, index) triple."""
    key = check_seed(seed) | (((label << 32) | index) << 64)
    return np.random.Generator(np.random.Philox(key=key))


def complex_gaussian(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Unit-variance circularly-symmetric complex Gaussian samples.

    Entries are (x + iy)/sqrt(2) with x, y standard normal, produced by a
    Box-Muller transform of the generator's uniforms so the mapping from
    raw stream to samples is fully specified.
    """
    u1 = 1.0 - rng.random(shape)  # in (0, 1], keeps the log finite
    u2 = rng.random(shape)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    return (radius * np.cos(angle) + 1j * radius * np.sin(angle)) / np.sqrt(2.0)


def _freeze(m: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(m)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ChannelSet:
    """One realization of all uplink and downlink channel matrices.

    ``uplink[i]`` is the N x M matrix from source i to the relay and
    ``downlink[i]`` the M x N matrix from the relay to source i.
    Immutable once created; the arrays are write-locked.
    """

    cfg: SystemConfig
    seed: int
    uplink: tuple[np.ndarray, ...]
    downlink: tuple[np.ndarray, ...]

    @cached_property
    def uplink_norms(self) -> np.ndarray:
        """Spectral norm ||H_g||_2 of every uplink matrix, from one batched SVD."""
        norms = np.linalg.norm(np.stack(self.uplink), 2, axis=(1, 2))
        norms.setflags(write=False)
        return norms


def sample_channels(cfg: SystemConfig, seed: int) -> ChannelSet:
    """Draw an i.i.d. unit-variance complex Gaussian channel realization.

    Deterministic given (cfg, seed).  Every entry is finite, and every
    matrix has full rank with probability 1; a rank-deficient channel set
    (say, a loaded fixture) is rejected by the scheme construction.
    """
    seed = check_seed(seed)
    uplink = []
    downlink = []
    for i in range(cfg.K):
        h = complex_gaussian(substream(seed, LABEL_UPLINK, i), (cfg.N, cfg.M))
        g = complex_gaussian(substream(seed, LABEL_DOWNLINK, i), (cfg.M, cfg.N))
        uplink.append(_freeze(h))
        downlink.append(_freeze(g))
    return ChannelSet(cfg=cfg, seed=seed, uplink=tuple(uplink), downlink=tuple(downlink))


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


def plan_extension(
    cfg: SystemConfig, target: CornerPoint, max_extension: int = 64
) -> ExtensionPlan:
    """Smallest extension factor and deactivation hitting the target ratio.

    Above the corner the relay gives up antennas; below it the sources do.
    When the required count is a fraction s/t in lowest terms, the system
    is first extended by t so that s antennas of the extended block
    realize the exact ratio.
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
    if t > max_extension:
        raise InfeasibleConfigurationError(
            f"reaching ratio {alpha} needs a {t}-symbol extension, above the cap "
            f"{max_extension}",
            inequality="t <= max_extension",
        )
    return ExtensionPlan(t=t, effective_M=m_eff, effective_N=n_eff, side=side)


def _random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, _ = np.linalg.qr(complex_gaussian(rng, (n, n)))
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
    t, m_eff, n_eff = plan.t, plan.effective_M, plan.effective_N
    if not (t >= 1 and 1 <= m_eff <= t * M and 1 <= n_eff <= t * N):
        raise DimensionError(
            f"extension plan t={t}, effective (M, N) = ({m_eff}, {n_eff}) needs "
            f"t >= 1, 1 <= M <= t*{M} and 1 <= N <= t*{N}"
        )
    uplink, downlink = ch.uplink, ch.downlink
    if t > 1:
        eye = np.eye(t)
        uplink = [np.kron(eye, h) for h in uplink]
        downlink = [np.kron(eye, g) for g in downlink]
        if plan.side == "relay":
            mixer = _random_unitary(substream(ch.seed, LABEL_MIXER, 0), t * N)
            uplink = [mixer @ h for h in uplink]
            downlink = [g @ mixer.conj().T for g in downlink]
        else:
            for i in range(K):
                mixer = _random_unitary(substream(ch.seed, LABEL_MIXER, i + 1), t * M)
                uplink[i] = uplink[i] @ mixer.conj().T
                downlink[i] = mixer @ downlink[i]
    uplink = tuple(_freeze(h[:n_eff, :m_eff]) for h in uplink)
    downlink = tuple(_freeze(g[:m_eff, :n_eff]) for g in downlink)
    return ChannelSet(SystemConfig(K, m_eff, n_eff), ch.seed, uplink, downlink)


def channel_to_dict(ch: ChannelSet) -> dict:
    """JSON-ready fixture representation (row-major [re, im] entries)."""
    return {
        "cfg": {"K": ch.cfg.K, "M": ch.cfg.M, "N": ch.cfg.N},
        "seed": ch.seed,
        "uplink": [complex_matrix_to_pairs(h) for h in ch.uplink],
        "downlink": [complex_matrix_to_pairs(g) for g in ch.downlink],
    }


def channel_from_dict(data: dict) -> ChannelSet:
    with stored_entries("channel fixture"):
        cfg = SystemConfig(data["cfg"]["K"], data["cfg"]["M"], data["cfg"]["N"])
        seed = data["seed"]
        uplink, downlink = data["uplink"], data["downlink"]
    seed = check_seed(seed)
    uplink = tuple(_freeze(complex_matrix_from_pairs(m)) for m in uplink)
    downlink = tuple(_freeze(complex_matrix_from_pairs(m)) for m in downlink)
    counts = (len(uplink), len(downlink))
    if counts != (cfg.K, cfg.K):
        raise DimensionError(f"need {cfg.K} matrices per direction, got {counts}")
    for h in uplink:
        if h.shape != (cfg.N, cfg.M):
            raise DimensionError(f"uplink matrix shape {h.shape} != {(cfg.N, cfg.M)}")
    for g in downlink:
        if g.shape != (cfg.M, cfg.N):
            raise DimensionError(f"downlink matrix shape {g.shape} != {(cfg.M, cfg.N)}")
    return ChannelSet(cfg=cfg, seed=seed, uplink=uplink, downlink=downlink)
