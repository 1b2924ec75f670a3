"""Exact degrees-of-freedom bounds for K-user MIMO Y relay networks.

Everything here is computed with `fractions.Fraction`, so branch selection,
tightness checks and corner coordinates are decided by exact rational
comparison rather than floating point.

The sum DoF upper bound is piecewise in the antenna ratio N/M and has four
branch kinds:

* relay limited: bound ``2N`` for small N/M,
* plateau branches (one per index ``beta`` in ``2..K-2``): bound constant
  in N,
* slope branches (same indices): bound linear in N,
* source limited: bound ``KM`` for large N/M.

The best known achievable sum DoF is the upper envelope of per-corner
contributions: a corner ``(alpha, d0)`` (ratio, DoF per M) contributes
``d0*M`` above its ratio, by switching off relay antennas, and
``d0*N/alpha`` below it, by switching off source antennas.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb

from .config import SystemConfig, check_integer
from .errors import ConfigurationError

__all__ = [
    "Regime",
    "RegimeLabel",
    "CornerPoint",
    "GapReport",
    "betas",
    "first_breakpoint",
    "last_breakpoint",
    "plateau_interval",
    "slope_interval",
    "corner_abscissa",
    "corner_height",
    "corner_points",
    "regime_of",
    "upper_bound",
    "achievable_dof",
    "gap_report",
]


class Regime(Enum):
    """Branch of the piecewise DoF upper bound containing N/M."""

    RELAY_LIMITED = "relay_limited"
    PLATEAU = "plateau"
    SLOPE = "slope"
    SOURCE_LIMITED = "source_limited"


@dataclass(frozen=True)
class RegimeLabel:
    """A branch kind plus its index for the plateau/slope branches."""

    kind: Regime
    beta: int | None = None

    def __post_init__(self) -> None:
        indexed = self.kind in (Regime.PLATEAU, Regime.SLOPE)
        if indexed != (self.beta is not None):
            raise ConfigurationError(
                f"beta must be given exactly for plateau/slope regimes, got {self}"
            )


@dataclass(frozen=True)
class CornerPoint:
    """An exactly-achievable (ratio, DoF/M) pair of the alignment scheme.

    ``beta`` is 1 for the leftmost corner (the pairwise-exchange scheme)
    and the branch index for the others.
    """

    abscissa: Fraction
    dof_per_M: Fraction
    beta: int

    def __post_init__(self) -> None:
        if self.abscissa <= 0 or self.dof_per_M <= 0:
            raise ConfigurationError(f"corner coordinates must be positive: {self}")


@dataclass(frozen=True)
class GapReport:
    """Upper bound versus achievable DoF for one configuration."""

    upper: Fraction
    achievable: Fraction
    tight: bool
    regime: RegimeLabel


def _pairs2(K: int) -> int:
    # K(K-1), twice the number of unordered user pairs
    return K * (K - 1)


def betas(K: int) -> range:
    """Valid plateau/slope indices for K users (empty when K = 3)."""
    return range(2, check_integer(K, "K") - 1)


def check_beta(K: int, beta: int) -> int:
    """``beta`` as an int, or a ``ConfigurationError`` unless it is one of ``betas(K)``."""
    beta = check_integer(beta, "beta")
    if beta not in betas(K):
        raise ConfigurationError(f"beta must be in [2, {K - 2}] for K={K}, got {beta}")
    return beta


def _plateau_start(K: int, b: int) -> Fraction:
    """Start of plateau b and end of slope b - 1, b in 2..K-1; b = 2 and b = K - 1 give
    the first and the last breakpoint."""
    kk = _pairs2(K)
    return Fraction(b * (kk + (b - 1) * (b - 2)), kk + b * (b - 1))


def first_breakpoint(K: int) -> Fraction:
    """Ratio below which the relay-limited bound 2N is active."""
    return _plateau_start(check_integer(K, "K"), 2)


def last_breakpoint(K: int) -> Fraction:
    """Ratio above which the source-limited bound KM is active."""
    K = check_integer(K, "K")
    return _plateau_start(K, K - 1)


def plateau_interval(K: int, beta: int) -> tuple[Fraction, Fraction]:
    """Half-open ratio interval (lo, hi] of plateau branch ``beta``."""
    beta = check_beta(K, beta)
    return _plateau_start(K, beta), Fraction(beta)


def slope_interval(K: int, beta: int) -> tuple[Fraction, Fraction]:
    """Half-open ratio interval (lo, hi] of slope branch ``beta``."""
    beta = check_beta(K, beta)
    return Fraction(beta), _plateau_start(K, beta + 1)


def regime_of(cfg: SystemConfig) -> RegimeLabel:
    """Locate N/M in the piecewise bound.

    Intervals are left-open and right-closed, so a ratio sitting exactly on
    a breakpoint belongs to the lower branch.
    """
    r = cfg.ratio
    if r <= first_breakpoint(cfg.K):
        return RegimeLabel(Regime.RELAY_LIMITED)
    for beta in betas(cfg.K):
        if r <= plateau_interval(cfg.K, beta)[1]:
            return RegimeLabel(Regime.PLATEAU, beta)
        if r <= slope_interval(cfg.K, beta)[1]:
            return RegimeLabel(Regime.SLOPE, beta)
    return RegimeLabel(Regime.SOURCE_LIMITED)


def upper_bound(cfg: SystemConfig) -> Fraction:
    """Exact sum-DoF upper bound for the configuration."""
    label = regime_of(cfg)
    kk = _pairs2(cfg.K)
    if label.kind is Regime.RELAY_LIMITED:
        return Fraction(2 * cfg.N)
    if label.kind is Regime.PLATEAU:
        b = label.beta
        return Fraction(2 * b * kk * cfg.M, kk + b * (b - 1))
    if label.kind is Regime.SLOPE:
        b = label.beta
        return Fraction(2 * kk * cfg.N, kk + b * (b - 1))
    return Fraction(cfg.K * cfg.M)


def corner_abscissa(K: int, beta: int) -> Fraction:
    """Antenna ratio of the corner with branch index ``beta`` in ``betas(K)``."""
    beta = check_beta(K, beta)
    kk = _pairs2(K)
    return beta + Fraction(2 * kk, (2 + kk - beta * (beta - 1)) * comb(K, beta))


def _corner_height(K: int, beta: int) -> Fraction:
    """4kk / (2 + kk - beta(beta-1)), unchecked: beta = 1 is the leftmost corner."""
    kk = _pairs2(K)
    return Fraction(4 * kk, 2 + kk - beta * (beta - 1))


def corner_height(K: int, beta: int) -> Fraction:
    """DoF per source antenna at the corner with index ``beta`` in ``betas(K)``."""
    return _corner_height(K, check_beta(K, beta))


def corner_points(K: int) -> list[CornerPoint]:
    """All exactly-achievable corners, leftmost first.

    The first entry is the pairwise-exchange corner; the rest have
    ``beta`` running over ``2..K-2`` (none for K = 3).
    """
    K = check_integer(K, "K")
    if K < 3:
        raise ConfigurationError(f"need at least 3 users, got K={K}")
    points = [CornerPoint(first_breakpoint(K), _corner_height(K, 1), beta=1)]
    for beta in betas(K):
        points.append(CornerPoint(corner_abscissa(K, beta), corner_height(K, beta), beta))
    return points


def achievable_dof(cfg: SystemConfig) -> Fraction:
    """Best known achievable sum DoF: the corner-contribution envelope.

    Above a corner's ratio the relay switches antennas off and the corner
    DoF carries over unchanged; below it the sources switch antennas off
    and the DoF scales as N/alpha.  The leftmost corner's below-ratio
    contribution is exactly 2N, which covers the relay-limited region.
    """
    best = Fraction(0)
    for corner in corner_points(cfg.K):
        if cfg.ratio >= corner.abscissa:
            value = corner.dof_per_M * cfg.M
        else:
            value = corner.dof_per_M * cfg.N / corner.abscissa
        best = max(best, value)
    return best


def gap_report(cfg: SystemConfig) -> GapReport:
    """Compare the upper bound against the achievable envelope."""
    upper = upper_bound(cfg)
    achievable = achievable_dof(cfg)
    return GapReport(
        upper=upper,
        achievable=achievable,
        tight=(upper == achievable),
        regime=regime_of(cfg),
    )
