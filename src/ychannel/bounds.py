"""Exact degrees-of-freedom bounds for K-user MIMO Y relay networks.

Everything here is computed with `fractions.Fraction`, so branch selection,
tightness checks and corner coordinates are decided by exact rational
comparison rather than floating point.

The sum DoF upper bound is the tightest of a family of bounds: the two
cut-set bounds ``2N`` (relay limited) and ``KM`` (source limited), and one
genie-aided bound per branch index ``beta`` in ``2..K-2``,
``2K(K-1) max(beta M, N) / (K(K-1) + beta(beta-1))``.  A genie bound is a
plateau, constant in N, while N <= beta M and a slope, linear in N, above.
So the bound is piecewise in the antenna ratio N/M, with the branches in
the order relay limited, plateau 2, slope 2, ..., slope K-2, source
limited; ``breakpoints`` lists the ratios where it changes branch.

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
    "breakpoints",
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


def breakpoints(K: int) -> list[Fraction]:
    """Sorted ratios where the bound changes branch.

    Plateau ``beta`` runs from the breakpoint below ``beta`` up to ``beta``,
    and slope ``beta`` from ``beta`` to the next breakpoint; the first ends
    the relay-limited branch and the last starts the source-limited one.
    """
    K = check_integer(K, "K")
    return sorted([_plateau_start(K, b) for b in range(2, K)] + [Fraction(b) for b in betas(K)])


def _genie_bounds(cfg: SystemConfig) -> list[tuple[Fraction, RegimeLabel]]:
    """Every bound with its branch, lowest branch first: 2N, the genie bounds, KM."""
    kk, M, N = _pairs2(cfg.K), cfg.M, cfg.N
    table = [(Fraction(2 * N), RegimeLabel(Regime.RELAY_LIMITED))]
    for b in betas(cfg.K):
        kind = Regime.PLATEAU if N <= b * M else Regime.SLOPE
        table.append((Fraction(2 * kk * max(b * M, N), kk + b * (b - 1)), RegimeLabel(kind, b)))
    table.append((Fraction(cfg.K * M), RegimeLabel(Regime.SOURCE_LIMITED)))
    return table


def _tightest(cfg: SystemConfig) -> tuple[Fraction, RegimeLabel]:
    # min keeps the first of equal values, so a breakpoint goes to the lower branch
    return min(_genie_bounds(cfg), key=lambda entry: entry[0])


def regime_of(cfg: SystemConfig) -> RegimeLabel:
    """The branch whose bound is tightest at N/M.

    Of equal bounds the lowest branch wins, so a ratio sitting exactly on a
    breakpoint belongs to the lower branch: each branch holds a left-open,
    right-closed interval of ratios.
    """
    return _tightest(cfg)[1]


def upper_bound(cfg: SystemConfig) -> Fraction:
    """Exact sum-DoF upper bound: the tightest of 2N, KM and the genie bounds."""
    return _tightest(cfg)[0]


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
    points = [CornerPoint(_plateau_start(K, 2), _corner_height(K, 1), beta=1)]
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
    return max(c.dof_per_M * min(cfg.M, cfg.N / c.abscissa) for c in corner_points(cfg.K))


def gap_report(cfg: SystemConfig) -> GapReport:
    """Compare the upper bound against the achievable envelope."""
    upper, regime = _tightest(cfg)
    achievable = achievable_dof(cfg)
    return GapReport(upper=upper, achievable=achievable, tight=(upper == achievable), regime=regime)
