"""System configuration shared by every module."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigurationError


@dataclass(frozen=True)
class SystemConfig:
    """Antenna layout of a K-user single-relay network.

    K source nodes with M antennas each exchange pairwise messages through
    one relay with N antennas; there are no direct source-to-source links.
    """

    K: int
    M: int
    N: int

    def __post_init__(self) -> None:
        for name in ("K", "M", "N"):  # NumPy integers are stored as ints, for JSON
            object.__setattr__(self, name, check_integer(getattr(self, name), name))
        if self.K < 3:
            raise ConfigurationError(f"need at least 3 users, got K={self.K}")
        if self.M < 1:
            raise ConfigurationError(f"source antenna count must be >= 1, got M={self.M}")
        if self.N < 1:
            raise ConfigurationError(f"relay antenna count must be >= 1, got N={self.N}")

    @property
    def ratio(self) -> Fraction:
        """Relay-to-source antenna ratio N/M as an exact rational."""
        return Fraction(self.N, self.M)


def check_integer(value: int, name: str) -> int:
    """``value`` as an int; ``name`` labels the ``ConfigurationError`` otherwise.

    NumPy integers are accepted; a bool, a float or a string is not an integer.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ConfigurationError(f"{name} must be an integer, got {value!r}") from None
