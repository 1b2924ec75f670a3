"""Complex-matrix JSON encoding shared by fixtures and scheme export.

Matrices are stored row major with each entry as a [re, im] pair.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError


def complex_matrix_to_pairs(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m)]


def complex_matrix_from_pairs(rows: list) -> np.ndarray:
    """Decode a stored matrix; NaN or infinite entries (``json`` reads
    ``NaN`` and ``Infinity``) raise ``ConfigurationError``."""
    m = np.array(
        [[complex(re, im) for re, im in row] for row in rows], dtype=np.complex128
    )
    if not np.isfinite(m).all():
        raise ConfigurationError("stored matrix has a NaN or infinite entry")
    return m
