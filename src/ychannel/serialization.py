"""Complex-matrix JSON encoding shared by fixtures and scheme export.

Matrices are stored row major with each entry as a [re, im] pair.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import chain

import numpy as np

from .errors import ConfigurationError


def complex_matrix_to_pairs(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return np.stack((m.real, m.imag), -1).tolist()


def complex_matrix_from_pairs(rows: list) -> np.ndarray:
    """Decode a stored matrix: non-empty, equally long rows of [re, im] number pairs.

    Any other layout, and NaN or infinite entries (``json`` reads ``NaN`` and
    ``Infinity``), raise ``ConfigurationError``.
    """
    try:
        pairs = np.array(rows, dtype=np.float64)
        layout = pairs.ndim == 3 and pairs.shape[2] == 2 and 0 not in pairs.shape
    except (TypeError, ValueError, OverflowError):  # ragged, or an entry float() refuses
        layout = False
    if layout:  # float64 conversion alone would also take "1.5" and true
        layout = set(map(type, chain.from_iterable(chain.from_iterable(rows)))) <= {int, float}
    if not layout:
        raise ConfigurationError(
            "stored matrix must be non-empty, equally long rows of [re, im] number pairs"
        )
    if not np.isfinite(pairs).all():
        raise ConfigurationError("stored matrix has a NaN or infinite entry")
    return pairs.view(np.complex128)[..., 0]


def stored_section(value: object, kind: type, what: str):
    """``value`` if it is a ``kind``: dict for a JSON object, list for an array.

    A section of another JSON type raises ``ConfigurationError`` naming ``what``.
    """
    if not isinstance(value, kind):
        name = {dict: "object", list: "array"}[kind]
        raise ConfigurationError(f"{what} must be a JSON {name}, got {type(value).__name__}")
    return value


@contextmanager
def stored_entries(what: str):
    """Report a key missing from a stored ``what`` as ``ConfigurationError``."""
    try:
        yield
    except KeyError as exc:
        raise ConfigurationError(f"{what} has no {exc} entry") from exc
