"""Guards the traced benchmark's view of the library.

``bench/spans.py`` wraps library functions by name and reads
``assemble_scheme``'s ``beta`` from its third positional argument; a
rename or a reordered signature would break only the traced run.
"""

import importlib
import inspect
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def spans():
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("spans")
    finally:
        sys.path.remove(str(BENCH))


def test_every_span_resolves(spans):
    for short, table in spans.SPAN_NAMES.items():
        module = importlib.import_module(f"ychannel.{short}")
        for attr in table:
            assert callable(getattr(module, attr, None)), f"ychannel.{short}.{attr}"


def test_assemble_scheme_positional_order():
    from ychannel.alignment import assemble_scheme

    params = list(inspect.signature(assemble_scheme).parameters)
    assert params[:3] == ["ch", "alloc", "beta"]


def test_benchmark_call_shapes_bind():
    # bench/workloads.py calls these positionally; the noise level of
    # end_to_end is keyword-only, so a fourth positional argument must fail
    from ychannel.simulation import end_to_end, mac_phase

    inspect.signature(end_to_end).bind("cfg", "beta", "seed")
    inspect.signature(mac_phase).bind("scheme", "ch", "frame", 0.0)
    with pytest.raises(TypeError):
        inspect.signature(end_to_end).bind("cfg", "beta", "seed", 0.0)
