"""Guards the traced benchmark's view of the library.

``bench/spans.py`` wraps library functions by name and reads
``assemble_scheme``'s ``beta`` from its third positional argument; a
rename or a reordered signature would break only the traced run.  One
self-test round of every workload kind runs here too, so a library change
that breaks what ``bench/workloads.py`` reads fails in the tests, not only
in a benchmark run.
"""

import importlib
import inspect
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def bench_module(name):
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))


@pytest.fixture(scope="module")
def spans():
    return bench_module("spans")


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


def test_selftest_round_runs_checks_and_catches_corruption(tmp_path):
    # one round of every kind the benchmark runs: the frame's per-pair view,
    # mac_phase, relay_decode(...).entries and pair_blocks among what it reads
    workloads = bench_module("workloads")
    for kind, inp in next(workloads.selftest_rounds(0)):
        run, check, corrupt = workloads.KINDS[kind]
        out = run(inp, str(tmp_path))
        check(inp, out)
        with pytest.raises(workloads.CheckError):
            check(inp, corrupt(out))
