"""The benchmark's self-test, run before the ``selftest`` workload measures.

It runs every workload at minimum size (one round, untraced and traced) and
checks that every metric BENCHMARK.json names comes out with its unit; then
it checks that a corrupted program output, a slope off the stream total and
a corrupted result are all caught.
"""

from __future__ import annotations

from harness import (
    END_TO_END_UNITS,
    PER_LAYER_UNITS,
    Tally,
    end_to_end_metrics,
    measure,
    per_layer_values,
    validate,
    with_units,
)
from spans import Tracer, install
from workloads import (
    CONFIDENT_SEEDS,
    KINDS,
    WORKLOADS,
    CheckError,
    check_slopes,
    selftest_rounds,
)

MEASURED = ["corner_battery", "montecarlo_cli", "small_synth"]


def _must_fail(check, what: str) -> None:
    try:
        check()
    except CheckError:
        return
    raise CheckError(f"self-test: {what} was not caught")


def run_self_test(spec: dict, seed: int, tmp: str) -> None:
    for name in MEASURED:
        rounds = WORKLOADS[name]
        tally = Tally()
        untraced = measure(rounds(seed), 0.0, tmp, tally)
        validate(with_units(end_to_end_metrics(0.0, untraced, tally), END_TO_END_UNITS),
                 spec["end_to_end"])
        tracer = Tracer()
        patch = install(tracer)
        try:
            traced = measure(rounds(seed), 0.0, tmp, tally, tracer)
        finally:
            patch.restore()
        validate(with_units(per_layer_values(tracer, untraced, traced, tally),
                            PER_LAYER_UNITS), spec["per_layer"])

    for kind, inp in next(selftest_rounds(seed)):
        run, check, corrupt = KINDS[kind]
        out = run(inp, tmp)
        check(inp, out)
        bad = corrupt(out)
        _must_fail(lambda: check(inp, bad), f"corrupted {kind} output")

    wrong_slopes = [((6, 15, 2), 50.0, 50.0)] * CONFIDENT_SEEDS
    _must_fail(lambda: check_slopes(wrong_slopes), "a slope 17% below the stream total")

    good = with_units(end_to_end_metrics(0.0, untraced, tally), END_TO_END_UNITS)
    first = next(iter(good))
    missing = {k: v for k, v in good.items() if k != first}
    wrong_unit = {**good, first: {**good[first], "unit": "furlong"}}
    not_a_number = {**good, first: {**good[first], "value": float("nan")}}
    for bad, what in ((missing, "missing metric"), (wrong_unit, "wrong unit"),
                      (not_a_number, "NaN value")):
        _must_fail(lambda: validate(bad, spec["end_to_end"]), f"result with a {what}")
