"""Traced run support: spans at layer boundaries and kernel counters.

Every span is recorded from the benchmark's side of a call into the
library: the wrappers below replace a public function under every module
name that binds it (the defining module and each importing module, e.g.
``ychannel.alignment.assemble_scheme`` and
``ychannel.simulation.assemble_scheme``), so calls made inside the library
are seen as well.  ``numpy.linalg.svd`` is wrapped in both
``numpy.linalg`` and ``numpy.linalg._linalg``; the second binding is the
one ``numpy.linalg.norm(x, 2)`` calls.

Spans are kept in memory as ``[name, start, end, parent, item]`` lists,
written out as JSON lines when the run ends, and folded into per-layer
self times: a span's duration minus the time covered by its children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np
import numpy.linalg._linalg as _np_linalg

# Span name per wrapped library function.  A layer's self time is the sum of
# the self times of its spans, so a function missing from this table charges
# its time to the nearest wrapped caller.
SPAN_NAMES = {
    "channel": {
        "sample_channels": "channel.sample",
        "apply_extension_plan": "channel.extend",
    },
    "alignment": {
        "build_compression_matrix": "alignment.compression",
        "build_precoders": "alignment.precoders",
        "assemble_scheme": "alignment.certify",
        "verify_alignment_conditions": "alignment.verify",
        "save_scheme": "serialization.save",
        "load_scheme": "serialization.load",
    },
    "simulation": {
        "build_bc_scheme": "simulation.bc_scheme",
        "mac_phase": "simulation.mac",
        "relay_decode": "simulation.relay_decode",
        "bc_phase": "simulation.bc_phase",
        "decode_user": "simulation.user_decode",
        "cancel_self_interference": "simulation.user_decode",
        "pairwise_rates": "simulation.rates",
        "end_to_end": "simulation.self",
        "sum_rate_curve": "simulation.self",
        "estimate_dof_slope": "simulation.self",
        "fit_slope": "simulation.self",
        "make_frame": "simulation.self",
        "stack_network_coded": "simulation.self",
        "write_records_csv": "serialization.save",
    },
    "cli": {
        "main": "cli.self",
    },
}

SVD_SPAN = "linalg.svd"
DUAL_PARENT = "simulation.bc_scheme"

# Self-time metrics reported per item, in milliseconds.
LAYER_TIMES = [
    "channel.sample",
    "channel.extend",
    "alignment.compression",
    "alignment.precoders",
    "alignment.certify",
    "alignment.verify",
    SVD_SPAN,
    "simulation.bc_scheme",
    "simulation.mac",
    "simulation.relay_decode",
    "simulation.bc_phase",
    "simulation.user_decode",
    "simulation.rates",
    "simulation.self",
    "cli.self",
    "serialization.save",
    "serialization.load",
]


class Tracer:
    """In-memory span log plus the counters taken at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.item: int | None = None
        # off while the benchmark checks outputs, so checks add no spans
        self.enabled = False
        self.svd_calls = 0
        self.svd_work = 0
        self.bounds_calls = 0
        self.assemble_calls = 0
        self.schemes: set = set()

    def _under(self, name: str) -> bool:
        return any(self.spans[idx][0] == name for idx in self._stack)

    def call(self, name: str, fn, args, kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, self.item]
        self.spans.append(record)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[1] = start
            record[2] = time.perf_counter()
            self._stack.pop()

    def note_assemble(self, args, kwargs) -> None:
        if not self.enabled:
            return
        ch = args[0] if args else kwargs["ch"]
        beta = args[2] if len(args) > 2 else kwargs["beta"]
        kind = "dual" if self._under(DUAL_PARENT) else "uplink"
        self.assemble_calls += 1
        self.schemes.add((self.item, ch.cfg, ch.seed, beta, kind))

    def note_svd(self, a) -> None:
        if not self.enabled:
            return
        shape = np.shape(a)
        m, n = shape[-2], shape[-1]
        batch = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
        self.svd_calls += 1
        self.svd_work += batch * m * n * min(m, n)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps([name, start, end, parent, item]) + "\n")

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for k, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child[k]
        return totals


class Patch:
    """Rebinds wrapped functions under every module name and restores them."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def rebind(self, original, replacement, modules) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, replacement)

    def restore(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()


def _library_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "ychannel" or name.startswith("ychannel."))]


def install(tracer: Tracer) -> Patch:
    """Wrap every traced function; returns the patch that undoes it."""
    patch = Patch()
    modules = _library_modules()
    for short, table in SPAN_NAMES.items():
        module = sys.modules[f"ychannel.{short}"]
        for attr, span in table.items():
            original = getattr(module, attr)
            patch.rebind(original, _span_wrapper(tracer, span, original), modules)

    bounds = sys.modules["ychannel.bounds"]
    for attr in bounds.__all__:
        original = getattr(bounds, attr)
        if callable(original) and not isinstance(original, type):
            patch.rebind(original, _count_wrapper(tracer, original), modules)

    svd = _np_linalg.svd

    @functools.wraps(svd)
    def traced_svd(a, *args, **kwargs):
        tracer.note_svd(a)
        return tracer.call(SVD_SPAN, svd, (a, *args), kwargs)

    patch.rebind(svd, traced_svd, [np.linalg, _np_linalg])
    return patch


def _span_wrapper(tracer: Tracer, span: str, fn):
    is_assemble = fn.__name__ == "assemble_scheme"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if is_assemble:
            tracer.note_assemble(args, kwargs)
        return tracer.call(span, fn, args, kwargs)

    return wrapper


def _count_wrapper(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.enabled:
            tracer.bounds_calls += 1
        return fn(*args, **kwargs)

    return wrapper


def layer_metrics(tracer: Tracer, items: int) -> dict[str, float]:
    """Per-item layer figures of one traced phase, keyed by metric name."""
    totals = tracer.self_times()
    out = {f"{name}_ms": 1e3 * totals.get(name, 0.0) / items for name in LAYER_TIMES}
    out["linalg.svd_calls"] = tracer.svd_calls / items
    out["linalg.svd_work"] = tracer.svd_work / items
    out["alignment.assemble_calls"] = tracer.assemble_calls / items
    out["alignment.useful_ratio"] = (
        len(tracer.schemes) / tracer.assemble_calls if tracer.assemble_calls else 0.0
    )
    out["bounds.calls"] = tracer.bounds_calls / items
    return out
