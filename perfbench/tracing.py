"""Per-layer tracing of entdyn from outside the package.

`install` wraps module-level entry points of each layer (the modules of
`entdyn`) and rebinds every module-level name in the package that refers to
them, so calls through `from .x import f` copies are traced too. Each call
records a span [name, start, end, parent index]; some hooks also add to
counters. Spans stay in memory until the pass ends. A hook whose target no
longer exists is recorded as missing, and every metric that needs it is
reported as None (JSON null) while the pass goes on.

Spans nest through one stack, so traced passes run with ENTDYN_WORKERS=1.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import defaultdict

PACKAGE = "entdyn"


def _count_gaussians(counts, args, kwargs, result):
    counts["noise.gaussian_count"] += result.size
    counts["noise.bytes_computed"] += result.size * result.itemsize


def _count_samples(counts, args, kwargs, result):
    counts["noise.bytes_computed"] += result.nbytes
    counts["mc.batches"] += 1
    counts["mc.traj_points"] += result.size
    counts["mc.batch_bytes"] = max(counts["mc.batch_bytes"], result.nbytes)


def _count_nodes(counts, args, kwargs, result):
    # filter_weight returns one value per frequency node it evaluated.
    counts["filters.quad_nodes"] += getattr(result, "size", 1)


def _count_csv_bytes(counts, args, kwargs, result):
    counts["io.csv_bytes"] += os.path.getsize(kwargs["path"] if "path" in kwargs else args[0])


# (module, function, span name, counter)
HOOKS = (
    ("cli", "parse_config", "cli.parse", None),
    ("cli", "execute", "cli.execute", None),
    ("noise", "gaussian_block", "noise.gaussian", _count_gaussians),
    ("noise", "sample_block", "noise.sample", _count_samples),
    ("mc", "run", "mc.run", None),
    ("mc", "coherence_series", "mc.coherence", None),
    ("mc", "_phase_block", "mc.phase", None),
    ("measures", "concurrence_mixed", "measures.wootters", None),
    ("measures", "eof_from_concurrence", "measures.eof", None),
    ("linalg", "hermitian_eigen", "linalg.eigen", None),
    ("filters", "analytic_series", "filters.analytic", None),
    ("filters", "dephasing_exponent", "filters.exponent", None),
    ("filters", "filter_weight", "filters.weight", _count_nodes),
    ("filters", "concurrence_static", "filters.static", None),
    ("scenarios", "random_field_series", "scenarios.randomfield", None),
    ("scenarios", "jc_measures", "scenarios.jc", None),
    ("io", "write_series_csv", "io.csv", _count_csv_bytes),
    ("io", "write_manifest", "io.manifest", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: set[str] = set()  # hooks whose target was not found
        self.broken: set[str] = set()  # hooks whose counter failed

    def wrap(self, span: str, fn, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([span, clock(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if counter is not None:
                try:
                    counter(self.counts, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    self.broken.add(span)
            return result

        traced.__wrapped__ = fn
        return traced


def install(tracer: Tracer, hooks=HOOKS) -> None:
    """Wrap each hook target; record the ones that do not exist."""
    for module_name, attr, span, counter in hooks:
        try:
            target = getattr(importlib.import_module(f"{PACKAGE}.{module_name}"), attr)
        except (ImportError, AttributeError):
            tracer.missing.add(span)
            continue
        traced = tracer.wrap(span, target, counter)
        for name, module in list(sys.modules.items()):
            if name == PACKAGE or name.startswith(PACKAGE + "."):
                for key, value in list(vars(module).items()):
                    if value is target:
                        setattr(module, key, traced)


class _Spans:
    """Totals, call counts and self times per span name."""

    def __init__(self, spans):
        self.total = defaultdict(float)
        self.calls = defaultdict(int)
        children = defaultdict(float)
        for name, start, end, parent in spans:
            self.total[name] += end - start
            self.calls[name] += 1
            if parent >= 0:
                children[spans[parent][0]] += end - start
        self.self_time = defaultdict(float, {n: self.total[n] - children[n] for n in self.total})


# (metric, unit, spans it needs, value from (_Spans, counts))
LAYER_METRICS = (
    ("cli.parse_s", "s", ("cli.parse",), lambda s, c: s.total["cli.parse"]),
    ("cli.execute_s", "s", ("cli.execute",), lambda s, c: s.total["cli.execute"]),
    ("noise.gaussian_s", "s", ("noise.gaussian",), lambda s, c: s.total["noise.gaussian"]),
    ("noise.gaussian_count", "count", ("noise.gaussian",), lambda s, c: c["noise.gaussian_count"]),
    ("noise.sample_s", "s", ("noise.sample",), lambda s, c: s.total["noise.sample"]),
    ("noise.ou_recursion_s", "s", ("noise.sample", "noise.gaussian"),
     lambda s, c: s.self_time["noise.sample"]),
    ("noise.bytes_computed", "bytes", ("noise.sample", "noise.gaussian"),
     lambda s, c: c["noise.bytes_computed"]),
    ("mc.batches", "count", ("noise.sample",), lambda s, c: c["mc.batches"]),
    ("mc.traj_points", "count", ("noise.sample",), lambda s, c: c["mc.traj_points"]),
    ("mc.phase_s", "s", ("mc.phase",), lambda s, c: s.total["mc.phase"]),
    ("mc.reduce_s", "s", ("mc.coherence", "mc.phase", "noise.sample"),
     lambda s, c: s.self_time["mc.coherence"]),
    ("mc.finish_s", "s", ("mc.run", "mc.coherence"),
     lambda s, c: s.total["mc.run"] - s.total["mc.coherence"]),
    ("mc.batch_bytes", "bytes", ("noise.sample",), lambda s, c: c["mc.batch_bytes"]),
    ("measures.wootters_calls", "count", ("measures.wootters",), lambda s, c: s.calls["measures.wootters"]),
    ("measures.wootters_s", "s", ("measures.wootters",), lambda s, c: s.total["measures.wootters"]),
    ("measures.eof_calls", "count", ("measures.eof",), lambda s, c: s.calls["measures.eof"]),
    ("measures.eof_s", "s", ("measures.eof",), lambda s, c: s.total["measures.eof"]),
    ("linalg.eigen_calls", "count", ("linalg.eigen",), lambda s, c: s.calls["linalg.eigen"]),
    ("linalg.eigen_s", "s", ("linalg.eigen",), lambda s, c: s.total["linalg.eigen"]),
    ("filters.exponent_calls", "count", ("filters.exponent",), lambda s, c: s.calls["filters.exponent"]),
    ("filters.exponent_s", "s", ("filters.exponent",), lambda s, c: s.total["filters.exponent"]),
    ("filters.weight_calls", "count", ("filters.weight",), lambda s, c: s.calls["filters.weight"]),
    ("filters.quad_nodes", "count", ("filters.weight",), lambda s, c: c["filters.quad_nodes"]),
    ("filters.static_s", "s", ("filters.static",), lambda s, c: s.total["filters.static"]),
    ("scenarios.randomfield_s", "s", ("scenarios.randomfield",), lambda s, c: s.total["scenarios.randomfield"]),
    ("scenarios.jc_s", "s", ("scenarios.jc",), lambda s, c: s.total["scenarios.jc"]),
    ("io.csv_s", "s", ("io.csv",), lambda s, c: s.total["io.csv"]),
    ("io.csv_bytes", "bytes", ("io.csv",), lambda s, c: c["io.csv_bytes"]),
    ("io.manifest_s", "s", ("io.manifest",), lambda s, c: s.total["io.manifest"]),
    # Time in cli.execute outside every traced layer; a hook gone missing
    # moves its layer's time here.
    ("unattributed_s", "s", ("cli.execute",), lambda s, c: s.self_time["cli.execute"]),
)


def layer_metrics(tracer: Tracer) -> dict[str, float | int | None]:
    """Per-layer values of one traced pass; None where a needed hook is gone."""
    spans = _Spans(tracer.spans)
    unusable = tracer.missing | tracer.broken
    return {
        name: None if unusable.intersection(needs) else value(spans, tracer.counts)
        for name, _unit, needs, value in LAYER_METRICS
    }
