"""In-memory span recorder for the traced benchmark run.

Each traced function is replaced, at every module binding of conestab that
holds it, by a wrapper that records a span (name, start, end, parent) and
per-layer counts while ``recording`` is set.  Self time is a span's
duration minus the time of the traced calls nested in it.  Before
recording starts the wrappers only note which grids sigma_grid has handed
out, so that a grid filled during set-up counts as a cache hit later.
Nothing here runs unless a run asks for tracing.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import sys
import time
import weakref
from collections import defaultdict

import numpy as np

# (module, function, counters) for every traced public function.  Metric
# names are "<layer>.<function>.<counter>"; "s" is self time.
TARGETS = (
    ("variation", "area", ("calls", "s", "distinct_ratio")),
    ("variation", "dirichlet_energy", ("calls", "s", "distinct_ratio")),
    ("variation", "variation_report", ("s",)),
    ("quadrature", "sigma_grid", ("calls", "misses", "s")),
    ("quadrature", "integrate_sigma", ("calls", "s")),
    ("quadrature", "boundary_integral", ("calls", "s")),
    ("quadrature", "trace_grid", ("calls", "s")),
    ("quadrature", "compensated_sum", ("calls", "elements", "nonzero_ratio", "s")),
    ("quadrature", "liminf_quotient", ("calls", "s")),
    ("flow", "flow_coefficients_batch", ("calls", "nodes", "s")),
    ("jacobian", "jacobian_closed_form", ("nodes", "s")),
    ("jacobian", "jacobian_gram_oracle", ("nodes", "s")),
    ("jacobian", "wedge_expansion", ("s",)),
    ("stability", "stability_sweep", ("s",)),
    ("stability", "shear_transform_check", ("calls", "s")),
    ("stability", "instability_witness_n2", ("s",)),
    ("stability", "lambda_star", ("calls", "s")),
    ("verify", "jacobian_suite", ("s",)),
    ("verify", "foliation_suite", ("s",)),
    ("verify", "remainder_suite", ("s",)),
    ("domain", "gamma_curve", ("calls", "s")),
    ("domain", "classify_ambient_point", ("calls",)),
    ("cli", "main", ("calls", "s")),
)
# The evaluator and gradient of every generated field.
FIELD_TARGETS = (
    ("trial", "evaluator", ("calls", "nodes", "s", "support_ratio")),
    ("trial", "gradient", ("calls", "nodes", "s", "support_ratio")),
)
# Constructors whose fields are wrapped where conestab calls them.
FIELD_FACTORIES = ("build_trial", "make_radial_bump", "make_tensor_bump",
                   "make_boundary_bump", "make_shifted_bump")


def _field_key(f):
    return (f.label, f.descriptor)


def _nodes(arr, trailing: int) -> int:
    shape = np.shape(arr)
    return int(np.prod(shape[:len(shape) - trailing])) if shape else 1


class Tracer:
    """Records spans and counts of the functions it wraps."""

    def __init__(self):
        self.recording = False
        self.spans = []          # (name, parent index or -1, start, end)
        self._stack = []         # [span index, start, time in nested spans]
        self.counts = defaultdict(lambda: defaultdict(float))
        self._distinct = defaultdict(set)
        self._grids = {}         # id(nodes) -> weakref, to tell grid-cache hits

    def _span(self, name, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                out = fn(*args, **kwargs)
                if name == "quadrature.sigma_grid":
                    self._new_grid(out)
                return out
            index = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            self.spans.append(None)
            frame = [index, time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - frame[1]
                if self._stack:
                    self._stack[-1][2] += duration
                self.spans[index] = (name, parent, frame[1], end)
                stats = self.counts[name]
                stats["calls"] += 1
                stats["s"] += duration - frame[2]
            if count is not None:
                began = time.perf_counter()
                count(self.counts[name], args, out)
                # counting is tracing overhead: keep it out of the caller's self time
                if self._stack:
                    self._stack[-1][2] += time.perf_counter() - began
            return out

        wrapper.__traced__ = True
        return wrapper

    # -- counters, one per traced function that needs more than calls/time

    def _count_field(self, trailing):
        def count(stats, args, out):
            nodes = _nodes(out, trailing)
            stats["nodes"] += nodes
            live = out != 0.0
            if trailing:
                live = np.any(live, axis=-1)
            stats["live"] += int(np.count_nonzero(live))
        return count

    def _count_distinct(self, name, key):
        def count(stats, args, out):
            self._distinct[name].add(key(args))
        return count

    def _new_grid(self, out) -> bool:
        """True, and remember the grid, if sigma_grid built it afresh."""
        nodes = out[0]
        ref = self._grids.get(id(nodes))
        if ref is not None and ref() is nodes:
            return False
        self._grids[id(nodes)] = weakref.ref(nodes)
        return True

    def _count_grid(self, stats, args, out):
        stats["misses"] += self._new_grid(out)

    def _count_sum(self, stats, args, out):
        values = np.asarray(args[0])
        stats["elements"] += values.size
        stats["live"] += int(np.count_nonzero(values))

    def _counter(self, qualified):
        if qualified == "variation.area":
            return self._count_distinct(qualified, lambda a: (
                a[0].n, a[0].lam, _field_key(a[1]), float(a[2]), a[3]))
        if qualified == "variation.dirichlet_energy":
            return self._count_distinct(qualified, lambda a: (
                a[0].n, a[0].lam, _field_key(a[1]), a[2]))
        if qualified == "quadrature.sigma_grid":
            return self._count_grid
        if qualified == "quadrature.compensated_sum":
            return self._count_sum
        if qualified == "flow.flow_coefficients_batch":
            return lambda stats, args, out: stats.__setitem__(
                "nodes", stats["nodes"] + _nodes(args[2], 1))
        if qualified in ("jacobian.jacobian_closed_form", "jacobian.jacobian_gram_oracle"):
            return lambda stats, args, out: stats.__setitem__(
                "nodes", stats["nodes"] + _nodes(out, 0))
        return None

    # -- installation

    def wrap_field(self, f):
        """The field f with traced evaluator and gradient (same values)."""
        if getattr(f.evaluator, "__traced__", False):
            return f
        return dataclasses.replace(
            f,
            evaluator=self._span("trial.evaluator", f.evaluator, self._count_field(0)),
            gradient=self._span("trial.gradient", f.gradient, self._count_field(1)))

    def _field_factory(self, factory):
        @functools.wraps(factory)
        def build(*args, **kwargs):
            return self.wrap_field(factory(*args, **kwargs))
        return build

    def install(self) -> None:
        """Wrap every target at every conestab module binding that holds it."""
        layers = {layer: importlib.import_module(f"conestab.{layer}")
                  for layer, _, _ in FIELD_TARGETS + TARGETS}
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "conestab" or name.startswith("conestab."))]
        for layer, fn, _ in TARGETS:
            original = getattr(layers[layer], fn)
            wrapper = self._span(f"{layer}.{fn}", original, self._counter(f"{layer}.{fn}"))
            self._rebind(modules, original, wrapper)
        # Fields built inside conestab (the CLI's build_trial, the suites'
        # sample fields) are wrapped where they are built; the trial module
        # keeps its own bindings so no field is wrapped twice.
        for fn in FIELD_FACTORIES:
            original = getattr(layers["trial"], fn)
            self._rebind([m for m in modules if m is not layers["trial"]], original,
                         self._field_factory(original))

    @staticmethod
    def _rebind(modules, original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    # -- results

    def metrics(self) -> dict:
        out = {}
        for layer, fn, counters in FIELD_TARGETS + TARGETS:
            name = f"{layer}.{fn}"
            stats = self.counts.get(name, {})
            calls = stats.get("calls", 0.0)
            for counter in counters:
                key = f"{name}.{counter}"
                if counter in ("support_ratio", "nonzero_ratio"):
                    base = stats.get("nodes", 0.0) or stats.get("elements", 0.0)
                    out[key] = stats.get("live", 0.0) / base if base else 0.0
                elif counter == "distinct_ratio":
                    out[key] = len(self._distinct[name]) / calls if calls else 0.0
                else:
                    out[key] = stats.get(counter, 0.0)
        return out

    def write(self, path) -> None:
        """Write every span as one JSON line: name, parent, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, parent, start, end in self.spans:
                fh.write(json.dumps({"name": name, "parent": parent,
                                     "start": start, "end": end}) + "\n")
