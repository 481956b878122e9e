"""Per-layer tracing of scalerep from outside the program.

``Tracer.install()`` replaces the public functions and methods of each
module of ``src/scalerep`` with timing wrappers, in every scalerep
namespace that holds them (``from .x import f`` copies the binding, so the
defining module alone is not enough).  Each wrapper records calls,
inclusive seconds and self seconds, where self time is the call's
duration minus the part covered by wrapped calls it makes.  Spans nest on
one stack, so the self times of all layers add up to the time spent under
the outermost spans: ``suites.run_suite`` and ``report.render``.

A few functions carry counters of the work they do (nodes, series terms,
largest dimension); they are read from arguments and results only, so the
program's outputs are untouched.  Totals are kept in memory and read once
with ``Tracer.metrics()`` when the traced report is done.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import time
from collections import defaultdict

# The modules of src/scalerep that do measurable work, in call order.
LAYERS = (
    "suites",
    "scale",
    "hermite",
    "heisenberg",
    "hilleyosida",
    "blockrep",
    "integrator",
    "liecore",
    "sampling",
    "report",
)

# For these layers only the public entry point is a span; the rest of their
# public names are either bookkeeping of the entry point or unused by a run.
ENTRY_POINTS = {"suites": ("run_suite",), "report": ("render",)}


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_expm(tracer, fn, args, kwargs, result, elapsed):
    a = _bound(fn, args, kwargs)
    if a["i"] in (1, 2) and a["method"] == "expm":
        tracer.counters["heisenberg.one_parameter.expm_calls"] += 1


def _count_laplace_nodes(tracer, fn, args, kwargs, result, elapsed):
    if result is not None:
        nodes = result.panels * _bound(fn, args, kwargs)["nodes_per_panel"]
        tracer.counters["hilleyosida.resolvent_laplace.nodes"] += nodes


def _count_yosida_terms(tracer, fn, args, kwargs, result, elapsed):
    if result is not None:
        tracer.counters["hilleyosida.yosida_reconstruct.terms"] += sum(result.terms_used)


def _max_chain_dim(tracer, fn, args, kwargs, result, elapsed):
    if result is not None:
        key = "scale.build_scale_chain.max_dim"
        tracer.counters[key] = max(tracer.counters[key], result.family.dim)


def _max_block_dim(tracer, fn, args, kwargs, result, elapsed):
    if result is not None:
        key = "blockrep.block_generators.max_dim"
        tracer.counters[key] = max(tracer.counters[key], result.dim)


def _suite_seconds(tracer, fn, args, kwargs, result, elapsed):
    tracer.counters[f"suites.{_bound(fn, args, kwargs)['cfg'].suite}.s"] += elapsed


COUNTERS = {
    "suites.run_suite": _suite_seconds,
    "heisenberg.one_parameter": _count_expm,
    "hilleyosida.resolvent_laplace": _count_laplace_nodes,
    "hilleyosida.yosida_reconstruct": _count_yosida_terms,
    "scale.build_scale_chain": _max_chain_dim,
    "blockrep.block_generators": _max_block_dim,
}

ZERO_COUNTERS = (
    "heisenberg.one_parameter.expm_calls",
    "hilleyosida.resolvent_laplace.nodes",
    "hilleyosida.yosida_reconstruct.terms",
    "scale.build_scale_chain.max_dim",
    "blockrep.block_generators.max_dim",
)


class Tracer:
    """Call counts and inclusive/self seconds per wrapped function."""

    def __init__(self):
        self.totals = {}
        self.counters = defaultdict(float)
        self.layer_of = {}
        self._stack = []

    def _wrap(self, key, fn):
        counter = COUNTERS.get(key)
        stack = self._stack
        totals = self.totals[key] = [0, 0.0, 0.0]  # calls, seconds, self seconds
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - children
                if counter is not None:
                    counter(self, fn, args, kwargs, result, elapsed)

        return traced

    def _targets(self, layer, mod):
        """(key, owner, attribute name, original) for each public callable."""
        names = ENTRY_POINTS.get(layer)
        for name, obj in sorted(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if names is not None:
                if name in names:
                    yield f"{layer}.{name}", mod, name, obj
            elif inspect.isclass(obj):
                if dataclasses.is_dataclass(obj):
                    continue  # value records: their accessors are not layer work
                for attr, member in sorted(vars(obj).items()):
                    if not attr.startswith("_") and inspect.isfunction(member):
                        yield f"{layer}.{attr}", obj, attr, member
            elif callable(obj):
                yield f"{layer}.{name}", mod, name, obj

    def install(self):
        """Wrap every layer's public callables; call once per process."""
        modules = {layer: importlib.import_module(f"scalerep.{layer}") for layer in LAYERS}
        namespaces = [importlib.import_module("scalerep")] + list(modules.values())
        for name in ZERO_COUNTERS + tuple(
            f"suites.{suite}.s" for suite in modules["suites"].SUITE_NAMES
        ):
            self.counters[name] = 0.0
        for layer, mod in modules.items():
            for key, owner, name, original in self._targets(layer, mod):
                if key in self.layer_of:
                    key = f"{layer}.{owner.__name__}.{name}"
                self.layer_of[key] = layer
                wrapper = self._wrap(key, original)
                setattr(owner, name, wrapper)
                if owner is mod:
                    for ns in namespaces:
                        for alias, value in list(vars(ns).items()):
                            if value is original:
                                setattr(ns, alias, wrapper)
        return self

    def metrics(self) -> dict:
        """Every recorded total, flat: ``<key>.calls``, ``<key>.s``,
        ``<layer>.self_s``, the counters, and ``hermite.gauss_hermite.hit_ratio``
        (cache hits over calls)."""
        out = {}
        self_s = dict.fromkeys(LAYERS, 0.0)
        for key, (calls, seconds, own) in sorted(self.totals.items()):
            out[f"{key}.calls"] = calls
            out[f"{key}.s"] = seconds
            self_s[self.layer_of[key]] += own
        out.update((f"{layer}.self_s", value) for layer, value in self_s.items())
        out.update(self.counters)
        calls = self.totals["hermite.gauss_hermite"][0]
        cached = importlib.import_module("scalerep.hermite").gauss_hermite.__wrapped__
        hits = cached.cache_info().hits
        out["hermite.gauss_hermite.hit_ratio"] = hits / calls if calls else 0.0
        return out
