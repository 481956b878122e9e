"""The program names the benchmark's per-layer metrics read.

``bench/layertrace.py`` wraps the public functions of each module and the
public methods of its non-dataclass classes, and ``BENCHMARK.json`` names
a metric ``<layer>.<name>.calls`` for some of them.  A rename or a deletion
of such a name ends a traced bench run in ``KeyError``; these tests make it
fail here first.
"""

import dataclasses
import importlib
import inspect
import json
from pathlib import Path

import pytest

from scalerep import hermite, hilleyosida

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _call_metrics():
    spec = json.loads(BENCHMARK.read_text())
    names = (m["name"].split(".") for m in spec["per_layer"])
    return [(parts[0], parts[1]) for parts in names if len(parts) == 3 and parts[2] == "calls"]


def _traced_names(mod):
    """Public functions of ``mod`` and public methods of its non-dataclass classes."""
    out = set()
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isclass(obj):
            if not dataclasses.is_dataclass(obj):
                out.update(a for a, m in vars(obj).items()
                           if not a.startswith("_") and inspect.isfunction(m))
        elif inspect.isfunction(obj):
            out.add(name)
    return out


def test_the_benchmark_names_call_metrics():
    assert len(_call_metrics()) >= 10


@pytest.mark.parametrize("layer, name", _call_metrics())
def test_every_call_metric_names_a_traced_callable(layer, name):
    mod = importlib.import_module(f"scalerep.{layer}")
    assert name in _traced_names(mod), f"{layer}.{name} is read by the benchmark"


def test_the_counters_keep_their_hooks():
    assert "nodes_per_panel" in inspect.signature(hilleyosida.resolvent_laplace).parameters
    assert callable(hermite.gauss_hermite.cache_info)
