"""Tests of the benchmark itself, chiefly of the traced run.

    python3 -m pytest -q bench/selftest.py

Each workload is run once untraced and once traced at seed 42 (about two
minutes in all on two cores).  The file is not named test_*.py so that the
project's own test command does not collect it.
"""

import json
import math
import shutil
import subprocess
import sys
import time

import pytest

import run

LAYER_CALLS = {
    "heisenberg": ("one_parameter", "action_factored", "action_analytic"),
    "hilleyosida": (
        "resolvent_laplace",
        "resolvent_matrix",
        "resolvent_closed_form_x2",
        "yosida_reconstruct",
        "estimate_beta",
    ),
    "hermite": ("hermite_functions", "gauss_hermite"),
    "scale": ("build_scale_chain", "scale_norm", "scale_operator_norm"),
    "blockrep": ("block_generators", "rep_operator", "rep_homomorphism_residual", "nilpotent_resolvent"),
    "integrator": ("integrate_chart",),
    "liecore": ("ad_series",),
    "sampling": ("interior_vector",),
    "report": ("render",),
}

# The layers each workload is meant to load, and those it must leave idle.
LOADS = {
    "report-default": tuple(LAYER_CALLS),
    "report-threaded": tuple(LAYER_CALLS),
    "hermite-large": ("heisenberg", "hilleyosida", "hermite", "scale", "report"),
    "blocks-large": ("blockrep", "report"),
}
IDLE = {
    "hermite-large": ("integrator", "liecore"),
    "blocks-large": ("heisenberg", "hilleyosida", "hermite", "integrator", "liecore"),
}


def _calls(layer):
    return [f"{layer}.{fn}.calls" for fn in LAYER_CALLS[layer]]


@pytest.fixture(scope="module")
def reports():
    out = {}
    for name, workload in run.WORKLOADS.items():
        spec = {"src": str(run.SRC), "suites": list(workload.suites), "trunc": workload.trunc,
                "seed": run.REFERENCE_SEED, "trace": False, "import_only": False}
        env = run.child_env(workload)
        deadline = time.monotonic() + 600
        out[name] = (run.run_child(spec, env, deadline), run.run_child(dict(spec, trace=True), env, deadline))
    return out


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_report_is_byte_identical(reports, name):
    plain, traced = reports[name]
    ref_text, _ = run.load_reference(run.WORKLOADS[name].reference)
    assert plain["report"] == ref_text
    assert traced["report"] == plain["report"]


def test_report_default_matches_the_cli():
    env = dict(run.child_env(run.WORKLOADS["report-default"]), PYTHONPATH=str(run.SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "scalerep.cli", "run", "--suite", "all"],
        cwd=run.ROOT, env=env, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 1  # acceptance criteria 5 and 6 fail at the defaults
    assert proc.stdout == run.load_reference("report-default")[0]


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_layers_fire_where_loaded(reports, name):
    layers = reports[name][1]["layers"]
    for layer in LOADS[name]:
        for key in _calls(layer):
            assert layers[key] > 0, key
    for layer in IDLE.get(name, ()):
        for key in _calls(layer):
            assert layers[key] == 0, key


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_self_times_add_up_to_report_time(reports, name):
    traced = reports[name][1]
    self_s = sum(v for k, v in traced["layers"].items() if k.endswith(".self_s"))
    assert self_s <= traced["report_s"]
    assert self_s == pytest.approx(traced["report_s"], rel=0.01)


def test_workloads_separate_the_layers(reports):
    def share(name, layers):
        traced = reports[name][1]
        return sum(traced["layers"][f"{layer}.self_s"] for layer in layers) / traced["report_s"]

    assert share("blocks-large", ("blockrep",)) > 0.5
    assert share("hermite-large", ("blockrep",)) < 0.01
    assert share("hermite-large", ("heisenberg", "hilleyosida", "hermite")) > 0.5


def test_seed_42_accounting(reports):
    failed = {name: (len(plain["failed_cases"]), plain["cases"]) for name, (plain, _) in reports.items()}
    assert failed == {
        "report-default": (2, 71),
        "report-threaded": (2, 71),
        "hermite-large": (1, 35),
        "blocks-large": (1, 9),
    }


def test_every_benchmark_metric_is_produced(reports):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    plain, traced = reports["report-default"]
    measured = {"plain": [plain], "traced": [traced], "imports": [plain["import_s"]]}
    assert {m["name"] for m in spec["end_to_end"]} == set(run.end_to_end(measured))
    values = run.per_layer(measured)
    for m in spec["per_layer"]:
        assert math.isfinite(values[m["name"]]), m["name"]
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def test_comparison_lists_changed_rows():
    ref_text, ref_rows = run.load_reference("blocks-large")
    rows = json.loads(ref_text)
    changed = next(r for r in rows[3:] if float(r["measured"]) not in (0.0, math.inf))
    changed["measured"] = format(float(changed["measured"]) * 1.5, ".17g")
    rows[0]["pass"] = not rows[0]["pass"]
    del rows[2]
    check = run.compare_with_reference(json.dumps(rows), ref_text, ref_rows)
    key = lambda r: f"{r['suite']}:{r['case']}"
    assert not check["sha256_match"]
    assert check["flipped"] == [key(rows[0])]
    assert check["missing"] == [key(ref_rows[2])]
    assert check["added"] == []
    assert check["max_rel_change"] == pytest.approx(0.5)
    assert check["max_rel_change_row"] == key(changed)

    same = run.compare_with_reference(ref_text, ref_text, ref_rows)
    assert same["sha256_match"] and same["max_rel_change"] == 0.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "report-default", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
