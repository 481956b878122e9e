import csv
import io
import json
import os
import subprocess
import sys
import types

import numpy as np
import pytest
import scipy.linalg

import scalerep
from scalerep.cli import main
from scalerep.errors import UsageError
from scalerep.heisenberg import HermiteHeisenberg, UnitaryGroup
from scalerep.report import CheckRecord, render, to_csv, to_json
from scalerep.sampling import case_rng
from scalerep import suites
from scalerep.suites import (
    DEFAULT_M,
    DEFAULT_N,
    REQUIRED_ANCHORS,
    SUITE_NAMES,
    Case,
    CaseRecorder,
    SuiteConfig,
    coverage_map,
    missing_anchors,
    run_suite,
)


def sample_records():
    return [
        CheckRecord("b-suite", "case-2", ("e1.1",), {"n": 1}, 0.5, 1.0, 1.0, True, 0.123),
        CheckRecord("a-suite", "case-1", ("2.4", "2.5"), {}, 2.0, 1.0, 1.0, False, 0.5),
    ]


def test_csv_shape_and_sorting():
    text = to_csv(sample_records())
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["suite", "case", "anchor", "measured", "bound", "tolerance", "pass", "seconds"]
    assert rows[1][0] == "a-suite" and rows[2][0] == "b-suite"
    assert rows[1][2] == "2.4;2.5"
    assert rows[1][6] == "false" and rows[2][6] == "true"
    assert rows[1][7] == "0"          # timings zeroed by default
    assert "\r" not in text


def test_csv_timings_flag():
    text = to_csv(sample_records(), timings=True)
    rows = list(csv.reader(io.StringIO(text)))
    assert float(rows[2][7]) == 0.123


def test_json_matches_csv_triples():
    records = sample_records()
    data = json.loads(to_json(records))
    csv_rows = list(csv.reader(io.StringIO(to_csv(records))))[1:]
    triples_json = [(r["suite"], r["case"], r["pass"]) for r in data]
    triples_csv = [(r[0], r[1], r[6] == "true") for r in csv_rows]
    assert triples_json == triples_csv


def test_empty_report():
    assert json.loads(to_json([])) == []
    rows = list(csv.reader(io.StringIO(to_csv([]))))
    assert len(rows) == 1


def test_render_rejects_unknown_format():
    with pytest.raises(UsageError):
        render([], "xml")


def test_float_rendering_17_digits():
    rec = CheckRecord("s", "c", ("a",), {}, 1 / 3, 1.0, 1.0, True, 0.0)
    text = to_csv([rec])
    assert "0.33333333333333331" in text


def test_coverage_complete():
    assert missing_anchors() == set()
    covered = {a for _, _, anchors in coverage_map() for a in anchors}
    assert set(REQUIRED_ANCHORS) <= covered


def test_run_suite_determinism_fast():
    cfg = SuiteConfig(suite="lie-core", seed=7)
    rec1, status1 = run_suite(cfg)
    rec2, status2 = run_suite(cfg)
    assert status1 == status2 == 0
    assert to_json(rec1) == to_json(rec2)
    assert to_csv(rec1) == to_csv(rec2)


def test_run_suite_seed_changes_inputs_not_verdict():
    a, _ = run_suite(SuiteConfig(suite="lie-core", seed=1))
    b, _ = run_suite(SuiteConfig(suite="lie-core", seed=2))
    assert len(a) == len(b)
    assert [r.case for r in a] == [r.case for r in b]


def test_config_validation():
    with pytest.raises(UsageError):
        SuiteConfig(suite="nope").validate()
    with pytest.raises(UsageError):
        SuiteConfig(tol={"bogus": 1.0}).validate()
    with pytest.raises(UsageError):
        SuiteConfig(fmt="xml").validate()
    with pytest.raises(UsageError):
        SuiteConfig(trunc=4).validate()
    with pytest.raises(UsageError):
        SuiteConfig(x3_sign="mystery").validate()


def test_cli_list_suites(capsys):
    assert main(["list-suites"]) == 0
    out = capsys.readouterr().out
    assert "lie-core" in out and "all" in out


def test_cli_coverage(capsys):
    assert main(["coverage"]) == 0
    out = capsys.readouterr().out
    assert "lie-core:lc-01-structure-constants" in out
    assert "coverage complete" in out


def test_cli_run_lie_core_exit_zero(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = main(["run", "--suite", "lie-core", "--seed", "7", "--out", str(out), "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(out.open()))
    assert rows[0][0] == "suite"
    assert all(r[6] == "true" for r in rows[1:])


def test_cli_byte_identical_reports(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(["run", "--suite", "scale-core", "--out", str(a)])
    main(["run", "--suite", "scale-core", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_cli_bad_usage_exit_two(tmp_path, capsys):
    assert main(["run", "--suite", "lie-core", "--tol", "nonsense"]) == 2
    assert main(["run", "--suite", "lie-core", "--tol", "bogus=1.0"]) == 2
    assert main(["run", "--suite", "lie-core", "--lambda", "a,b"]) == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert main(["run", "--config", str(cfg)]) == 2
    cfg.write_text('{"mystery": 1}')
    assert main(["run", "--config", str(cfg)]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2


def test_cli_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "suite": "lie-core",
                "seed": 11,
                "format": "csv",
                "tol": {"algebraic": 1e-10},
            }
        )
    )
    out = tmp_path / "r.csv"
    code = main(["run", "--config", str(cfg), "--seed", "12", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "1.0000000000000001e-10" in text or "1e-10" in text


def run_cli_child(*args):
    # the child imports the same scalerep as this process, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(scalerep.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "scalerep.cli", *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


def test_cli_entry_point_runs():
    proc = run_cli_child("list-suites")
    assert proc.returncode == 0
    assert "nilpotent-l2" in proc.stdout


def test_scaled_block_run_writes_a_full_report(tmp_path):
    # the scaled nilpotent-l2 run at 400 blocks (a 1200-dim model)
    out = tmp_path / "nl400.json"
    proc = run_cli_child("run", "--suite", "nilpotent-l2", "--trunc", "400", "--out", str(out))
    assert proc.returncode in (0, 1)
    assert "Traceback" not in proc.stderr
    rows = json.loads(out.read_text())
    assert len(rows) == 24
    assert {r["case"].split("/")[0] for r in rows} == {
        c.case_id for c in suites.SUITES["nilpotent-l2"]
    }


def test_cli_refuses_depth_one_for_level_two_suites(tmp_path, capsys, monkeypatch):
    # sc-02 and hy-02 measure at level 2: refused before any case runs
    def no_run(cfg):
        raise AssertionError("a suite started")

    monkeypatch.setattr("scalerep.cli.run_suite", no_run)
    for suite in ("scale-core", "hille-yosida", "all"):
        out = tmp_path / f"{suite}.json"
        assert main(["run", "--suite", suite, "--nmax", "1", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "n_max must be >= 2" in captured.err
        assert not out.exists()
    for suite in ("heisenberg-hermite", "nilpotent-l2"):
        SuiteConfig(suite=suite, n_max=1).validate()


def test_timings_stamp_each_case_time_once(monkeypatch):
    def three_rows(cfg, ctx, rec):
        for name in ("a", "b", "c"):
            rec.check(name, 0.0, 1.0)

    clock = iter([0.0, 1.5, 10.0, 12.25])
    monkeypatch.setattr(suites, "time", types.SimpleNamespace(perf_counter=lambda: next(clock)))
    cases = (Case("xx-01", (), three_rows), Case("xx-02", (), three_rows))
    monkeypatch.setitem(suites.SUITES, "lie-core", cases)
    records, _ = run_suite(SuiteConfig(suite="lie-core"))
    assert [r.seconds for r in records] == [1.5, 0.0, 0.0, 2.25, 0.0, 0.0]
    timed = list(csv.reader(io.StringIO(render(records, "csv", timings=True))))[1:]
    assert sum(float(r[7]) for r in timed) == 3.75   # the suite's time, counted once
    default = list(csv.reader(io.StringIO(render(records, "csv"))))[1:]
    assert {r[7] for r in default} == {"0"}


def test_trunc_sets_the_block_count_only_for_nilpotent_l2_alone(monkeypatch):
    seen = {}

    def spy(cfg, ctx, rec):
        seen[rec.suite] = (ctx.N, ctx.M)

    monkeypatch.setattr(suites, "SUITES", {name: (Case("spy", (), spy),) for name in SUITE_NAMES})
    run_suite(SuiteConfig(suite="all", trunc=80))
    assert seen == dict.fromkeys(SUITE_NAMES, (80, DEFAULT_M))
    run_suite(SuiteConfig(suite="nilpotent-l2", trunc=80))
    assert seen["nilpotent-l2"] == (DEFAULT_N, 80)


def test_hermite_suites_never_assemble_a_group_matrix(monkeypatch):
    # every Hermite check needs only T(g) phi, so no case may build the
    # N x N unitary of a group element or one-parameter subgroup
    guarded = ("scale-core", "heisenberg-hermite", "hille-yosida")
    counts = {name: len(run_suite(SuiteConfig(suite=name))[0]) for name in guarded}

    def refuse(*args, **kwargs):
        raise AssertionError("a dense group matrix was assembled")

    monkeypatch.setattr(HermiteHeisenberg, "one_parameter", refuse)
    monkeypatch.setattr(HermiteHeisenberg, "action_factored", refuse)
    monkeypatch.setattr(UnitaryGroup, "__call__", refuse)
    for name in guarded:
        assert len(run_suite(SuiteConfig(suite=name))[0]) == counts[name]


def test_integrator_runs_on_the_cached_subgroups_without_expm(monkeypatch):
    cfg = SuiteConfig(suite="integrator")
    count = len(run_suite(cfg)[0])

    def refuse(*args, **kwargs):
        raise AssertionError("scipy.linalg.expm was called")

    monkeypatch.setattr(scipy.linalg, "expm", refuse)
    assert len(run_suite(cfg)[0]) == count
    ctx = suites.SuiteContext(cfg)
    evaluators = ctx.hermite_integrable().evaluators
    for i in (1, 2):
        for t in (0.0, 0.37, -1.9):
            assert np.array_equal(evaluators[i - 1](t), ctx.hermite.subgroups[i - 1](t))


def test_validate_refuses_hermite_truncations_below_the_floor():
    assert suites.HERMITE_SUITE_MIN_TRUNC == 54
    for suite in ("heisenberg-hermite", "all"):
        with pytest.raises(UsageError, match="at least 54 for heisenberg-hermite"):
            SuiteConfig(suite=suite, trunc=53).validate()
        SuiteConfig(suite=suite, trunc=54).validate()
    for suite in SUITE_NAMES:
        if suite != "heisenberg-hermite":
            SuiteConfig(suite=suite, trunc=53).validate()


def test_cli_refuses_a_hermite_truncation_the_suite_cannot_finish(tmp_path, capsys, monkeypatch):
    # hh-07 used to refuse its own vectors at N = 32, after six cases had run
    def no_run(cfg):
        raise AssertionError("a suite started")

    monkeypatch.setattr("scalerep.cli.run_suite", no_run)
    out = tmp_path / "hh32.json"
    assert main(["run", "--suite", "heisenberg-hermite", "--trunc", "32", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err
    assert "at least 54 for heisenberg-hermite" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("seed", (42, 0, 7))
def test_heisenberg_hermite_completes_at_the_floor(seed):
    cfg = SuiteConfig(suite="heisenberg-hermite", trunc=suites.HERMITE_SUITE_MIN_TRUNC, seed=seed)
    records, _ = run_suite(cfg)
    assert {r.case.split("/")[0] for r in records} == {
        c.case_id for c in suites.SUITES["heisenberg-hermite"]
    }


def recorder():
    return CaseRecorder(42, "some-suite", "xx-01-case", ("e1.1",))


def test_worst_floors_at_zero_and_counts_the_draws():
    rec = recorder()
    rec.worst("nonpositive", (v for v in (-3.0, 0.0, -1e-300)), 1e-12, note="kept")
    rec.worst("positive", [0.25, 2.0, 1.0], 1.5)
    low, high = rec.records
    assert (low.measured, low.bound, low.passed) == (0.0, 1e-12, True)
    assert low.inputs == {"samples": 3, "note": "kept"}
    assert (high.measured, high.passed, high.inputs) == (2.0, False, {"samples": 3})
    assert high.case == "xx-01-case/positive" and high.anchors == ("e1.1",)


def test_holds_and_raises_record_a_flag_against_zero():
    rec = recorder()
    rec.holds("true-flag", True, M=3)
    rec.holds("false-flag", False)
    rec.raises("fires", UsageError, lambda: suites.SuiteConfig(n_max=0).validate(), note="n")
    rec.raises("silent", UsageError, lambda: None)
    flags = [(r.case.split("/")[1], r.measured, r.bound, r.tolerance, r.passed) for r in rec.records]
    assert flags == [
        ("true-flag", 0.0, 0.0, 0.0, True),
        ("false-flag", 1.0, 0.0, 0.0, False),
        ("fires", 0.0, 0.0, 0.0, True),
        ("silent", 1.0, 0.0, 0.0, False),
    ]
    assert [r.inputs for r in rec.records] == [{"M": 3}, {}, {"note": "n"}, {}]


def test_raises_lets_other_errors_propagate():
    rec = recorder()

    def wrong():
        raise ZeroDivisionError("not the expected error")

    with pytest.raises(ZeroDivisionError):
        rec.raises("fires", UsageError, wrong)
    assert rec.records == []


def test_recorder_stream_is_the_case_stream():
    expected = case_rng(42, "some-suite", "xx-01-case").standard_normal(8)
    assert np.array_equal(recorder().rng.standard_normal(8), expected)


def test_samples_input_counts_the_draws_below_the_default_depth():
    # at n_max=2 the per-depth loops run over two depths, not three
    rows = {}
    for name in ("scale-core", "heisenberg-hermite"):
        rows.update((r.case, r.inputs) for r in run_suite(SuiteConfig(suite=name, n_max=2))[0])
    assert rows["sc-03-monotonicity/random-vectors"]["samples"] == 200
    assert rows["sc-05-group-bound-generic/random-pairs"]["samples"] == 100
    assert rows["hh-12-growth-generic/random"]["samples"] == 60
