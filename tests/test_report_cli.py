import csv
import io
import json
import os
import subprocess
import sys

import pytest

import scalerep
from scalerep.cli import main
from scalerep.errors import UsageError
from scalerep.heisenberg import HermiteHeisenberg, UnitaryGroup
from scalerep.report import CheckRecord, render, to_csv, to_json
from scalerep import suites
from scalerep.suites import (
    DEFAULT_M,
    DEFAULT_N,
    REQUIRED_ANCHORS,
    SUITE_NAMES,
    Case,
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


def test_cli_entry_point_runs():
    # the child imports the same scalerep as this process, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(scalerep.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "scalerep.cli", "list-suites"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert "nilpotent-l2" in proc.stdout


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
