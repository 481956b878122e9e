import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import types

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings, strategies as st

import scalerep
from scalerep import blockrep, heisenberg, integrator, liecore, sampling, suite_nilpotent_l2
from scalerep.cli import build_config, main, make_parser
from scalerep.errors import AccuracyError, ConvergenceError, SingularOperatorError, UsageError
from scalerep.heisenberg import HermiteHeisenberg
from scalerep.report import CheckRecord, render, to_csv, to_json
from scalerep.sampling import CHART_BOX, case_rng, group_element, interior_vector
from scalerep.scale import monotonicity_check, scale_norm
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
        CheckRecord("b-suite", "case-2", ("e1.1",), {"n": 1}, 0.5, 1.0, True, 0.123),
        CheckRecord("a-suite", "case-1", ("2.4", "2.5"), {}, 2.0, 1.0, False, 0.5),
    ]


def test_csv_shape_and_sorting():
    text = to_csv(sample_records())
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["suite", "case", "anchor", "measured", "bound", "tolerance", "pass", "seconds"]
    assert rows[1][0] == "a-suite" and rows[2][0] == "b-suite"
    assert rows[1][2] == "2.4;2.5"
    assert rows[1][4] == rows[1][5] == "1"   # the tolerance column repeats the bound
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
    rec = CheckRecord("s", "c", ("a",), {}, 1 / 3, 1.0, True, 0.0)
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
    # hy-10's reconstruction rule, applied before any case runs
    for lams in ((50.0, 20.0), (-1.0, 2.0)):
        with pytest.raises(UsageError, match="lambda_sequence must be"):
            SuiteConfig(lambda_sequence=lams).validate()


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
    with out.open() as f:
        rows = list(csv.reader(f))
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
                "nmax": 2,
                "lambda": [5, 6],
                "tol": {"algebraic": 1e-10},
            }
        )
    )

    def fields(*flags):
        c = build_config(make_parser().parse_args(["run", "--config", str(cfg), *flags]))
        return c.fmt, c.n_max, c.lambda_sequence, c.seed

    # the flag spellings reach their fields, and a flag beats the file
    assert fields() == ("csv", 2, (5.0, 6.0), 11)
    flagged = fields("--format", "json", "--nmax", "4", "--lambda", "7,8", "--seed", "12")
    assert flagged == ("json", 4, (7.0, 8.0), 12)
    out = tmp_path / "r.csv"
    code = main(["run", "--config", str(cfg), "--seed", "12", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "1.0000000000000001e-10" in text or "1e-10" in text


def run_child(*args):
    # the child imports the same scalerep as this process, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(scalerep.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


def run_cli_child(*args):
    return run_child("-m", "scalerep.cli", *args)


def test_hille_yosida_runs_without_scipy():
    # the Laplace panels and the hy-06 oracle come from numpy and math
    proc = run_child(
        "-c",
        "import sys\n"
        "from scalerep.suites import SuiteConfig, run_suite\n"
        "run_suite(SuiteConfig(suite='hille-yosida'))\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_the_hermite_suites_need_no_eigh_and_no_numpy_polynomial():
    # every Hermite eigenbasis and quadrature rule comes from the ladder, and
    # the Laplace panels from their own Gauss-Legendre rule (heisenberg-hermite
    # refuses a truncation below 54)
    proc = run_child(
        "-c",
        "import sys\n"
        "import numpy as np\n"
        "def refuse(*args, **kwargs):\n"
        "    raise AssertionError('eigh called')\n"
        "np.linalg.eigh = refuse\n"
        "from scalerep.suites import SuiteConfig, run_suite\n"
        "for suite, trunc in (('scale-core', 32), ('heisenberg-hermite', 64), ('hille-yosida', 32)):\n"
        "    run_suite(SuiteConfig(suite=suite, trunc=trunc))\n"
        "print('numpy.polynomial' in sys.modules)",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_entry_point_runs():
    proc = run_cli_child("list-suites")
    assert proc.returncode == 0
    assert "nilpotent-l2" in proc.stdout


@pytest.mark.parametrize(
    "suite", ("lie-core", "scale-core", "heisenberg-hermite", "hille-yosida", "nilpotent-l2")
)
def test_a_report_does_not_depend_on_the_blas_thread_count(suite, monkeypatch):
    # integrator is left out: its in-14 rows take the 2-norm (an SVD) of
    # exp(t X_i) applied to I, whose last bits differ between 1 and 2
    # OpenBLAS threads, until in-14 measures those norms without the SVD
    reports = []
    for threads in ("1", "2"):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        proc = run_cli_child("run", "--suite", suite)
        reports.append((proc.returncode, proc.stdout))
    assert reports[0][1].startswith("[") and reports[0] == reports[1]


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


def test_scaled_hermite_run_writes_a_full_report(tmp_path):
    # 640 modes: past the 320 nodes a Gauss-Hermite projection could use
    out = tmp_path / "hh640.json"
    proc = run_cli_child("run", "--suite", "heisenberg-hermite", "--trunc", "640", "--out", str(out))
    assert proc.returncode in (0, 1)
    assert "Traceback" not in proc.stderr
    cases = {r["case"].split("/")[0] for r in json.loads(out.read_text())}
    assert cases == {c.case_id for c in suites.SUITES["heisenberg-hermite"]}


def test_scaled_integrator_run_writes_a_full_report(tmp_path):
    # 320 modes: the chart is applied to vectors, never assembled.  in-08 and
    # in-12 fail there on their absolute finite-difference bounds, whose
    # truncation error grows with N; every other row passes.
    out = tmp_path / "in320.json"
    proc = run_cli_child("run", "--suite", "integrator", "--trunc", "320", "--out", str(out))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    rows = json.loads(out.read_text())
    assert len(rows) == 33
    assert {r["case"].split("/")[0] for r in rows} == {
        c.case_id for c in suites.SUITES["integrator"]
    }
    assert {r["case"] for r in rows if not r["pass"]} == {
        "in-08-derivative-identity/translated-variant",
        "in-12-dual-generator/finite-difference-generator",
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
    # N x N unitary of a group element or one-parameter subgroup: no group
    # matrix route is left in the Hermite model, and the one dense assembly
    # left in the package, the block model's, is refused (hy-03 applies the
    # block model's one-parameter group to vectors).  The factored route the
    # suites do take, action_factored, is counted: bench/layertrace.py
    # reports its calls, which must not read 0 on working code
    guarded = ("scale-core", "heisenberg-hermite", "hille-yosida")
    counts = {name: len(run_suite(SuiteConfig(suite=name))[0]) for name in guarded}

    def refuse(*args, **kwargs):
        raise AssertionError("a dense group matrix was assembled")

    factored = []
    action_factored = HermiteHeisenberg.action_factored

    def counted(self, g, phi):
        factored.append(g)
        return action_factored(self, g, phi)

    assert not any(callable(U) for U in HermiteHeisenberg(8).subgroups)
    monkeypatch.setattr(HermiteHeisenberg, "one_parameter", refuse)
    monkeypatch.setattr(blockrep, "rep_operator", refuse)
    monkeypatch.setattr(HermiteHeisenberg, "action_factored", counted)
    made = {}
    for name in guarded:
        factored.clear()
        assert len(run_suite(SuiteConfig(suite=name))[0]) == counts[name]
        made[name] = len(factored)
    # sc-05 at levels 1-3; hh-03, hh-05, hh-06 (three) and hh-12 at levels 1-3
    assert made == {"scale-core": 3, "heisenberg-hermite": 8, "hille-yosida": 0}


def test_hille_yosida_takes_every_resolvent_from_the_one_elimination(monkeypatch):
    # resolvent_matrix, the tridiagonal elimination, is the one matrix
    # resolvent: no case may build one by a general LAPACK solve or inverse
    cfg = SuiteConfig(suite="hille-yosida")
    count = len(run_suite(cfg)[0])

    def refuse(*args, **kwargs):
        raise AssertionError("a resolvent was built by a general solve")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    monkeypatch.setattr(np.linalg, "inv", refuse)
    assert len(run_suite(cfg)[0]) == count


def test_integrator_runs_on_the_cached_subgroups_without_expm(monkeypatch):
    cfg = SuiteConfig(suite="integrator")
    count = len(run_suite(cfg)[0])

    def refuse(*args, **kwargs):
        raise AssertionError("scipy.linalg.expm was called")

    monkeypatch.setattr(scipy.linalg, "expm", refuse)
    assert len(run_suite(cfg)[0]) == count
    ctx = suites.SuiteContext(cfg)
    evaluators = ctx.hermite.evaluators
    rng = np.random.default_rng(11)
    v = rng.standard_normal(ctx.N) + 1j * rng.standard_normal(ctx.N)
    block = rng.standard_normal((ctx.N, 4)) + 1j * rng.standard_normal((ctx.N, 4))
    for i in (1, 2):
        for t in (0.0, 0.37, -1.9):
            for x in (v, block):
                expect = ctx.hermite.subgroups[i - 1].apply(t, x)
                assert np.array_equal(evaluators[i - 1](t, x), expect)


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


def test_validate_refuses_integrator_truncations_below_the_floor():
    assert suites.INTEGRATOR_MIN_TRUNC == 13
    with pytest.raises(UsageError, match="at least 13 for integrator"):
        SuiteConfig(suite="integrator", trunc=12).validate()
    SuiteConfig(suite="integrator", trunc=13).validate()
    with pytest.raises(UsageError, match="at least 54 for heisenberg-hermite"):
        SuiteConfig(suite="all", trunc=13).validate()


@pytest.fixture
def no_case_runs(monkeypatch):
    def refuse(cfg, ctx, rec):
        raise AssertionError(f"case {rec.case} ran")

    spy = {name: (Case("spy", (), refuse),) for name in SUITE_NAMES}
    monkeypatch.setattr(suites, "SUITES", spy)


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["--suite", "all", "--lambda", "50,20"], None, "strictly increasing"),
        # a leading minus sign needs the = form, or argparse reads it as a flag
        (["--lambda=-1,2"], None, "must be positive"),
        ([], {"chart_box": -1}, "unknown config keys: ['chart_box']"),
        ([], {"t_grid": [0, 1]}, "unknown config keys: ['t_grid']"),
        (["--suite", "integrator", "--trunc", "8"], None, "at least 13 for integrator"),
        (["--suite", "integrator", "--trunc", "12"], None, "at least 13 for integrator"),
        # config-file values of the wrong type
        ([], {"trunc": "abc"}, "trunc='abc' is not of type int | None"),
        ([], {"seed": "x"}, "seed='x' is not of type int"),
        ([], {"lambda": "50,20"}, "lambda_sequence='50,20' is not of type tuple[float, ...]"),
        ([], {"tol": {"algebraic": "x"}}, "tol={'algebraic': 'x'} is not of type dict[str, float]"),
        ([], {"n_max": 2.5}, "n_max=2.5 is not of type int"),
        ([], {"timings": "yes"}, "timings='yes' is not of type bool"),
        ([], {"seed": True}, "seed=True is not of type int"),
        # two hy-10 rows compare lambda values: with one, one passes vacuously, one fails
        (["--suite", "hille-yosida", "--lambda", "10"], None, "needs at least two"),
        ([], {"lambda": [10]}, "needs at least two"),
        # the Hermite chain at 8 modes has room for depth 3 only
        (["--suite", "scale-core", "--trunc", "8", "--nmax", "4"], None, "at most 3"),
        (["--suite", "hille-yosida", "--trunc", "9", "--nmax", "4"], None, "at most 3"),
        # NaN fails every ordering test, and json.load reads NaN and Infinity
        (["--suite", "hille-yosida", "--lambda=1,nan"], None, "must be finite"),
        (["--suite", "hille-yosida", "--lambda=nan,2"], None, "must be finite"),
        (["--suite", "hille-yosida", "--lambda=2,inf"], None, "must be finite"),
        (["--suite", "hille-yosida", "--lambda=-inf,2"], None, "must be finite"),
        (["--suite", "hille-yosida"], {"lambda": [1, float("nan")]}, "must be finite"),
        (["--suite", "hille-yosida"], {"lambda": [2, float("inf")]}, "must be finite"),
        (["--suite", "hille-yosida"], {"lambda": [float("-inf"), 2]}, "must be finite"),
        # a NaN, infinite or negative tolerance would turn its gates off or fail them all
        (["--suite", "lie-core", "--tol", "algebraic=nan"], None, "must be finite and >= 0"),
        (["--suite", "lie-core", "--tol", "algebraic=inf"], None, "must be finite and >= 0"),
        (["--suite", "lie-core", "--tol", "algebraic=-1"], None, "must be finite and >= 0"),
        (["--suite", "lie-core"], {"tol": {"algebraic": float("inf")}}, "must be finite and >= 0"),
    ],
    ids=["lambda-decreasing", "lambda-negative", "chart-box-key", "t-grid-key",
         "integrator-trunc-8", "integrator-trunc-12", "trunc-string", "seed-string",
         "lambda-string", "tol-string", "n-max-float", "timings-string", "seed-bool",
         "lambda-one-value", "lambda-one-value-all", "nmax-past-guard-band-8",
         "nmax-past-guard-band-9", "lambda-nan-last", "lambda-nan-first", "lambda-inf",
         "lambda-minus-inf", "config-lambda-nan", "config-lambda-inf",
         "config-lambda-minus-inf", "tol-nan", "tol-inf", "tol-negative", "config-tol-inf"],
)
def test_cli_refuses_before_any_case_runs(tmp_path, capsys, no_case_runs, argv, config, message):
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    out = tmp_path / "report.json"
    assert main(["run", *argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert message in captured.err
    assert not out.exists()


@settings(max_examples=50, deadline=None)
@given(
    suite=st.sampled_from(SUITE_NAMES + ("all",)),
    trunc=st.integers(1, 80),
    n_max=st.integers(0, 5),
    lams=st.lists(st.sampled_from((-1.0, 0.0, 10.0, 20.0, 50.0)), min_size=1, max_size=4),
)
def test_cli_refusals_are_one_line_and_run_nothing(suite, trunc, n_max, lams):
    cfg = SuiteConfig(suite=suite, trunc=trunc, n_max=n_max, lambda_sequence=tuple(lams))
    try:
        cfg.validate()
    except UsageError:
        pass
    else:
        return  # an accepted draw would run its suites; the property is about refusals
    argv = ["run", "--suite", suite, "--trunc", str(trunc), "--nmax", str(n_max),
            f"--lambda={','.join(map(str, lams))}"]
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("scalerep.cli.run_suite", lambda cfg: pytest.fail("a suite started"))
        mp.setattr(sys, "stderr", err)
        assert main(argv) == 2
    assert len(err.getvalue().splitlines()) == 1


def _report_cases(out):
    return {row["case"].split("/")[0] for row in json.loads(out.read_text())}


@settings(max_examples=25, deadline=None)
@given(
    lams=st.lists(
        st.floats(min_value=0.0, max_value=1e4, exclude_min=True),
        min_size=2,
        max_size=4,
        unique=True,
    ).map(sorted)
)
@example(lams=[1e-10, 1.0])
@example(lams=[0.001, 1400.0])
@example(lams=[700.0, 1500.0])
def test_accepted_lambda_sequences_end_in_a_complete_report(tmp_path_factory, lams):
    # the sibling of the refusal property: an accepted draw runs every case to a report
    SuiteConfig(suite="hille-yosida", lambda_sequence=tuple(lams)).validate()
    out = tmp_path_factory.mktemp("hy") / "report.json"
    argv = ["run", "--suite", "hille-yosida", "--trunc", "16", "--out", str(out),
            f"--lambda={','.join(map(repr, lams))}"]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "stderr", io.StringIO())
        assert main(argv) in (0, 1)
    rows = json.loads(out.read_text())
    assert {row["case"].split("/")[0] for row in rows} == {
        c.case_id for c in suites.SUITES["hille-yosida"]
    }
    # hy-10's series length follows lambda |t|: every lambda up to 1400 is summed
    # (t = 0.5), and from 1500 on the first weight e^{-lambda/2} underflows
    hy10 = [row["case"].split("/")[1] for row in rows if row["case"].startswith("hy-10")]
    if lams[0] >= 1e-10 and lams[-1] <= 1400:
        assert f"distance-at-lam{50 if 50.0 in lams else lams[-1]:g}" in hy10
        assert "numerical-error" not in hy10
    if lams[0] >= 1e-10 and lams[-1] >= 1500:
        [row] = [r for r in rows if r["case"].startswith("hy-10")]
        assert row["inputs"]["message"].startswith("first series weight e^-")
        assert "underflows" in row["inputs"]["message"]


# the --trunc range each suite draws from: its floor in validate to about 40,
# and from the heisenberg-hermite floor for the suites that run it
TRUNC_RANGES = dict.fromkeys(SUITE_NAMES, (8, 40)) | {
    "integrator": (suites.INTEGRATOR_MIN_TRUNC, 40),
    "heisenberg-hermite": (suites.HERMITE_SUITE_MIN_TRUNC, 70),
    "all": (suites.HERMITE_SUITE_MIN_TRUNC, 70),
}


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    suite=st.sampled_from(SUITE_NAMES + ("all",)),
    n_max=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    x3_sign=st.sampled_from(liecore.X3_SIGN_CHOICES),
)
def test_accepted_configurations_end_in_a_complete_report(
    tmp_path_factory, data, suite, n_max, seed, x3_sign
):
    # the sibling of the refusal property for the other flags: every draw
    # validate accepts exits 0 or 1 with every case of its suite in the report;
    # a drawn tolerance that is NaN, infinite or negative is refused in one line
    trunc = data.draw(st.integers(*TRUNC_RANGES[suite]), label="trunc")
    tol = data.draw(
        st.dictionaries(st.sampled_from(sorted(suites.TOL_DEFAULTS)), st.floats(), max_size=3),
        label="tol",
    )
    cfg = SuiteConfig(suite=suite, trunc=trunc, n_max=n_max, seed=seed, x3_sign=x3_sign, tol=tol)
    try:
        dataclasses.replace(cfg, tol={}).validate()
    except UsageError:
        assume(False)
    try:
        cfg.validate()
        refused = False
    except UsageError:
        refused = True
    out = tmp_path_factory.mktemp("run") / "report.json"
    argv = ["run", "--suite", suite, "--trunc", str(trunc), "--nmax", str(n_max),
            "--seed", str(seed), "--x3-sign", x3_sign, "--out", str(out)]
    argv += [arg for key, value in tol.items() for arg in ("--tol", f"{key}={value!r}")]
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "stderr", err)
        code = main(argv)
    if refused:
        assert code == 2 and len(err.getvalue().splitlines()) == 1 and not out.exists()
        return
    assert code in (0, 1)
    names = SUITE_NAMES if suite == "all" else (suite,)
    assert _report_cases(out) == {c.case_id for name in names for c in suites.SUITES[name]}


def test_an_underflowing_series_fails_its_case_and_the_report_completes(tmp_path):
    # at lambda = 1500 and t = 0.5 the first weight e^{-750} of the reconstruction
    # series underflows; 700 completes first, so the message names 1500
    out = tmp_path / "hy.json"
    argv = ["run", "--suite", "hille-yosida", "--lambda", "700,1500", "--out", str(out)]
    assert main(argv) == 1
    assert _report_cases(out) == {c.case_id for c in suites.SUITES["hille-yosida"]}
    [row] = [r for r in json.loads(out.read_text()) if r["case"].startswith("hy-10")]
    assert row["case"] == "hy-10-yosida-reconstruction/numerical-error"
    assert row["pass"] is False
    assert row["inputs"]["error"] == "ConvergenceError"
    assert row["inputs"]["message"] == "first series weight e^-750 underflows at lambda=1500"
    assert row["inputs"]["quantity"] == "last_term" and float(row["measured"]) == 0.0


def test_a_subnormal_lambda_fails_its_case_as_a_singular_solve_without_warnings(tmp_path):
    # at lambda = 5e-324 the tridiagonal elimination overflows its first multiplier
    out = tmp_path / "hy.json"
    proc = run_cli_child("run", "--suite", "hille-yosida", "--lambda=5e-324,3", "--out", str(out))
    assert proc.returncode == 1, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert _report_cases(out) == {c.case_id for c in suites.SUITES["hille-yosida"]}
    [row] = [r for r in json.loads(out.read_text()) if r["case"].startswith("hy-10")]
    assert row["case"] == "hy-10-yosida-reconstruction/numerical-error"
    assert row["pass"] is False
    assert row["inputs"]["error"] == "SingularOperatorError"
    assert row["inputs"]["quantity"] == "condition_estimate" and row["measured"] == "inf"


@pytest.mark.parametrize(
    "error, quantity",
    [
        (AccuracyError("lost mass", residual=0.25), "residual"),
        (ConvergenceError("cap hit", last_term=0.25), "last_term"),
        (SingularOperatorError("singular", condition_estimate=0.25), "condition_estimate"),
    ],
)
def test_a_numerical_error_keeps_the_case_rows_and_adds_one_failed_row(
    monkeypatch, error, quantity
):
    def case(cfg, ctx, rec):
        rec.check("before", 0.0, 1.0)
        raise error

    def after(cfg, ctx, rec):
        rec.check("after", 0.0, 1.0)

    cases = (Case("c1", (), case), Case("c2", (), after))
    monkeypatch.setattr(suites, "SUITES", {"lie-core": cases})
    records, status = run_suite(SuiteConfig(suite="lie-core"))
    assert status == 1
    assert [(r.case, r.passed) for r in records] == [
        ("c1/before", True), ("c1/numerical-error", False), ("c2/after", True)
    ]
    failed = records[1]
    assert failed.measured == 0.25
    name = type(error).__name__
    assert failed.inputs == {"error": name, "message": str(error), "quantity": quantity}


@pytest.mark.parametrize("error", [UsageError("bad call"), KeyError("bug")])
def test_other_errors_still_end_the_run(monkeypatch, error):
    def case(cfg, ctx, rec):
        raise error

    monkeypatch.setattr(suites, "SUITES", {"lie-core": (Case("c1", (), case),)})
    with pytest.raises(type(error)):
        run_suite(SuiteConfig(suite="lie-core"))


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v):
    return isinstance(v, float) or _is_int(v)


# what each SuiteConfig field accepts from a JSON config file
FIELD_ACCEPTS = {
    "suite": lambda v: isinstance(v, str),
    "trunc": lambda v: v is None or _is_int(v),
    "n_max": _is_int,
    "seed": _is_int,
    "x3_sign": lambda v: isinstance(v, str),
    "lambda_sequence": lambda v: isinstance(v, list) and all(map(_is_number, v)),
    "tol": lambda v: isinstance(v, dict) and all(map(_is_number, v.values())),
    "out": lambda v: v is None or isinstance(v, str),
    "fmt": lambda v: isinstance(v, str),
    "timings": lambda v: isinstance(v, bool),
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)


def test_field_table_names_every_config_field():
    assert set(FIELD_ACCEPTS) == {f.name for f in dataclasses.fields(SuiteConfig)}


@settings(max_examples=50, deadline=None)
@given(field=st.sampled_from(sorted(FIELD_ACCEPTS)), value=json_values)
def test_config_values_of_the_wrong_type_are_refused_in_one_line(tmp_path_factory, field, value):
    assume(not FIELD_ACCEPTS[field](value))
    path = tmp_path_factory.mktemp("cfg") / "cfg.json"
    path.write_text(json.dumps({field: value}))
    ran = []
    spy = {name: (Case("spy", (), lambda cfg, ctx, rec: ran.append(rec.case)),) for name in SUITE_NAMES}
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(suites, "SUITES", spy)
        mp.setattr(sys, "stderr", err)
        assert main(["run", "--config", str(path)]) == 2
    assert len(err.getvalue().splitlines()) == 1
    assert "Traceback" not in err.getvalue()
    assert ran == []


def test_integrator_writes_a_report_at_its_floor(tmp_path):
    # seed 33 is the one seed of 0-39 at which N = 12 raises AccuracyError
    out = tmp_path / "in13.json"
    code = main(["run", "--suite", "integrator", "--trunc", "13", "--seed", "33", "--out", str(out)])
    assert code in (0, 1)
    cases = {row["case"].split("/")[0] for row in json.loads(out.read_text())}
    assert cases == {c.case_id for c in suites.SUITES["integrator"]}


@pytest.mark.parametrize("seed", (42, 0, 7))
def test_heisenberg_hermite_completes_at_the_floor(seed):
    cfg = SuiteConfig(suite="heisenberg-hermite", trunc=suites.HERMITE_SUITE_MIN_TRUNC, seed=seed)
    records, _ = run_suite(cfg)
    assert {r.case.split("/")[0] for r in records} == {
        c.case_id for c in suites.SUITES["heisenberg-hermite"]
    }


@pytest.mark.parametrize("seed", (0, 41))
def test_integrator_completes_where_it_used_to_raise(seed):
    # seed 0: the in-06 series summed on truncated matrices never converged;
    # seed 41: an in-05 product left the chart box
    records, _ = run_suite(SuiteConfig(suite="integrator", seed=seed))
    assert {r.case.split("/")[0] for r in records} == {
        c.case_id for c in suites.SUITES["integrator"]
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


def test_worst_reports_a_nan_sample_as_nan():
    rec = recorder()
    rec.worst("alone", [np.nan], 1e-12)
    rec.worst("first", (v for v in (np.nan, 0.5)), 1e-12)
    rec.worst("last", np.array([0.5, np.nan]), 1.0)
    for r, samples in zip(rec.records, (1, 2, 2)):
        assert np.isnan(r.measured) and not r.passed
        assert r.inputs == {"samples": samples}


def test_holds_and_raises_record_a_flag_against_zero():
    rec = recorder()
    rec.holds("true-flag", True, M=3)
    rec.holds("false-flag", False)
    rec.raises("fires", UsageError, lambda: suites.SuiteConfig(n_max=0).validate(), note="n")
    rec.raises("silent", UsageError, lambda: None)
    flags = [(r.case.split("/")[1], r.measured, r.bound, r.passed) for r in rec.records]
    assert flags == [
        ("true-flag", 0.0, 0.0, True),
        ("false-flag", 1.0, 0.0, False),
        ("fires", 0.0, 0.0, True),
        ("silent", 1.0, 0.0, False),
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
    # the block-evaluated sampled checks still count every draw
    for name in ("lie-core", "nilpotent-l2"):
        rows.update((r.case, r.inputs) for r in run_suite(SuiteConfig(suite=name))[0])
    for case in (
        "lc-05-group-associativity/triples",
        "lc-08-automorphism-homomorphism/pairs-consistent",
        "lc-08-automorphism-homomorphism/pairs-paper",
        "nl-04-rep-homomorphism/random-pairs",
    ):
        assert rows[case]["samples"] == 1000
    assert rows["lc-09-automorphism-constants-identity/random-paper"]["samples"] == 500
    assert rows["lc-04-group-identity-inverse/inverse-random"]["samples"] == 200


def _run_case(case_fn, suite, case_id, seed, trunc=None):
    cfg = SuiteConfig(suite=suite, seed=seed, trunc=trunc)
    anchors = next(c.anchors for c in suites.SUITES[suite] if c.case_id == case_id)
    rec = CaseRecorder(seed, suite, case_id, anchors)
    case_fn(cfg, suites.SuiteContext(cfg), rec)
    return rec.records


def _per_sample_lc05(cfg, ctx, rec):
    # one triple per draw, each residual from scalar coordinates
    def residual(g, h, k):
        lhs = liecore.group_multiply(liecore.group_multiply(g, h), k)
        rhs = liecore.group_multiply(g, liecore.group_multiply(h, k))
        gaps = [lhs.xi1 - rhs.xi1, lhs.xi2 - rhs.xi2, lhs.xi3 - rhs.xi3]
        return float(np.max(np.abs(np.array(gaps))))

    triples = ([group_element(rec.rng, CHART_BOX) for _ in range(3)] for _ in range(1000))
    rec.worst("triples", (residual(*t) for t in triples), cfg.tolerance("algebraic"))


def _per_sample_nl04(cfg, ctx, rec):
    fam = ctx.blocks
    S1, S2, S3 = fam.stacks

    def residual(g, h):
        # the whole-stack evaluation of one pair
        rep = lambda e: np.eye(3) + e.xi1 * S1 + e.xi2 * S2 + e.xi3 * S3
        rhs = rep(liecore.group_multiply(g, h))
        scale = max(1.0, float(np.max(np.abs(rhs))))
        return float(np.max(np.abs(rep(g) @ rep(h) - rhs))) / scale

    tol = cfg.tolerance("block_exact")
    named = residual(liecore.GroupElement(1, 0, 0), liecore.GroupElement(0, 1, 0))
    rec.check("frozen-pair", named, tol)
    draw = lambda: group_element(rec.rng, CHART_BOX)
    samples = (residual(draw(), draw()) for _ in range(1000))
    rec.worst("random-pairs", samples, tol, note="relative to entry scale")
    identity = fam.rep_stack(liecore.IDENTITY)
    rec.check("identity-element", float(np.max(np.abs(identity - np.eye(3)))), 0.0)


def _per_sample_sc03(cfg, ctx, rec):
    def excess(n):
        phi = interior_vector(rec.rng, ctx.N, ctx.chain.family.interior_modes(n + 1))
        res = monotonicity_check(ctx.chain, phi, n)
        return max(res.lhs - res.rhs, max(g - res.rhs for g in res.generator_lhs))

    samples = (excess(n) for n in range(min(cfg.n_max, 3)) for _ in range(100))
    rec.worst("random-vectors", samples, cfg.tolerance("algebraic"))


def _per_sample_sc07(cfg, ctx, rec):
    def defects():
        n = int(rec.rng.integers(0, min(cfg.n_max, 3) + 1))
        phi = interior_vector(rec.rng, ctx.N, ctx.N // 2)
        psi = interior_vector(rec.rng, ctx.N, ctx.N // 2)
        c = complex(rec.rng.standard_normal(), rec.rng.standard_normal())
        norm = lambda v: scale_norm(ctx.chain, v, n)
        return abs(norm(c * phi) - abs(c) * norm(phi)), norm(phi + psi) - norm(phi) - norm(psi)

    rows = [defects() for _ in range(100)]
    bound = cfg.tolerance("algebraic") * ctx.chain.gram(min(cfg.n_max, 3)).max_entry()
    rec.worst("homogeneity", (h for h, _ in rows), bound)
    rec.worst("triangle", (t for _, t in rows), bound)


@pytest.mark.parametrize("seed", (7, 42))
@pytest.mark.parametrize(
    "suite, case_id, oracle",
    (
        ("lie-core", "lc-05-group-associativity", _per_sample_lc05),
        ("nilpotent-l2", "nl-04-rep-homomorphism", _per_sample_nl04),
        ("scale-core", "sc-03-monotonicity", _per_sample_sc03),
        ("scale-core", "sc-07-norm-properties", _per_sample_sc07),
    ),
)
def test_block_evaluated_cases_record_what_the_per_sample_loops_do(suite, case_id, oracle, seed):
    fn = next(c.fn for c in suites.SUITES[suite] if c.case_id == case_id)
    records = _run_case(fn, suite, case_id, seed)
    expected = _run_case(oracle, suite, case_id, seed)
    # sc-03 adds frozen rows after its random ones; the oracle covers the sampled rows
    assert records[: len(expected)] == expected
    assert all(type(v) in (int, float, str, bool) for r in records for v in r.inputs.values())


def _per_vector_nl03(cfg, ctx, rec):
    fam, chain = ctx.blocks, ctx.block_chain
    rec.check(
        "gram2-collapse-identity",
        blockrep.collapse_identity_residual(fam, chain),
        cfg.tolerance("block_exact") * fam.M**4,
    )
    # one draw and two scale norms per vector
    lo_b, hi_b = blockrep.NORM_RATIO_BOUNDS
    ratios = []
    for _ in range(1000):
        phi = interior_vector(rec.rng, fam.dim, fam.dim)
        ratios.append(scale_norm(chain, phi, 2) / scale_norm(chain, phi, 1))
    lo, hi = min(ratios), max(ratios)
    rec.check(
        "ratio-window",
        hi,
        hi_b + 1e-12,
        passed=lo >= lo_b - 1e-12 and hi <= hi_b + 1e-12,
        ratio_min=float(lo),
        samples=1000,
    )
    phi = np.zeros(fam.dim, dtype=complex)
    phi[3 * fam.M - 1] = 1.0
    ratio = scale_norm(chain, phi, 2) / scale_norm(chain, phi, 1)
    rec.check("supremum-approach", hi_b - ratio, 1e-3, ratio=ratio)
    kernel = np.zeros(fam.dim, dtype=complex)
    kernel[0] = 1.0
    vals = [scale_norm(chain, kernel, n) for n in (0, 1, 2)]
    rec.check("kernel-vector-flat", max(vals) - min(vals), cfg.tolerance("block_exact"))


def _per_vector_nl09(cfg, ctx, rec):
    g = liecore.GroupElement(1.0, 1.0, 1.0)
    norms = [
        blockrep.h1_operator_norm(blockrep.block_generators(M), g) for M in suite_nilpotent_l2.BLOCK_LADDER
    ]
    variation = (max(norms) - min(norms)) / max(norms)
    rec.check(
        "ladder-variation",
        variation,
        cfg.tolerance("ladder_variation"),
        norms=norms,
        ladder=list(suite_nilpotent_l2.BLOCK_LADDER),
    )
    fam, chain = ctx.blocks, ctx.block_chain
    bound = blockrep.h1_operator_norm(fam, g)

    def ratio():
        phi = interior_vector(rec.rng, fam.dim, fam.dim)
        return scale_norm(chain, blockrep.rep_apply(g, fam, phi), 1) / scale_norm(chain, phi, 1)

    rec.worst(
        "samples-below-operator-norm",
        (ratio() for _ in range(200)),
        bound * (1 + 1e-12),
        operator_norm=bound,
    )


@pytest.mark.parametrize("seed", (7, 42))
@pytest.mark.parametrize("trunc", (None, 150))
@pytest.mark.parametrize(
    "case_id, oracle",
    (("nl-03-norm-collapse", _per_vector_nl03), ("nl-09-h1-continuity", _per_vector_nl09)),
)
def test_block_drawn_nl_cases_record_what_the_per_vector_loops_do(case_id, oracle, trunc, seed):
    # the default M = 50 and the blocks-large M = 150
    fn = next(c.fn for c in suites.SUITES["nilpotent-l2"] if c.case_id == case_id)
    records = _run_case(fn, "nilpotent-l2", case_id, seed, trunc)
    assert records == _run_case(oracle, "nilpotent-l2", case_id, seed, trunc)


def test_lie_core_samples_as_blocks(monkeypatch):
    # about 12,000 group_multiply and group_element calls as per-sample loops
    def lie_core():
        records, _ = run_suite(SuiteConfig(suite="lie-core"))
        return [dataclasses.replace(r, seconds=0.0) for r in records]

    expected = lie_core()
    counts = dict.fromkeys(("group_multiply", "group_element"), 0)
    for name, module in (("group_multiply", liecore), ("group_element", sampling)):
        original = getattr(module, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for holder in (liecore, sampling, suites, blockrep, integrator, heisenberg):
            if getattr(holder, name, None) is original:
                monkeypatch.setattr(holder, name, spy)
    assert lie_core() == expected
    assert 0 < counts["group_multiply"] < 100 and 0 < counts["group_element"] < 100


def test_run_suite_builds_one_context_per_call(monkeypatch):
    built = []
    original = suites.SuiteContext.__init__

    def spy(self, cfg):
        built.append(cfg)
        original(self, cfg)

    monkeypatch.setattr(suites.SuiteContext, "__init__", spy)
    run_suite(SuiteConfig(suite="nilpotent-l2"))
    monkeypatch.setattr(suites, "SUITES", {name: () for name in SUITE_NAMES})
    run_suite(SuiteConfig(suite="all"))
    assert len(built) == 2


@pytest.mark.parametrize("elements, vectors", ((2, 1), (1, 2)))
def test_draw_samples_interleaves_single_draws(elements, vectors):
    # per sample: the elements, then the vectors, each a single draw
    rng, oracle = (case_rng(42, "some-suite", "xx-01-case") for _ in range(2))
    blocks = sampling.draw_samples(rng, 7, 0.9, 12, 5, elements=elements, vectors=vectors)
    columns = [[] for _ in range(elements + vectors)]
    for _ in range(7):
        for k in range(elements):
            columns[k].append(group_element(oracle, 0.9).as_array())
        for k in range(elements, elements + vectors):
            columns[k].append(interior_vector(oracle, 12, 5))
    assert len(blocks) == elements + vectors
    for g, column in zip(blocks[:elements], columns):
        assert np.array_equal(g.as_array(), np.array(column))
    for block, column in zip(blocks[elements:], columns[elements:]):
        assert np.array_equal(block, np.array(column).T)
    assert rng.standard_normal() == oracle.standard_normal()   # the stream goes on alike


@pytest.mark.parametrize("seed", (41, 42))
def test_in04_in05_measure_every_draw_in_one_block_call(monkeypatch, seed):
    # no draw is skipped for leaving the sampling box: each sampled row hands
    # all its draws to one homomorphism_residual call
    calls = []
    original = integrator.homomorphism_residual

    def spy(fam, g, h, phi, chain, n):
        calls.append((g, h, phi))
        return original(fam, g, h, phi, chain, n)

    monkeypatch.setattr(integrator, "homomorphism_residual", spy)
    shapes = lambda: [(np.shape(g.xi1), np.shape(h.xi1), np.shape(phi)) for g, h, phi in calls]
    fn = {c.case_id: c.fn for c in suites.SUITES["integrator"]}
    N, dim = DEFAULT_N, 3 * DEFAULT_M
    records = _run_case(fn["in-04-homomorphism"], "integrator", "in-04-homomorphism", seed)
    assert shapes() == [((15,), (15,), (N, 15)), ((), (), (N,)), ((15,), (15,), (dim, 15))]
    assert [r.inputs.get("samples") for r in records] == [15, None, 15]
    calls.clear()
    records = _run_case(
        fn["in-05-inverse-consistency"], "integrator", "in-05-inverse-consistency", seed
    )
    assert shapes() == [((20,), (20,), (N, 20))] and records[0].inputs["samples"] == 10
    # columns 10-19 pair (h^-1, g^-1) with the vectors of (g, h) in columns 0-9
    [(g, h, phi)] = calls
    inverse = lambda e: liecore.group_inverse(liecore.GroupElement(*e.T)).as_array()
    g, h = g.as_array(), h.as_array()
    assert np.array_equal(g[10:], inverse(h[:10])) and np.array_equal(h[10:], inverse(g[:10]))
    assert np.array_equal(phi[:, 10:], phi[:, :10])
