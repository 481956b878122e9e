"""tools/scaled_runs.py: one small configuration, run once in a fresh process."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location("scaled_runs", ROOT / "tools" / "scaled_runs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_small_run_prints_its_time_memory_exit_and_failing_rows(monkeypatch, capsys):
    tool = load_tool()
    assert len(tool.RUNS) == 11
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.setitem(tool.RUNS, "lie-core", ("--suite", "lie-core"))
    assert tool.main([str(ROOT / "src"), "--runs", "1", "--only", "lie-core"]) == 0
    header, line = capsys.readouterr().out.splitlines()
    assert header.endswith("OPENBLAS_NUM_THREADS=1, 1 runs each")
    match = re.fullmatch(
        r"lie-core: median ([\d.]+) s \(([\d.]+)\), peak RSS MiB ([\d.]+), "
        r"exit \[0\], failing rows: none",
        line,
    )
    assert match, line
    assert match[1] == match[2] and float(match[1]) > 0
    assert 10 < float(match[3]) < 1000   # the child's own peak: an interpreter with numpy
