"""tools/report_diff.py: a checkout against itself, and a planted move and flip."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "report_diff.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("report_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_checkout_against_itself_moves_nothing():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    src = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(TOOL), src, src, "--suite", "lie-core", "--seeds", "3"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "seed 3: stdout (report) identical, stderr identical, exit 0 -> 0" in proc.stdout
    assert proc.stdout.splitlines()[-1] == (
        "total: 0 moved values in 0 rows, 0 flipped verdicts, 0 rows missing or added"
    )


def test_moves_flips_and_row_changes_are_listed(capsys):
    tool = load_tool()
    assert tool.parse_seeds("0-2,42") == [0, 1, 2, 42]
    row = {"suite": "s", "case": "c/a", "measured": "1", "bound": "2", "tolerance": "2",
           "inputs": {"xs": ["1", "2"]}, "pass": True}
    moved = dict(row, measured="1.5", inputs={"xs": ["1", "3"]}, **{"pass": False})
    gone = dict(row, case="c/b")

    def run(rows):
        return {"code": 0, "stdout": json.dumps(rows).encode(), "stderr": b""}

    counts = tool.compare(7, run([row, gone]), run([moved]))
    out = capsys.readouterr().out
    assert counts == {"moved_rows": 1, "moved_values": 2, "flips": 1, "row_changes": 1}
    assert "FLIP    s c/a: pass True -> False" in out
    assert "moved   s c/a measured: 1 -> 1.5 (rel +3.33e-01)" in out
    assert "inputs.xs[1]: 2 -> 3" in out
    assert "MISSING s c/b" in out
