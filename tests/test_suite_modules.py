"""The suites' layout: a runner and one case module per suite, none costly to compile.

Without bytecode caches a process compiles each module it imports whole,
and the heap that compile peaks at stays with the process, so the largest
module sets the memory floor of every run.  These tests keep every module
of ``src/scalerep`` under one compile peak, keep the imports running one
way (``suites`` to the case modules to the kernels) and check that
importing ``suites`` loads every case module, so no compile work moves
into a report.
"""

import ast
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from scalerep import suites

SRC = Path(__file__).resolve().parents[1] / "src" / "scalerep"
CASE_MODULES = sorted(p.stem for p in SRC.glob("suite_*.py"))
COMPILE_PEAK_MIB = 1.25


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_module_compiles_under_the_peak(path):
    source = path.read_text(encoding="utf-8")
    tracemalloc.start()
    try:
        compile(source, str(path), "exec")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= COMPILE_PEAK_MIB * 2**20, f"{path.name} peaks at {peak / 2**20:.2f} MiB"


def test_one_case_module_per_suite():
    names = [f"suite_{name.replace('-', '_')}" for name in suites.SUITE_NAMES]
    assert CASE_MODULES == sorted(names)
    for name, module in zip(suites.SUITE_NAMES, names):
        cases = getattr(suites, module).CASES
        assert [c.fn for c in suites.SUITES[name]] == [fn for _, _, fn in cases]


@pytest.mark.parametrize("name", CASE_MODULES)
def test_no_case_module_imports_the_runner(name):
    imported = set()
    for node in ast.walk(ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            if node.module is None:   # from . import x, y
                imported.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name.rsplit(".", 1)[-1] for a in node.names)
    assert "suites" not in imported


def test_importing_suites_loads_every_case_module():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import scalerep.suites; "
        "print(*sorted(m.split('.')[1] for m in sys.modules if m.startswith('scalerep.suite_')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(SRC.parent)], capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == CASE_MODULES
