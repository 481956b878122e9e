"""Run the scaled runs of ROADMAP.md, each in a fresh process, and print what each cost.

Usage (from anywhere):

    python tools/scaled_runs.py [SRC] [--runs K] [--only LABEL ...]

SRC is a directory holding the ``scalerep`` package (default: the ``src``
directory of this checkout).  Each selected run (default: all of ``RUNS``)
is ``python -m scalerep.cli run`` with its flags at seed 42, started K
times (default 5) in a fresh process with SRC on ``PYTHONPATH``, at one
OpenBLAS thread unless the caller sets ``OPENBLAS_NUM_THREADS``.  For each
run it prints the median wall time, each child's own peak RSS (its
``ru_maxrss`` from ``os.wait4``, not the cumulative ``RUSAGE_CHILDREN``),
the exit codes and the failing rows of the report.

It exits 1 if a child ended other than with exit 0 (report passes) or 1
(report has failing rows), or wrote no report.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

RUNS = {
    "hille-yosida-640": ("--suite", "hille-yosida", "--trunc", "640"),
    "hille-yosida-1024": ("--suite", "hille-yosida", "--trunc", "1024"),
    "hille-yosida-2048": ("--suite", "hille-yosida", "--trunc", "2048"),
    "scale-core-2048": ("--suite", "scale-core", "--trunc", "2048"),
    "heisenberg-hermite-1024": ("--suite", "heisenberg-hermite", "--trunc", "1024"),
    "heisenberg-hermite-2048": ("--suite", "heisenberg-hermite", "--trunc", "2048"),
    "heisenberg-hermite-4096": ("--suite", "heisenberg-hermite", "--trunc", "4096"),
    "integrator-320": ("--suite", "integrator", "--trunc", "320"),
    "integrator-640": ("--suite", "integrator", "--trunc", "640"),
    "integrator-1280": ("--suite", "integrator", "--trunc", "1280"),
    "nilpotent-l2-2000": ("--suite", "nilpotent-l2", "--trunc", "2000"),
}


def run_once(src, flags) -> dict:
    """One fresh ``scalerep run``: wall seconds, peak RSS in MiB, exit code and failing rows."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    argv = [sys.executable, "-m", "scalerep.cli", "run", *flags, "--seed", "42"]
    with tempfile.TemporaryFile() as out:  # a file, not a pipe: the child never blocks on it
        start = time.perf_counter()
        child = subprocess.Popen(argv, env=env, stdout=out, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)
        seconds = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read()
    try:
        failing = [f"{r['suite']}:{r['case']}" for r in json.loads(text) if not r["pass"]]
    except ValueError:
        failing = None  # no report
    return {
        "seconds": seconds,
        "rss_mib": usage.ru_maxrss / 1024,  # Linux reports KiB
        "code": child.returncode,
        "failing": failing,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", default=str(ROOT / "src"))
    parser.add_argument("--runs", type=int, default=5, help="fresh processes per run")
    parser.add_argument("--only", nargs="+", choices=sorted(RUNS), metavar="LABEL")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "1")
    print(f"src {Path(args.src).resolve()}, OPENBLAS_NUM_THREADS={threads}, {args.runs} runs each")
    broken = False
    for label in args.only or RUNS:
        results = [run_once(args.src, RUNS[label]) for _ in range(args.runs)]
        times = " ".join(f"{r['seconds']:.2f}" for r in results)
        rss = " ".join(f"{r['rss_mib']:.1f}" for r in results)
        codes = sorted({r["code"] for r in results})
        failing = results[-1]["failing"]
        rows = "no report" if failing is None else ", ".join(failing) or "none"
        print(
            f"{label}: median {statistics.median(r['seconds'] for r in results):.2f} s ({times}), "
            f"peak RSS MiB {rss}, exit {codes}, failing rows: {rows}"
        )
        broken |= failing is None or any(r["code"] not in (0, 1) for r in results)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
