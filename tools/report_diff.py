"""Compare the reports of two source trees, row by row and value by value.

Usage (from anywhere):

    python tools/report_diff.py OLD_SRC NEW_SRC [scalerep run flags] [--seeds 0-39,42]

OLD_SRC and NEW_SRC are directories holding the ``scalerep`` package (the
``src`` directory of two checkouts).  For each seed the script runs
``python -m scalerep.cli run [flags] --seed S`` once with each tree on
``PYTHONPATH``, both in the caller's environment, with the JSON report on
stdout, and prints:

* whether stdout (the report), stderr and the exit code are byte-identical;
* every moved measured value, bound or input, as old -> new with its
  relative change;
* every flipped verdict, and every row missing from or added to the new
  report.

It exits 1 when a verdict flips or the set of rows changes, and 0 when
values only moved (or nothing did).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path


def parse_seeds(text: str) -> list:
    """'0-39,42' -> [0, 1, ..., 39, 42]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_report(src: str, flags: list, seed: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    argv = [sys.executable, "-m", "scalerep.cli", "run", *flags, "--seed", str(seed)]
    proc = subprocess.run(argv, env=env, capture_output=True)
    return {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


def flatten(value, path=""):
    """Leaves of a JSON value keyed by their path: inputs.betas[2] -> value."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from flatten(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from flatten(item, f"{path}[{i}]")
    else:
        yield path, value


def as_number(value):
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def describe(old, new) -> str:
    a, b = as_number(old), as_number(new)
    if a is None or b is None or isinstance(old, bool) or isinstance(new, bool):
        return f"{old!r} -> {new!r}"
    scale = max(abs(a), abs(b))
    rel = (b - a) / scale if scale > 0 and a == a and b == b else float("nan")
    return f"{old} -> {new} (rel {rel:+.2e})"


def rows_of(report: bytes) -> dict:
    return {(r["suite"], r["case"]): r for r in json.loads(report or b"[]")}


def compare(seed: int, old: dict, new: dict) -> dict:
    same = {k: "identical" if old[k] == new[k] else "differs" for k in ("stdout", "stderr")}
    print(
        f"seed {seed}: stdout (report) {same['stdout']}, stderr {same['stderr']}, "
        f"exit {old['code']} -> {new['code']}"
    )
    counts = {"moved_rows": 0, "moved_values": 0, "flips": 0, "row_changes": 0}
    if old["stdout"] == new["stdout"]:
        return counts
    a, b = rows_of(old["stdout"]), rows_of(new["stdout"])
    for key in a.keys() - b.keys():
        print(f"  MISSING {key[0]} {key[1]}")
        counts["row_changes"] += 1
    for key in b.keys() - a.keys():
        print(f"  ADDED   {key[0]} {key[1]}")
        counts["row_changes"] += 1
    for key in [k for k in a if k in b]:
        ra, rb = a[key], b[key]
        if ra["pass"] != rb["pass"]:
            print(f"  FLIP    {key[0]} {key[1]}: pass {ra['pass']} -> {rb['pass']}")
            counts["flips"] += 1
        fields = ("measured", "bound", "tolerance", "inputs")
        va = dict(flatten({f: ra.get(f) for f in fields}))
        vb = dict(flatten({f: rb.get(f) for f in fields}))
        moved = [p for p in sorted(va.keys() | vb.keys()) if va.get(p) != vb.get(p)]
        for path in moved:
            print(f"  moved   {key[0]} {key[1]} {path}: {describe(va.get(path), vb.get(path))}")
        counts["moved_rows"] += bool(moved)
        counts["moved_values"] += len(moved)
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--seeds", default="42", help="seeds and ranges, e.g. 0-39,42")
    args, flags = parser.parse_known_args(argv)
    if {"--seed", "--out", "--format", "--config"} & set(flags):
        parser.error("--seed, --out, --format and --config are not passed through; use --seeds")
    totals = {"moved_rows": 0, "moved_values": 0, "flips": 0, "row_changes": 0}
    with ThreadPoolExecutor(2) as pool:  # the two trees run side by side
        for seed in parse_seeds(args.seeds):
            trees = (args.old_src, args.new_src)
            old, new = pool.map(lambda src: run_report(src, flags, seed), trees)
            for k, v in compare(seed, old, new).items():
                totals[k] += v
    print(
        f"total: {totals['moved_values']} moved values in {totals['moved_rows']} rows, "
        f"{totals['flips']} flipped verdicts, {totals['row_changes']} rows missing or added"
    )
    return 1 if totals["flips"] or totals["row_changes"] else 0


if __name__ == "__main__":
    sys.exit(main())
