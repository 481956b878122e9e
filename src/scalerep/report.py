"""Verification records and their deterministic JSON / CSV renderings.

A record is one measured check: which suite and case produced it, the
identifiers of the identities it exercises, the serialized inputs, the
measured value against its bound, and the pass flag.  The ``tolerance``
column of both renderings repeats the bound.
Rendering is byte-deterministic for a fixed configuration and seed:
records are sorted by (suite, case), floats are written with 17
significant digits, and wall-clock seconds are zeroed unless timings are
explicitly requested (they are the one nondeterministic field).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

from .errors import UsageError

CSV_HEADER = ["suite", "case", "anchor", "measured", "bound", "tolerance", "pass", "seconds"]


@dataclass
class CheckRecord:
    suite: str
    case: str
    anchors: tuple
    inputs: dict = field(default_factory=dict)
    measured: float = math.nan
    bound: float = math.nan
    passed: bool = True
    seconds: float = 0.0

    def anchor_string(self) -> str:
        return ";".join(self.anchors)


def sort_records(records) -> list:
    return sorted(records, key=lambda r: (r.suite, r.case))


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _clean_inputs(inputs: dict) -> dict:
    out = {}
    for key in sorted(inputs):
        val = inputs[key]
        if isinstance(val, float):
            out[key] = _fmt(val)
        elif isinstance(val, (list, tuple)):
            out[key] = [_fmt(v) if isinstance(v, float) else v for v in val]
        else:
            out[key] = val
    return out


def _rows(records, timings: bool):
    """One dict per record, sorted, keyed by ``CSV_HEADER`` plus ``inputs``."""
    for r in sort_records(records):
        yield {
            "suite": r.suite,
            "case": r.case,
            "anchor": r.anchor_string(),
            "inputs": _clean_inputs(r.inputs),
            "measured": _fmt(r.measured),
            "bound": _fmt(r.bound),
            "tolerance": _fmt(r.bound),
            "pass": bool(r.passed),
            "seconds": _fmt(r.seconds if timings else 0.0),
        }


def to_json(records, timings: bool = False) -> str:
    return json.dumps(list(_rows(records, timings)), indent=2) + "\n"


def to_csv(records, timings: bool = False) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in _rows(records, timings):
        row["pass"] = "true" if row["pass"] else "false"
        writer.writerow(row[key] for key in CSV_HEADER)
    return buf.getvalue()


def render(records, fmt: str, timings: bool = False) -> str:
    if fmt == "json":
        return to_json(records, timings)
    if fmt == "csv":
        return to_csv(records, timings)
    raise UsageError(f"unknown report format {fmt!r} (expected json or csv)")


def write_report(records, path: str, fmt: str, timings: bool = False):
    text = render(records, fmt, timings)
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write report to {path}: {exc}") from exc
