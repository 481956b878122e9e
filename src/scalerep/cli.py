"""Command-line driver for the verification suites.

Subcommands:

``run``
    Execute a named suite (or ``all``) at the configured truncation,
    depth, seed, and tolerances; emit a deterministic JSON or CSV report.
    Exit status 0 when every check passes, 1 when any check fails,
    2 on configuration or I/O errors.

``list-suites``
    Print the available suite names.

``coverage``
    Print the (suite, case) -> anchor manifest and confirm every
    in-scope identity identifier is exercised at least once.

A JSON config file may supply any field of ``SuiteConfig``, as a value of
the field's type (``validate`` refuses any other), under its
field name or its flag spelling (``format``, ``nmax``, ``lambda``);
explicit flags override the file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .errors import UsageError
from .liecore import X3_SIGN_CHOICES
from .report import render, write_report
from .suites import (
    SUITE_NAMES,
    SuiteConfig,
    coverage_map,
    missing_anchors,
    run_suite,
)

# in declaration order, so flags are read, and their errors raised, in a fixed order
CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(SuiteConfig))
# flag spellings a config file may use in place of the field name
FLAG_SPELLINGS = {"format": "fmt", "nmax": "n_max", "lambda": "lambda_sequence"}


def _parse_tol_items(items) -> dict:
    out = {}
    for item in items or ():
        if "=" not in item:
            raise UsageError(f"--tol expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        try:
            out[key.strip()] = float(value)
        except ValueError:
            raise UsageError(f"--tol value for {key!r} is not a number: {value!r}")
    return out


def _parse_lambda(text: str) -> tuple:
    try:
        values = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise UsageError(f"--lambda expects comma-separated numbers, got {text!r}")
    if not values:
        raise UsageError("--lambda needs at least one value")
    return values


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object")
    unknown = set(data) - set(CONFIG_KEYS) - set(FLAG_SPELLINGS)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    for spelling, key in FLAG_SPELLINGS.items():
        if spelling in data:
            data[key] = data.pop(spelling)
    if isinstance(data.get("lambda_sequence"), list):
        data["lambda_sequence"] = tuple(data["lambda_sequence"])
    if "tol" in data and not isinstance(data["tol"], dict):
        raise UsageError("config key 'tol' must be an object")
    return data


def build_config(args) -> SuiteConfig:
    settings = _load_config_file(args.config) if args.config else {}
    for key in CONFIG_KEYS:
        value = getattr(args, key)
        if key == "lambda_sequence" and value is not None:
            value = _parse_lambda(value)
        elif key == "tol":
            # --tol items add to the file's tolerances rather than replace them
            value = {**settings.get("tol", {}), **_parse_tol_items(value)} or None
        if value is not None:
            settings[key] = value
    cfg = SuiteConfig(**settings)
    cfg.validate()
    return cfg


def cmd_run(args) -> int:
    cfg = build_config(args)
    records, status = run_suite(cfg)
    failed = [r for r in records if not r.passed]
    if cfg.out:
        write_report(records, cfg.out, cfg.fmt, cfg.timings)
        print(f"wrote {len(records)} records to {cfg.out}")
    else:
        sys.stdout.write(render(records, cfg.fmt, cfg.timings))
    print(
        f"[scalerep] suite={cfg.suite} seed={cfg.seed} checks={len(records)} "
        f"failed={len(failed)} -> {'PASS' if status == 0 else 'FAIL'}",
        file=sys.stderr,
    )
    for r in failed:
        print(
            f"[scalerep]   FAIL {r.suite}:{r.case} measured={r.measured:.6g} "
            f"bound={r.bound:.6g}",
            file=sys.stderr,
        )
    return status


def cmd_list_suites(_args) -> int:
    for name in SUITE_NAMES:
        print(name)
    print("all")
    return 0


def cmd_coverage(_args) -> int:
    for suite, case, anchors in coverage_map():
        print(f"{suite}:{case} -> {';'.join(anchors)}")
    missing = missing_anchors()
    if missing:
        print(f"MISSING anchors: {sorted(missing)}", file=sys.stderr)
        return 1
    print(f"coverage complete: {len(set(a for _, _, an in coverage_map() for a in an))} anchors")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scalerep",
        description="verification suites for nested-scale group representations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a verification suite")
    run.add_argument("--suite", choices=SUITE_NAMES + ("all",), default=None)
    run.add_argument("--trunc", type=int, default=None,
                     help="Hermite mode count (block count for nilpotent-l2)")
    run.add_argument("--nmax", dest="n_max", metavar="NMAX", type=int, default=None,
                     help="scale depth")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--x3-sign", dest="x3_sign", choices=X3_SIGN_CHOICES,
                     default=None,
                     help="central generator sign: consistent = -i (derived "
                          "from the group action), paper = +i (alternate)")
    run.add_argument("--tol", action="append", metavar="KEY=VAL",
                     help="tolerance override, repeatable")
    run.add_argument("--lambda", dest="lambda_sequence", metavar="A,B,C", default=None,
                     help="reconstruction lambda sequence")
    run.add_argument("--out", default=None, help="report file path (stdout if omitted)")
    run.add_argument("--format", dest="fmt", choices=("json", "csv"), default=None)
    run.add_argument("--config", default=None, help="JSON config file; flags override")
    run.add_argument("--timings", action="store_true", default=None,
                     help="include measured wall times (report no longer "
                          "byte-reproducible)")
    run.set_defaults(func=cmd_run)

    ls = sub.add_parser("list-suites", help="print available suite names")
    ls.set_defaults(func=cmd_list_suites)

    cov = sub.add_parser("coverage", help="print the case -> anchor manifest")
    cov.set_defaults(func=cmd_coverage)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"[scalerep] error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
