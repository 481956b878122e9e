"""scalerep benchmark: report time, import time and memory per workload.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each report is made by a fresh single-process child (bench/child.py) that
imports scalerep from ./src and builds the workload's report through the
public API: one ``scalerep.suites.run_suite`` call per suite, then
``scalerep.report.render``.  Children run one after another, a closed
loop with one client, until ``--seconds`` seconds have passed; the last
one may end up to one report later.

The first child of every run uses program seed 42 and its report is
compared with the report pinned in bench/reference/; the others use
program seeds drawn from ``--seed``.  Several program seeds per run are
needed because the work a report does depends on its seed: for about
half of all seeds the integrator suite raises part way (see README.md),
so ``report_s`` is the mean over the run's reports, not their median,
which would jump between the two outcomes.

With ``--trace 0`` the last line holds the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` each seed is run untraced and then
traced (bench/layertrace.py) and the last line holds the per-layer
metrics, medians over the traced reports.  Earlier lines give the
environment, the correctness check and every metric with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE_SEED = 42
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0  # every run ends well inside 180 s

ALL_SUITES = (
    "lie-core",
    "scale-core",
    "heisenberg-hermite",
    "hille-yosida",
    "nilpotent-l2",
    "integrator",
)


@dataclass(frozen=True)
class Workload:
    suites: tuple
    trunc: int | None
    threads: str | None  # OPENBLAS_NUM_THREADS; None leaves OpenBLAS's default
    reference: str


# Why each workload exists is in README.md.  report-threaded is not in
# BENCHMARK.json: its reports vary by more than any bound the benchmark
# may set, but it stays runnable for the thread-dispatch cost it shows.
WORKLOADS = {
    "report-default": Workload(ALL_SUITES, None, "1", "report-default"),
    "report-threaded": Workload(ALL_SUITES, None, None, "report-default"),
    "hermite-large": Workload(("scale-core", "heisenberg-hermite", "hille-yosida"), 160, "1", "hermite-large"),
    "blocks-large": Workload(("nilpotent-l2",), 150, "1", "blocks-large"),
}


class ChildFailed(Exception):
    pass


def child_env(workload: Workload) -> dict:
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.pop("OMP_NUM_THREADS", None)
    if workload.threads is not None:
        env["OPENBLAS_NUM_THREADS"] = workload.threads
    return env


def run_child(spec: dict, env: dict, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed("no time left in this run")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"child timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        raise ChildFailed(f"child exited {proc.returncode}: {tail}")
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError as exc:
        raise ChildFailed(f"child printed no result: {exc}")


def program_seeds(seed: int):
    yield REFERENCE_SEED
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2**31)


def load_reference(name: str) -> tuple[str, list]:
    text = (BENCH / "reference" / f"{name}.json").read_text(encoding="utf-8")
    return text, json.loads(text)


def relative_change(new: str, old: str) -> float:
    a, b = float(new), float(old)
    if a == b or (a != a and b != b):
        return 0.0
    if b == 0 or b != b or abs(b) == float("inf"):
        return float("inf")
    return abs(a - b) / abs(b)


def compare_with_reference(text: str, ref_text: str, ref_rows: list) -> dict:
    """A seed-42 report against the pinned one, row by row."""
    rows = {(r["suite"], r["case"]): r for r in json.loads(text)}
    ref = {(r["suite"], r["case"]): r for r in ref_rows}
    flipped = sorted(k for k in ref.keys() & rows.keys() if ref[k]["pass"] != rows[k]["pass"])
    changes = sorted(
        ((relative_change(rows[k]["measured"], ref[k]["measured"]), k) for k in ref.keys() & rows.keys()),
        reverse=True,
    )
    return {
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "sha256_match": text == ref_text,
        "flipped": [f"{s}:{c}" for s, c in flipped],
        "missing": sorted(f"{s}:{c}" for s, c in ref.keys() - rows.keys()),
        "added": sorted(f"{s}:{c}" for s, c in rows.keys() - ref.keys()),
        "max_rel_change": changes[0][0] if changes else 0.0,
        "max_rel_change_row": f"{changes[0][1][0]}:{changes[0][1][1]}" if changes else "",
    }


def rows_match_reference(result: dict, ref_rows: list) -> bool:
    """Any seed: the report holds exactly the reference's rows, in order,
    less those of suites that raised."""
    got = [(r["suite"], r["case"]) for r in json.loads(result["report"])]
    want = [(r["suite"], r["case"]) for r in ref_rows if r["suite"] not in result["raised"]]
    return got == want


def src_line_count() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted((SRC / "scalerep").rglob("*.py")))


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    env = child_env(workload)
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    base = {"src": str(SRC), "suites": list(workload.suites), "trunc": workload.trunc,
            "seed": REFERENCE_SEED, "trace": False, "import_only": True}

    versions = run_child(base, env, deadline)["versions"]  # also fills the bytecode cache
    imports = []
    if not trace:
        imports = [run_child(base, env, deadline)["import_s"] for _ in range(SETUP_PROBES)]

    ref_text, ref_rows = load_reference(workload.reference)
    plain, traced, errors, checks = [], [], [], []
    window_start = time.monotonic()
    for program_seed in program_seeds(seed):
        if plain and time.monotonic() - window_start >= seconds:
            break
        spec = dict(base, seed=program_seed, import_only=False)
        try:
            pair = [run_child(spec, env, deadline)]
            if trace:
                pair.append(run_child(dict(spec, trace=True), env, deadline))
        except ChildFailed as exc:
            errors.append(f"seed {program_seed}: {exc}")
            break
        for result in pair:
            result["seed"] = program_seed
            result["rows_ok"] = rows_match_reference(result, ref_rows)
            if program_seed == REFERENCE_SEED:
                check = compare_with_reference(result["report"], ref_text, ref_rows)
                checks.append(dict(check, traced="layers" in result))
        plain.append(pair[0])
        traced.extend(pair[1:])
        imports.append(pair[0]["import_s"])
    return {
        "workload": workload, "versions": versions, "env": env, "plain": plain,
        "traced": traced, "imports": imports, "errors": errors, "checks": checks,
        "window_s": time.monotonic() - window_start,
    }


def end_to_end(run: dict) -> dict:
    plain = run["plain"]
    return {
        "report_s": statistics.fmean(r["report_s"] for r in plain),
        "setup_s": statistics.median(run["imports"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }


def per_layer(run: dict) -> dict:
    samples = []
    for plain, traced in zip(run["plain"], run["traced"]):
        layers = dict(traced["layers"])
        layers.update({
            "suites.cases": traced["cases"],
            "suites.rows": traced["rows"],
            "suites.failed_cases": len(traced["failed_cases"]),
            "trace.report_s": traced["report_s"],
            "trace.overhead_ratio": traced["report_s"] / plain["report_s"],
        })
        samples.append(layers)
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def report(run: dict, args, spec: dict) -> dict:
    workload, plain = run["workload"], run["plain"]
    v = run["versions"]
    print(
        f"env: python {v['python']}, numpy {v['numpy']}, scipy {v['scipy']}, blas {v['blas']}, "
        f"OPENBLAS_NUM_THREADS={run['env'].get('OPENBLAS_NUM_THREADS', 'unset')}, "
        f"nproc={os.cpu_count()}, git={git_revision()}, src_lines={src_line_count()}"
    )
    print(
        f"workload {args.workload}: suites {','.join(workload.suites)}, "
        f"trunc {workload.trunc or 'default'}, seed {args.seed}, "
        f"{len(plain)} program seeds in {run['window_s']:.1f} s"
    )
    print("report_s by program seed (* = a suite raised): " + ", ".join(
        f"{r['seed']}={r['report_s']:.3f}{'*' if r['raised'] else ''}" for r in plain
    ))
    for error in run["errors"]:
        print(f"FAILED {error}")
    raises = {}
    for r in plain:
        for suite, site in r["raised"].items():
            raises.setdefault(f"{suite}: {site['error']} via {' > '.join(site['frames'])}", []).append(r["seed"])
    for where, seeds in raises.items():
        print(f"raised: {where}, at seeds {', '.join(map(str, seeds))}")
    for check in run["checks"]:
        print(
            f"check at seed {REFERENCE_SEED}{' (traced)' if check['traced'] else ''}: sha256 {check['sha256'][:12]}... "
            f"{'matches' if check['sha256_match'] else 'DIFFERS FROM'} bench/reference/{workload.reference}.json; "
            f"pass flags changed {check['flipped'] or 'none'}; rows missing {check['missing'] or 'none'}; "
            f"rows added {check['added'] or 'none'}; largest relative change in measured "
            f"{check['max_rel_change']:.3g}" + (f" ({check['max_rel_change_row']})" if check["max_rel_change"] else "")
        )
    bad_rows = [r["seed"] for r in plain + run["traced"] if not r["rows_ok"]]
    if bad_rows:
        print(f"rows differ from the reference's row set at seeds {bad_rows}")

    first = plain[0]  # program seed 42
    failed_cases = sum(len(r["failed_cases"]) for r in plain)
    cases = sum(r["cases"] for r in plain)
    print(
        f"failed_case_ratio {len(first['failed_cases']) / first['cases']:.4f} "
        f"({len(first['failed_cases'])}/{first['cases']} cases at seed {REFERENCE_SEED}: "
        f"{', '.join(first['failed_cases']) or 'none'}); "
        f"{failed_cases}/{cases} = {failed_cases / cases:.4f} over all {len(plain)} reports"
    )
    times = sorted(r["report_s"] for r in plain)
    print(
        f"report times: mean {statistics.fmean(times):.4f} s, median {statistics.median(times):.4f} s, "
        f"min {times[0]:.4f} s, max {times[-1]:.4f} s over {len(times)} reports"
    )
    values = per_layer(run) if args.trace else end_to_end(run)
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:<48} {values[m['name']]:.6g} {m['unit']}")
    correct = all(r["rows_ok"] for r in plain + run["traced"]) and all(
        not (c["flipped"] or c["missing"] or c["added"]) for c in run["checks"]
    )
    return {
        "correct": correct,
        "attempted": len(plain) + len(run["traced"]) + len(run["errors"]),
        "failed": len(run["errors"]),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # lets subprocess.run kill the child

    if not (SRC / "scalerep").is_dir():
        print(f"error: no scalerep sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not run["plain"]:
        print(f"error: no report was produced: {run['errors']}", file=sys.stderr)
        return 2
    result = report(run, args, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
