"""One fresh-interpreter run of a benchmark workload; see run.py.

Usage: python3 bench/child.py SPEC, where SPEC is a JSON object with keys
``src`` (the directory holding the scalerep package), ``suites``,
``trunc``, ``seed``, ``trace`` and ``import_only``.  Prints one JSON
object on stdout: the import time and then, for ``import_only``, the
Python, numpy, scipy and BLAS versions, or else the report time, the peak
resident set, the case accounting, the report text and, when traced, the
per-layer totals.

The report is built the way ``scalerep run`` builds it, one ``run_suite``
call per suite followed by ``render``, except that a suite which raises
is recorded with its error and the remaining suites still run.
"""

import json
import os
import resource
import sys
import time
import traceback


def _raise_site(exc) -> dict:
    """Error type, message, and the scalerep frames it passed through."""
    frames = [
        f"{os.path.splitext(os.path.basename(f.filename))[0]}.{f.name}"
        for f in traceback.extract_tb(exc.__traceback__)
        if f"{os.sep}scalerep{os.sep}" in f.filename
    ]
    return {"error": f"{type(exc).__name__}: {exc}", "frames": frames}


def main(spec: dict) -> dict:
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)
    started = time.perf_counter()
    import scalerep
    from scalerep import report, suites

    import_s = time.perf_counter() - started
    if os.path.dirname(os.path.dirname(os.path.abspath(scalerep.__file__))) != src:
        raise SystemExit(f"scalerep imported from {scalerep.__file__}, not from {src}")
    out = {"import_s": import_s}
    if spec["import_only"]:
        import numpy
        import scipy

        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        out["versions"] = {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas.get('openblas configuration', blas['version'])}",
        }
        return out

    tracer = None
    if spec["trace"]:
        from layertrace import Tracer

        tracer = Tracer().install()

    records, raised = [], {}
    started = time.perf_counter()
    for suite in spec["suites"]:
        cfg = suites.SuiteConfig(suite=suite, trunc=spec["trunc"], seed=spec["seed"])
        try:
            records.extend(suites.run_suite(cfg)[0])
        except Exception as exc:  # a raising suite fails its own cases only
            raised[suite] = _raise_site(exc)
    text = report.render(records, "json")
    out["report_s"] = time.perf_counter() - started

    cases = [(s, c) for s, c, _ in suites.coverage_map() if s in spec["suites"]]
    failing = {(r.suite, r.case.split("/", 1)[0]) for r in records if not r.passed}
    failing.update((s, c) for s, c in cases if s in raised)
    out.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        cases=len(cases),
        rows=len(records),
        failed_cases=sorted(f"{s}:{c}" for s, c in failing),
        raised=raised,
        report=text,
    )
    if tracer is not None:
        out["layers"] = tracer.metrics()
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
