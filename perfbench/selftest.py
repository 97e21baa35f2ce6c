"""Self-test of the benchmark: every workload at a tiny size, clean and with
injected wrong outputs, plus a traced pass.  Takes a few seconds.

    python3 perfbench/selftest.py

A clean pass of each workload must have ``error_frac`` 0.  Each injected
fault -- a wrong canonical code, a wrong first homology group, a census that
loses its last line, a solver that loses a solution -- must raise
``error_frac`` above 0 on every workload it reaches.  A traced pass of each
workload must produce every per-layer metric of ``BENCHMARK.json`` that the
tracer computes.  Exits with status 1 when any check fails.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from gemkit import census, coverings, graphs, topology  # noqa: E402
from gemkit.homology import HomologyGroup  # noqa: E402

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

WORKLOADS = ("batch", "census", "cover", "solve")
#: Per-layer metrics that run.py adds to the tracer's.
ADDED_BY_RUN = {"trace.gap_s", "src.lines"}


def _wrong_canonical(code):
    return code[1:] + code[:1]


def _wrong_h1(group):
    return HomologyGroup(group.rank + 1, group.torsion)


FAULTS = {
    # name: (function to replace, how its result is spoiled, workloads hit)
    "wrong canonical code": (graphs.canonical_code, _wrong_canonical, ("batch", "cover")),
    "wrong H1": (topology.first_homology, _wrong_h1, ("batch", "cover")),
    "missing census line": (census.build_census, lambda entries: entries[:-1], ("census",)),
    "lost solution": (coverings.find_admissible_cyclic_coverings, lambda sols: sols[:-1], ("solve",)),
}


@contextlib.contextmanager
def injected(fn, spoil):
    def faulty(*args, **kwargs):
        return spoil(fn(*args, **kwargs))

    tracing.rebind({fn: faulty})
    try:
        yield
    finally:
        tracing.rebind({faulty: fn})


def error_frac(job) -> float:
    attempted, failed = job.check(job.run())
    return failed / attempted


def main() -> int:
    golden = wl.load_golden()
    problems = []
    workdir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(workdir, exist_ok=True)
    jobs = {name: wl.prepare(name, 7, wl.TINY, golden, workdir) for name in WORKLOADS}
    for name, job in jobs.items():
        frac = error_frac(job)
        print("clean      %-20s %-7s error_frac %.3f" % ("", name, frac))
        if frac != 0:
            problems.append("clean %s has error_frac %g" % (name, frac))
    for fault, (fn, spoil, hit) in FAULTS.items():
        with injected(fn, spoil):
            for name in hit:
                frac = error_frac(jobs[name])
                print("injected   %-20s %-7s error_frac %.3f" % (fault, name, frac))
                if frac <= 0:
                    problems.append("%s not caught on %s" % (fault, name))

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        wanted = {m["name"] for m in json.load(fh)["per_layer"]} - ADDED_BY_RUN
    tracer = tracing.Tracer()
    tracing.install(tracer)
    for job in jobs.values():
        job.run()
    seen = {k for k, v in tracing.layer_metrics(tracer, 1).items() if v}
    missing = sorted(wanted - seen)
    print("traced     per-layer metrics never nonzero: %s" % (missing or "none"))
    if missing:
        problems.append("per-layer metrics never measured: %s" % ", ".join(missing))
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
