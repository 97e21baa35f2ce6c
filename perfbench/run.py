"""Run one workload of the gemkit benchmark and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload batch --seed 1 --seconds 28 --trace 0

Workloads: batch, census, cover, solve (see ``workloads.py``).  The run
repeats the workload's fixed job for ``--seconds`` seconds in this process
and checks every pass's output.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the ``end_to_end`` ones of ``BENCHMARK.json``.
Their times are normalised to the host's speed with the reference job of
``probe.py``: units of it run around and during every timed step, and
before the set-up that every fresh interpreter times (importing
``gemkit.cli`` and building its parser).  A metric is an average of time
over probe time per unit, in seconds of a host on which one unit takes
``probe.NOMINAL_UNIT_S``.  The line before the result holds the raw times.
With ``--trace 1`` the first third of the time runs untraced and the rest
with a span around every call into a layer (see ``tracing.py``); the
metrics are the ``per_layer`` ones, the spans are written to
``.perfbench_out/`` and each share prediction of ``predictions.json`` is
reported as held or missed.  The program is imported from ``src``; without
it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback

import probe
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Probe units run before the first step of a pass and after every step.
EDGE_UNITS = 8
#: Wall-clock interval between the single probe units run during a step.
TICK_S = 0.25

#: Fresh interpreters timed for ``setup_s``: a few before the first pass and
#: one after every pass, so that the samples span the whole run.
SETUP_FIRST = 5
SETUP_PER_PASS = 1
SETUP_SNIPPET = (
    "import time, probe\n"
    "p = probe.probe(%d) / %d\n"
    "t = time.perf_counter()\n"
    "import gemkit.cli\n"
    "gemkit.cli.build_parser()\n"
    "print(time.perf_counter() - t, p, gemkit.cli.__file__)\n"
) % (EDGE_UNITS, EDGE_UNITS)


def setup_samples(count: int) -> list[tuple[float, float]]:
    """Set-up times of fresh interpreters, each with its probe time per unit.

    Each interpreter runs the probe, then imports the CLI and builds its
    parser.
    """
    # the same interpreter settings everywhere, bytecode caching included
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = os.pathsep.join((SRC, HERE))
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        seconds, probe_s, path = proc.stdout.split(maxsplit=2)
        if not path.strip().startswith(SRC + os.sep):
            raise RuntimeError("set-up imported gemkit from %s" % path.strip())
        samples.append((float(seconds), float(probe_s)))
    return samples


def normalised(pairs, average) -> float:
    """The average time over probe time per unit, in seconds of the nominal host."""
    return probe.NOMINAL_UNIT_S * average([t / unit_s for t, unit_s in pairs])


def run_passes(job, seconds: float, between=None, paired: bool = False):
    """Repeat the job until ``seconds`` have passed (at least once).

    Returns the wall times of each step of the job, one list per step with
    one time per pass, and the operations attempted and failed.  A pass with
    a step that raises, or whose output is too malformed to check, counts
    all its operations as failed.  Every pass starts after a full garbage
    collection; ``between`` is called after every pass.  Neither is timed.
    With ``paired`` the probe runs ``EDGE_UNITS`` units before the first step
    and after every step, and one unit every ``TICK_S`` seconds during a step
    from a timer signal.  The times are then pairs of the step's time, less
    the units run during it, and the mean time per unit of all the units run
    around and during it.
    """
    times = [[] for _ in job.steps]
    attempted = failed = 0
    ticks = []  # times of the units run during the current step

    def tick(signum, frame):
        ticks.append(probe.probe(1))

    old_handler = signal.signal(signal.SIGALRM, tick) if paired else None
    try:
        deadline = time.perf_counter() + seconds
        while not times[0] or time.perf_counter() < deadline:
            gc.collect()
            outs = []
            edge_s = probe.probe(EDGE_UNITS) if paired else None
            for step, step_times in zip(job.steps, times):
                ticks.clear()
                t0 = time.perf_counter()
                if paired:
                    signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
                try:
                    outs.append(step())
                except Exception:
                    traceback.print_exc()
                    outs.append(None)
                if paired:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                elapsed = time.perf_counter() - t0
                if paired:
                    before, edge_s = edge_s, probe.probe(EDGE_UNITS)
                    unit_s = (before + edge_s + sum(ticks)) / (2 * EDGE_UNITS + len(ticks))
                    step_times.append((elapsed - sum(ticks), unit_s))
                else:
                    step_times.append(elapsed)
            a, f = job.ops, job.ops
            if all(out is not None for out in outs):
                try:
                    a, f = job.check(outs)
                except Exception:
                    traceback.print_exc()
            attempted += a
            failed += f
            del outs
            if between is not None:
                between()
    finally:
        if paired:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old_handler)
    return times, attempted, failed


def pass_walls(times: list[list[float]]) -> list[float]:
    """The wall time of each pass: the sum of its steps' times."""
    return [sum(step) for step in zip(*times)]


def src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "gemkit")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def report_predictions(workload: str, layer: dict) -> None:
    with open(os.path.join(HERE, "predictions.json"), encoding="utf-8") as fh:
        shares = json.load(fh)["shares"]
    for p in shares:
        if p["workload"] != workload:
            continue
        share = layer.get(p["function"] + ".share", 0.0)
        print(
            "prediction %s >= %.0f%% of %s traced time: measured %.1f%%, %s"
            % (p["function"], 100 * p["at_least"], workload, 100 * share,
               "held" if share >= p["at_least"] else "MISSED")
        )


def end_to_end(job, seconds: float):
    """Untraced passes, with set-up samples before and between them."""
    setup_samples(1)  # fills the bytecode cache
    setups = setup_samples(SETUP_FIRST)
    pairs, attempted, failed = run_passes(
        job, seconds, between=lambda: setups.extend(setup_samples(SETUP_PER_PASS)),
        paired=True,
    )
    # a pass is the sum of its steps, each averaged over the whole run
    wall = sum(normalised(step, statistics.mean) for step in pairs)
    values = {
        "setup_s": normalised(setups, statistics.median),
        "norm_wall_s": wall,
        "norm_items_per_s": job.items / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1 - failed / attempted,
    }
    walls = pass_walls([[t for t, _ in step] for step in pairs])
    record = {
        "wall_s": statistics.median(walls),
        "items_per_s": job.items / statistics.median(walls),
        "setup_s": statistics.median(t for t, _ in setups),
        "step_wall_and_probe_s_samples": pairs,
        "setup_and_probe_s_samples": setups,
    }
    return values, record, attempted, failed


def per_layer(job, seconds: float, workload: str):
    """A third of the time untraced, then traced passes; spans go to a file."""
    untraced, attempted, failed = run_passes(job, seconds / 3)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    traced, a, f = run_passes(job, seconds * 2 / 3)
    values = tracing.layer_metrics(tracer, len(traced[0]))
    values["trace.gap_s"] = statistics.median(pass_walls(untraced)) - values["traced_s"]
    values["src.lines"] = src_lines()
    tracing.write_spans(tracer, os.path.join(OUT_DIR, "spans-%s.tsv" % workload))
    report_predictions(workload, values)
    record = {"step_wall_s_samples": untraced, "traced_step_wall_s_samples": traced}
    return values, record, attempted + a, failed + f


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("batch", "census", "cover", "solve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "gemkit", "__init__.py")):
        print("no gemkit sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ.pop("GEMKIT_THREADS", None)  # the CLI runs sequentially
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    import workloads  # imports gemkit

    os.makedirs(OUT_DIR, exist_ok=True)
    job = workloads.prepare(args.workload, args.seed, workloads.FULL,
                            workloads.load_golden(), OUT_DIR)
    if args.trace:
        values, record, attempted, failed = per_layer(job, args.seconds, args.workload)
        wanted = spec["per_layer"]
    else:
        values, record, attempted, failed = end_to_end(job, args.seconds)
        wanted = spec["end_to_end"]
    print(json.dumps({"workload": args.workload, "inputs": job.inputs,
                      "src_lines": src_lines(), **record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        # a per-layer metric is 0 on a workload that never calls the function
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0) if args.trace
                                else values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
