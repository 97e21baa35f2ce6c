"""Spans around the calls into each gemkit layer, recorded from outside it.

The layers are the modules ``graphs``, ``topology``, ``homology``,
``coverings``, ``census`` and ``cli``.  :func:`install` wraps each layer's
interface -- the public functions that the package exports or that another
layer imports, plus the few in ``EXTRA_SPANS`` -- and
rebinds every reference to them inside the package, so a call from one
layer into another is traced too.  Helpers used only inside their own layer
stay unwrapped, so their time counts as the caller's self time and a
refactoring inside a layer does not move time between metric names.

Spans stay in memory; a span's self time is its duration minus the time its
direct children cover.  A generator returned by a traced call is traced on
each resumption, so its time counts while it runs and not while its
consumer does.
"""

from __future__ import annotations

import importlib
import statistics
import time
import types
from math import gcd, prod

LAYERS = ("graphs", "topology", "homology", "coverings", "census", "cli")

#: Spans that start a new request: one per input record of the CLI.  Every
#: root span (a job, or a solver call on one base) starts one as well.
REQUEST_SPANS = ("cli._invariants_record", "cli._canon_record")

#: Also traced: the CLI's entry point, its per-record workers, and the one
#: function the CLI reaches through a module object rather than by name.
EXTRA_SPANS = ("cli.main", "census.write_census") + REQUEST_SPANS

# span fields
NAME, START, END, PARENT, REQUEST, CHILD, CALL = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.requests = 0
        self.counts: dict[str, int] = {}
        self.last_snf = None

    def open(self, name: str, call: bool = True) -> int:
        sid = len(self.spans)
        if self.stack:
            parent = self.stack[-1]
            request = self.spans[parent][REQUEST]
        else:
            parent = -1
        if parent < 0 or name in REQUEST_SPANS:
            self.requests += 1
            request = self.requests
        self.spans.append([name, time.perf_counter_ns(), 0, parent, request, 0, call])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        span = self.spans[sid]
        span[END] = time.perf_counter_ns()
        self.stack.pop()
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD] += span[END] - span[START]

    def count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n


def _count_relations(tracer, args, kwargs, result):
    rows, free = result
    tracer.count("topology.relation_cells", len(rows) * len(free))
    tracer.count("topology.relation_nnz", sum(1 for row in rows for x in row if x))


def _remember_snf(tracer, args, kwargs, result):
    factors, rank, V = result
    tracer.last_snf = (factors, rank, len(V))


def _count_solutions(tracer, args, kwargs, result):
    tracer.count("coverings.solutions", len(result))
    limit = args[2] if len(args) > 2 else kwargs.get("limit", 1)
    if limit is None and tracer.last_snf is not None:
        # every combination of the SNF's free coordinates is tried once
        factors, rank, m = tracer.last_snf
        n = args[1]
        tried = prod(gcd(d, n) for d in factors) * n ** (m - rank)
        tracer.count("coverings.tried", tried)
        tracer.count("coverings.kept", len(result))


#: Counters read off a traced call's arguments and result.
HOOKS = {
    "topology.cycle_relation_rows": _count_relations,
    "homology.snf_with_column_transform": _remember_snf,
    "coverings.find_admissible_cyclic_coverings": _count_solutions,
}


def _traced_generator(tracer, name, gen):
    while True:
        sid = tracer.open(name, call=False)
        try:
            item = next(gen)
        except StopIteration:
            return
        finally:
            tracer.close(sid)
        tracer.count(name + ".yields", 1)
        yield item


def _wrap(tracer, name, fn):
    hook = HOOKS.get(name)

    def traced(*args, **kwargs):
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        if isinstance(result, types.GeneratorType):
            return _traced_generator(tracer, name, result)
        return result

    traced.__name__ = fn.__name__
    return traced


def _modules():
    import gemkit

    return [gemkit] + [importlib.import_module("gemkit." + layer) for layer in LAYERS]


def install(tracer: Tracer) -> None:
    """Wrap each layer's interface and rebind every reference to it."""
    mods = _modules()
    exported = {id(getattr(mods[0], attr)) for attr in mods[0].__all__}
    wrappers = {}
    for mod in mods[1:]:
        layer = mod.__name__.split(".", 1)[1]
        imported = set()
        for other in mods[1:]:
            if other is not mod:
                imported.update(id(v) for v in vars(other).values())
        for attr, fn in vars(mod).items():
            name = "%s.%s" % (layer, attr)
            if not isinstance(fn, types.FunctionType) or fn.__module__ != mod.__name__:
                continue
            public = not attr.startswith("_") and (id(fn) in exported or id(fn) in imported)
            if public or name in EXTRA_SPANS:
                wrappers[fn] = _wrap(tracer, name, fn)
    rebind(wrappers)


def rebind(replacements: dict) -> None:
    """Point every reference inside the package to a function at its replacement."""
    for mod in _modules():
        for attr, val in list(vars(mod).items()):
            if isinstance(val, types.FunctionType) and val in replacements:
                setattr(mod, attr, replacements[val])


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-pass call counts, self times, shares and counters of a traced run.

    ``<fn>.calls`` and ``<fn>.self_s`` are per pass; ``<fn>.p50_ms`` and
    ``<fn>.p99_ms`` are percentiles of single-call durations;
    ``share.<layer>`` is the layer's share of traced self time and
    ``<fn>.share`` a function's share counting its callees (outermost spans
    only).  ``traced_s`` is the traced time of one pass.
    """
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    incl_ns: dict[str, int] = {}
    durations: dict[str, list[int]] = {}
    spans = tracer.spans
    total = 0
    for span in spans:
        name = span[NAME]
        dur = span[END] - span[START]
        self_ns[name] = self_ns.get(name, 0) + dur - span[CHILD]
        if span[PARENT] < 0:
            total += dur
        if span[CALL]:
            calls[name] = calls.get(name, 0) + 1
            durations.setdefault(name, []).append(dur)
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != name:
            parent = spans[parent][PARENT]
        if parent < 0:
            incl_ns[name] = incl_ns.get(name, 0) + dur
    out: dict[str, float] = {"traced_s": total / 1e9 / passes}
    for name in set(self_ns) | set(calls):
        out[name + ".calls"] = calls.get(name, 0) / passes
        out[name + ".self_s"] = self_ns.get(name, 0) / 1e9 / passes
        out[name + ".share"] = incl_ns.get(name, 0) / total if total else 0.0
        durs = sorted(durations.get(name, ()))
        if len(durs) >= 2:
            p50, p99 = (statistics.quantiles(durs, n=100)[k] for k in (49, 98))
        else:
            p50 = p99 = durs[0] if durs else 0
        out[name + ".p50_ms"] = p50 / 1e6
        out[name + ".p99_ms"] = p99 / 1e6
    for layer in LAYERS:
        layer_ns = sum(v for k, v in self_ns.items() if k.split(".", 1)[0] == layer)
        out["share." + layer] = layer_ns / total if total else 0.0
    for key, n in tracer.counts.items():
        out[key] = n / passes
    tried = tracer.counts.get("coverings.tried", 0)
    out["coverings.solve_yield"] = tracer.counts.get("coverings.kept", 0) / tried if tried else 0.0
    out["census.classes"] = out.get("census.enumerate_gems.yields", 0.0)
    return out


def write_spans(tracer: Tracer, path: str) -> None:
    """Write every span as a tab-separated line, parents before children."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id\tname\tstart_ns\tend_ns\tparent\trequest\tself_ns\tcall\n")
        for sid, s in enumerate(tracer.spans):
            fh.write(
                "%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\n"
                % (sid, s[NAME], s[START], s[END], s[PARENT], s[REQUEST],
                   s[END] - s[START] - s[CHILD], s[CALL])
            )
