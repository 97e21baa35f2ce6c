"""Inputs, jobs and output checks of the gemkit benchmark workloads.

Each workload stresses a different layer of gemkit:

``batch``
    ``gemkit invariants FILE`` then ``gemkit canon FILE`` on about 1000
    order-14 records: relabelled variants of the 34 bundled table rows plus
    a few malformed records.  No two input strings repeat, so a cache keyed
    on the input string gains nothing.  Canonical form dominates.
``census``
    ``gemkit census --order 10``.  The census generator dominates; canonical
    form serves only as its rejection test.
``cover``
    ``gemkit cover --code B --degree 20`` for the three covering bases, so
    the derived graphs have order 240.  Dense SNF and canonical form of one
    large sparse graph dominate.
``solve``
    ``find_admissible_cyclic_coverings(base, 8, limit=None)`` on the three
    bases: tens of thousands of solutions, so the solver and its memory
    dominate.

A prepared :class:`Job` runs one pass of the fixed job, a few steps timed
one by one, and checks their outputs
against ``golden.json`` (recorded by ``make_golden.py`` from the unchanged
program) and against invariants known independently of the program.  The
module must be imported after ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

from gemkit import cli, coverings, graphs

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")

#: The three order-12 covering bases (``gemkit.data.COVERING_BASE_CODES``),
#: copied so that the inputs do not depend on the program under test.
COVERING_BASES = ("DABCFEFEABDCCDEFAB", "FABCDEDEFABCCDEFAB", "DABCFEFEDABCBCFEDA")

#: Workload sizes of the benchmark proper and of the self-test.
FULL = {
    "batch": {"records": 1000, "malformed": 20},
    "census": {"order": 10},
    "cover": {"degree": 20},
    "solve": {"degree": 8},
}
TINY = {
    "batch": {"records": 40, "malformed": 4},
    "census": {"order": 6},
    "cover": {"degree": 2},
    "solve": {"degree": 3},
}

#: Malformations of a valid letter code and the error class each must raise.
MALFORMED = {
    "bad_char": "BadCharError",
    "bad_length": "BadLengthError",
    "lower_case": "NotInvolutionError",
    "not_involution": "NotInvolutionError",
}

TORUS = {"orientable": True, "euler": 0, "genus": 1}


@dataclass
class Job:
    """One workload at one size and seed, ready to run."""

    name: str
    steps: list[Callable[[], object]]  # one pass runs each step once, in order
    check: Callable[[list], tuple[int, int]]  # step outputs -> attempted, failed
    items: int  # items one pass produces
    ops: int  # operations one pass attempts
    inputs: dict = field(default_factory=dict)

    def run(self) -> list:
        return [step() for step in self.steps]


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run ``gemkit.cli.main`` in-process, capturing stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _json_line(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


# ---------------------------------------------------------------------------
# batch
# ---------------------------------------------------------------------------


def _letters_to_blocks(code: str) -> list[list[int]]:
    p = len(code) // 3
    entries = [ord(ch) - ord("A") + 1 for ch in code]
    return [entries[b * p : (b + 1) * p] for b in range(3)]


def _blocks_to_letters(blocks: list[list[int]]) -> str:
    return "".join(chr(ord("A") + j - 1) for block in blocks for j in block)


def variant(code: str, rng: random.Random) -> str:
    """The code of the same graph under a random relabelling.

    Applies a random permutation of the vertex pairs, a random permutation
    of colors 1-3 and, with probability 1/2, a swap of the two vertex
    classes; the result is what ``emit_code`` gives for the relabelled
    graph.  Block ``c`` lists, for each negative label ``-i``, the positive
    label of its color-``c`` neighbour.
    """
    blocks = _letters_to_blocks(code)
    p = len(blocks[0])
    if rng.random() < 0.5:  # -i <-> +i: every block becomes its inverse
        inverses = []
        for block in blocks:
            inv = [0] * p
            for i, j in enumerate(block):
                inv[j - 1] = i + 1
            inverses.append(inv)
        blocks = inverses
    sigma = rng.sample(range(3), 3)
    blocks = [blocks[s] for s in sigma]
    pi = rng.sample(range(1, p + 1), p)  # pair i is renamed pi[i-1]
    relabelled = []
    for block in blocks:
        new = [0] * p
        for i, j in enumerate(block):
            new[pi[i] - 1] = pi[j - 1]
        relabelled.append(new)
    return _blocks_to_letters(relabelled)


def malform(code: str, kind: str, rng: random.Random) -> str:
    """Break a valid letter code in the way named by ``kind``."""
    k = rng.randrange(len(code))
    if kind == "bad_char":
        return code[:k] + rng.choice("0123456789") + code[k + 1 :]
    if kind == "bad_length":
        return code[:k] + code[k + 1 :]
    if kind == "lower_case":
        return code[:k] + code[k].lower() + code[k + 1 :]
    if kind == "not_involution":
        p = len(code) // 3
        b, i = divmod(k, p)
        j = (i + 1 + rng.randrange(p - 1)) % p  # another slot of the same block
        return code[:k] + code[b * p + j] + code[k + 1 :]
    raise ValueError("unknown malformation %r" % kind)


BATCH_COMMANDS = ("invariants", "canon")


def prepare_batch(seed: int, size: dict, golden: dict, workdir: str) -> Job:
    rng = random.Random(seed)
    rows = golden["table1"]
    n = size["records"]
    bad_slots = sorted(rng.sample(range(n), size["malformed"]))
    kinds = sorted(MALFORMED)
    bad_kind = {slot: kinds[k % len(kinds)] for k, slot in enumerate(bad_slots)}
    seen: set[str] = set()
    records = []  # (name, code, row index, expected error class or None)
    for k in range(n):
        while True:
            r = rng.randrange(len(rows))
            code = variant(rows[r]["code"], rng)
            if k in bad_kind:
                code = malform(code, bad_kind[k], rng)
            if code not in seen:
                break
        seen.add(code)
        expected_error = MALFORMED[bad_kind[k]] if k in bad_kind else None
        records.append(("r%04d" % k, code, r, expected_error))
    text = "".join("%s\t%s\n" % (name, code) for name, code, _, _ in records)
    path = os.path.join(workdir, "batch-%d.txt" % seed)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)

    def check(outs) -> tuple[int, int]:
        return check_batch(records, rows, dict(zip(BATCH_COMMANDS, outs)))

    return Job(
        "batch",
        [lambda cmd=cmd: call_cli([cmd, path]) for cmd in BATCH_COMMANDS],
        check,
        items=n,
        ops=2 * n + 2,
        inputs={
            "records": n,
            "malformed": size["malformed"],
            "order": 14,
            "input_sha256": sha256(text),
        },
    )


def _expected_invariants(row: dict, name: str, code: str) -> str:
    report = dict(row["invariants"])
    report["name"], report["code"] = name, code
    return _json_line(report)


def _independent_invariants_ok(row: dict, line: str) -> bool:
    """What the table row's metadata says without asking the program."""
    try:
        rep = json.loads(line)
    except ValueError:
        return False
    k = row["boundary_count"]
    if rep.get("order") != 14 or rep.get("boundary") != [TORUS] * k:
        return False
    return not row["link_complement"] or rep.get("h1") == {"rank": k, "torsion": []}


def _stderr_classes(err: str) -> dict[str, str]:
    classes = {}
    for line in err.splitlines():
        parts = line.split(": ", 2)
        if len(parts) == 3:
            classes[parts[0]] = parts[1]
    return classes


def check_batch(records, rows, out) -> tuple[int, int]:
    """One operation per record and command, plus one per command stream.

    A valid record passes when its output line equals the line recorded at
    the seed commit and agrees with the row's metadata; a malformed record
    passes when it is rejected with its expected error class and nothing
    else.  A stream passes when the exit status and the whole stdout match
    the seed commit's byte for byte.
    """
    attempted = failed = 0
    expect_rc = 1 if any(e for _, _, _, e in records) else 0
    for cmd in BATCH_COMMANDS:
        rc, stdout, stderr = out[cmd]
        by_name = {}
        for line in stdout.splitlines():
            if cmd == "canon":
                name, _, _ = line.partition("\t")
            else:
                try:
                    name = json.loads(line).get("name")
                except ValueError:
                    name = None
            by_name[name] = line
        errors = _stderr_classes(stderr)
        expected_out = []
        for name, code, r, expected_error in records:
            attempted += 1
            row = rows[r]
            line = by_name.get(name)
            if expected_error:
                ok = line is None and errors.get(name) == expected_error
            else:
                if cmd == "canon":
                    want = "%s\t%s" % (name, row["canonical"])
                    ok = line == want
                else:
                    want = _expected_invariants(row, name, code)
                    ok = line == want and _independent_invariants_ok(row, line)
                ok = ok and name not in errors
                expected_out.append(want + "\n")
            failed += not ok
        attempted += 1
        failed += rc != expect_rc or stdout != "".join(expected_out)
    return attempted, failed


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------


def census_argv(order: int) -> list[str]:
    return ["census", "--order", str(order)]


def observe_census(out) -> dict:
    rc, stdout, _ = out
    classes = sum(1 for line in stdout.splitlines() if not line.startswith("#"))
    return {"rc": rc, "classes": classes, "stdout_sha256": sha256(stdout)}


def prepare_census(seed: int, size: dict, golden: dict, workdir: str) -> Job:
    order = size["order"]
    want = golden["census"][str(order)]
    argv = census_argv(order)

    def check(outs) -> tuple[int, int]:
        # one operation per job: exit status, class count and stdout digest
        return 1, int(observe_census(outs[0]) != want)

    return Job(
        "census",
        [lambda: call_cli(argv)],
        check,
        items=want["classes"],
        ops=1,
        inputs={"order": order, "input_sha256": sha256(" ".join(argv))},
    )


# ---------------------------------------------------------------------------
# cover
# ---------------------------------------------------------------------------


def cover_argv(base: str, degree: int) -> list[str]:
    return ["cover", "--code", base, "--degree", str(degree)]


def cover_ok(stdout: str, base: str, degree: int) -> bool:
    """Derived order 12n, admissible, and an all-torus boundary."""
    try:
        rec = json.loads(stdout)
    except ValueError:
        return False
    sols = rec.get("solutions") or []
    if rec.get("base_code") != base or rec.get("n") != degree or len(sols) != 1:
        return False
    for sol in sols:
        code = sol["derived_code"]
        entries = code.count(",") + 1 if "," in code else len(code)
        boundary = sol["boundary"]
        if 2 * entries // 3 != 12 * degree or sol["admissible"] is not True:
            return False
        if not boundary or any(s != TORUS for s in boundary):
            return False
    return True


def prepare_cover(seed: int, size: dict, golden: dict, workdir: str) -> Job:
    degree = size["degree"]
    want = golden["cover"][str(degree)]
    argvs = [cover_argv(b, degree) for b in COVERING_BASES]

    def check(outs) -> tuple[int, int]:
        failed = 0
        for base, (rc, stdout, _) in zip(COVERING_BASES, outs):
            ok = rc == 0 and cover_ok(stdout, base, degree)
            failed += not (ok and sha256(stdout) == want[base])
        return len(COVERING_BASES), failed

    return Job(
        "cover",
        [lambda argv=argv: call_cli(argv) for argv in argvs],
        check,
        items=len(COVERING_BASES),
        ops=len(COVERING_BASES),
        inputs={
            "degree": degree,
            "order": 12 * degree,
            "bases": list(COVERING_BASES),
            "input_sha256": sha256(json.dumps(argvs)),
        },
    )


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def observe_solutions(solutions) -> dict:
    h = hashlib.sha256()
    for va in solutions:
        h.update(repr(va.volt).encode("ascii"))
    return {"count": len(solutions), "sha256": h.hexdigest()}


def prepare_solve(seed: int, size: dict, golden: dict, workdir: str) -> Job:
    degree = size["degree"]
    want = golden["solve"][str(degree)]
    bases = [graphs.parse_code(b) for b in COVERING_BASES]

    def check(outs) -> tuple[int, int]:
        failed = 0
        for code, sols in zip(COVERING_BASES, outs):
            failed += observe_solutions(sols) != want[code]
        return len(COVERING_BASES), failed

    return Job(
        "solve",
        [lambda g=g: coverings.find_admissible_cyclic_coverings(g, degree, limit=None)
         for g in bases],
        check,
        items=sum(want[b]["count"] for b in COVERING_BASES),
        ops=len(COVERING_BASES),
        inputs={
            "degree": degree,
            "order": 12,
            "bases": list(COVERING_BASES),
            "input_sha256": sha256(json.dumps([COVERING_BASES, degree])),
        },
    )


PREPARE = {
    "batch": prepare_batch,
    "census": prepare_census,
    "cover": prepare_cover,
    "solve": prepare_solve,
}


def prepare(name: str, seed: int, sizes: dict, golden: dict, workdir: str) -> Job:
    job = PREPARE[name](seed, sizes[name], golden, workdir)
    job.inputs = {"seed": seed, **job.inputs}
    return job
