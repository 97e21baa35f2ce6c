"""The covering layer pinned byte for byte: ``gemkit cover`` stdout and the
solver's full solution tables, both recorded before the non-tree edges moved
onto the structure record.

``data/cover_golden.jsonl`` holds the stdout of
``gemkit cover --code B --degree d --limit 4`` for the three covering bases
at d = 2, 3, 5, in that order (one JSON line per run).  ``SOLVER_GOLDEN``
holds, per base, the number of Z_4 solutions with no limit and the sha256
of their ``repr(va.volt)`` tables concatenated in solver order.
``data/cover_digests.json`` holds the sha256 of the stdout of
``gemkit cover --code B --degree d`` for d = 100 and 400, recorded while H₁
still went through dense relation rows.
"""

import hashlib
import json
import os

import pytest

from gemkit import COVERING_BASE_CODES, find_admissible_cyclic_coverings, parse_code
from gemkit.cli import main

GOLDEN_COVER = os.path.join(os.path.dirname(__file__), "data", "cover_golden.jsonl")
COVER_DIGESTS = os.path.join(os.path.dirname(__file__), "data", "cover_digests.json")
DEGREES = (2, 3, 5)

SOLVER_GOLDEN = {
    "DABCFEFEABDCCDEFAB": (
        240,
        "de1ad731854eeacc0ca78b721fc3d8beb36b7bf63cc153bd74949bcd84177951",
    ),
    "FABCDEDEFABCCDEFAB": (
        240,
        "9c51748a2ebbf8ca28d2552c3fe9e3fab7e38d15cf29f3f174812883a182fe7f",
    ),
    "DABCFEFEDABCBCFEDA": (
        992,
        "044ddc3f73f84e46e78d26b4fc71fcd1c70b46101598a32784c279a8139027f7",
    ),
}


def golden_lines():
    with open(GOLDEN_COVER, encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    runs = [(code, d) for code in COVERING_BASE_CODES for d in DEGREES]
    assert len(lines) == len(runs)
    return list(zip(runs, lines))


@pytest.mark.parametrize("run, want", golden_lines(), ids=lambda x: str(x)[:24])
def test_cover_stdout_is_byte_identical(capsys, run, want):
    code, degree = run
    rc = main(["cover", "--code", code, "--degree", str(degree), "--limit", "4"])
    assert rc == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("code", COVERING_BASE_CODES)
def test_solver_tables_are_byte_identical(code):
    solutions = find_admissible_cyclic_coverings(parse_code(code), 4, limit=None)
    h = hashlib.sha256()
    for va in solutions:
        h.update(repr(va.volt).encode("ascii"))
    assert (len(solutions), h.hexdigest()) == SOLVER_GOLDEN[code]


def digest_runs():
    with open(COVER_DIGESTS, encoding="utf-8") as fh:
        digests = json.load(fh)
    return [
        (code, int(d), want) for d, by_code in digests.items() for code, want in by_code.items()
    ]


@pytest.mark.parametrize("code, degree, want", digest_runs(), ids=lambda x: str(x)[:18])
def test_large_degree_cover_stdout_digest(capsys, code, degree, want):
    assert main(["cover", "--code", code, "--degree", str(degree)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == want
