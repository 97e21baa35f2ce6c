"""The census pinned byte for byte: the sha256 of ``gemkit census --order N``
stdout for N = 2, 4, 6, 8, 10, recorded before the search kept its graph in
place.

``data/census_golden.json`` maps each order to its class count and stdout
digest.  The orders the benchmark also pins must carry the benchmark's digest.
"""

import hashlib
import json
import os

import pytest

from gemkit.cli import main

HERE = os.path.dirname(__file__)
GOLDEN_CENSUS = os.path.join(HERE, "data", "census_golden.json")
BENCH_GOLDEN = os.path.join(HERE, "..", "perfbench", "golden.json")


def load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


GOLDEN = load(GOLDEN_CENSUS)


@pytest.mark.parametrize("order", sorted(GOLDEN, key=int))
def test_census_stdout_is_byte_identical(capsys, order):
    rc = main(["census", "--order", order])
    out = capsys.readouterr().out
    assert rc == 0
    assert len(out.splitlines()) == 3 + GOLDEN[order]["classes"]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[order]["stdout_sha256"]


def test_digests_agree_with_the_benchmark():
    bench = load(BENCH_GOLDEN)["census"]
    assert bench
    for order, rec in bench.items():
        assert rec["stdout_sha256"] == GOLDEN[order]["stdout_sha256"]
        assert int(rec["classes"]) == GOLDEN[order]["classes"]
