"""Record the expected outputs in ``golden.json`` from the current program.

Run from the repository root, only at a commit whose outputs are trusted:

    python3 perfbench/make_golden.py

It stores, for the full and the self-test sizes: the canonical code and the
invariant record of each bundled order-14 table row, the class count and
stdout digest of the census, the stdout digest of each cover job, and the
solution count and digest of each solver call.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from gemkit import canonical_code, find_admissible_cyclic_coverings, invariant_report, parse_code  # noqa: E402
from gemkit.data import TABLE1  # noqa: E402

import workloads as wl  # noqa: E402


def main() -> None:
    golden = {"table1": [], "census": {}, "cover": {}, "solve": {}}
    for row in TABLE1:
        g = parse_code(row.code)
        golden["table1"].append(
            {
                "name": row.name,
                "code": row.code,
                "boundary_count": row.boundary_count,
                "link_complement": row.link_complement,
                "canonical": canonical_code(g),
                "invariants": invariant_report(g),
            }
        )
    for sizes in (wl.TINY, wl.FULL):
        order = sizes["census"]["order"]
        golden["census"][str(order)] = wl.observe_census(wl.call_cli(wl.census_argv(order)))

        degree = sizes["cover"]["degree"]
        digests = {}
        for base in wl.COVERING_BASES:
            rc, stdout, _ = wl.call_cli(wl.cover_argv(base, degree))
            if rc or not wl.cover_ok(stdout, base, degree):
                raise SystemExit("cover %s at degree %d fails its own checks" % (base, degree))
            digests[base] = wl.sha256(stdout)
        golden["cover"][str(degree)] = digests

        degree = sizes["solve"]["degree"]
        golden["solve"][str(degree)] = {
            base: wl.observe_solutions(
                find_admissible_cyclic_coverings(parse_code(base), degree, limit=None)
            )
            for base in wl.COVERING_BASES
        }
    with open(wl.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
