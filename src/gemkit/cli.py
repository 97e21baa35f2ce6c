"""Command line front end.

Subcommands: validate | invariants | canon | cover | census | table1.

Code files are UTF-8 text, one code per line with an optional name prefix
separated by a tab; ``#`` starts a comment line and blank lines are
skipped.  ``-`` reads the standard input.  Data goes to stdout (JSON lines
for invariants/cover/census records), diagnostics to stderr.  Exit status:
0 success, 1 a failed check or an invalid input code, 2 a usage error or an
unreadable input file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from itertools import chain, islice
from typing import Iterator, Optional, Sequence

import gemkit.census as census_mod
from gemkit.coverings import DERIVED_ORDER_CAP, _solutions, derived_graph, is_admissible
from gemkit.errors import GemError
from gemkit.graphs import _structure, canonical_code, parse_code
from gemkit.topology import invariant_report

USAGE_ERROR = 2
CHECK_FAILED = 1


def read_records(path: str) -> Iterator[tuple[Optional[str], str]]:
    """Parse a code file into (name, code) records, one line at a time."""
    with nullcontext(sys.stdin) if path == "-" else open(path, encoding="utf-8") as fh:
        # iteration splits at newlines only; str.splitlines also at \x0c, \x85, \u2028...
        for text in fh:
            for line in text.splitlines():
                if line.strip() and not line.startswith("#"):
                    name, tab, code = line.partition("\t")
                    yield (name, code) if tab else (None, line)


def _json_line(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


# ---------------------------------------------------------------------------
# per-record functions: each returns (ok, line)
# ---------------------------------------------------------------------------


def _validate_record(record):
    name, code = record
    try:
        parse_code(code)
    except GemError as exc:
        detail = "%s: %s" % (type(exc).__name__, exc)
        return False, "ERROR\t%s\t%s\t%s" % (name or "-", code, detail)
    return True, "OK\t%s\t%s" % (name or "-", code)


def _invariants_record(record):
    name, code = record
    try:
        g = parse_code(code)
        return True, _json_line(invariant_report(g, name=name, code=code))
    except GemError as exc:
        return False, "%s: %s: %s" % (name or code, type(exc).__name__, exc)


def _canon_record(record):
    name, code = record
    try:
        canon = canonical_code(parse_code(code))
        return True, "%s\t%s" % (name, canon) if name else canon
    except GemError as exc:
        return False, "%s: %s: %s" % (name or code, type(exc).__name__, exc)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _run_records(args) -> int:
    """Print ``args.record(record)`` for each record of ``args.file`` as it is
    computed: the line goes to stdout when ``ok``, otherwise to the ``sys``
    stream named ``args.failures``, looked up here so a redirection holds."""
    failed = False
    err = getattr(sys, args.failures)
    for record in read_records(args.file):
        ok, line = args.record(record)
        print(line, file=sys.stdout if ok else err)
        failed = failed or not ok
    return CHECK_FAILED if failed else 0


def _cmd_cover(args) -> int:
    try:
        base = parse_code(args.code)
    except GemError as exc:
        raise ValueError("bad base code: %s" % exc) from None
    order = base.order * args.degree
    if order > DERIVED_ORDER_CAP:
        raise ValueError("derived order %d exceeds the cap %d" % (order, DERIVED_ORDER_CAP))
    solutions = _solutions(base, args.degree, args.limit)
    # solve for the first table before any output, so a solver error comes
    # first; the rest are solved one at a time as they are written
    first = list(islice(solutions, 1))
    free = _structure(base).free
    # one JSON object, written record by record as each is computed
    out = sys.stdout
    out.write('{"base_code":%s,"n":%d,"solutions":[' % (_json_line(args.code), args.degree))
    for i, va in enumerate(chain(first, solutions)):
        total, cm = derived_graph(va)
        report = invariant_report(total)
        record = {
            "voltages": [[t, c, va.volt[t][c]] for t, c in free],
            "derived_code": canonical_code(total),
            "admissible": is_admissible(cm),
            "boundary": report["boundary"],
            "h1": report["h1"],
        }
        out.write(("," if i else "") + _json_line(record))
    out.write("]}\n")
    return 0


def _cmd_census(args) -> int:
    cap = census_mod.ENUMERATION_CAP
    if args.order > cap:
        raise ValueError("order %d exceeds the enumeration cap %d" % (args.order, cap))
    if args.order == cap and not args.allow_large:
        raise ValueError("order %d is slow; pass --allow-large to run it" % args.order)
    if args.order < 2 or args.order % 2:
        raise ValueError("order must be a positive even integer")
    # open --out before the search, so a bad path fails at once
    out = open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout)
    with out as fh:
        # write_census classifies each code as it writes its line
        census_mod.write_census(fh, census_mod.build_census(args.order), args.order)
    return 0


def _cmd_table1(args) -> int:
    report = census_mod.verify_table1()
    for row in report.rows:
        if row.ok:
            print("PASS\t%s" % row.name)
        else:
            print("FAIL\t%s\t%s" % (row.name, "; ".join(row.problems)))
    print(
        "canonical codes distinct: %s"
        % ("yes" if report.distinct_canonical else "NO")
    )
    return 0 if report.ok else CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gemkit",
        description="Edge-colored graph codes of 3-manifolds: validation, "
        "invariants, canonical forms, cyclic coverings and censuses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the record subcommands: (name, per-record function, stream for failures, help)
    for name, record, failures, summary in (
        ("validate", _validate_record, "stdout", "check every code in a file parses"),
        ("invariants", _invariants_record, "stderr", "print one invariant JSON record per code"),
        ("canon", _canon_record, "stderr", "print the canonical code of every input code"),
    ):
        p = sub.add_parser(name, help=summary)
        p.add_argument("file", help="code file, or - for stdin")
        p.set_defaults(func=_run_records, record=record, failures=failures)

    p = sub.add_parser("cover", help="solve for admissible cyclic coverings")
    p.add_argument("--code", required=True, help="base graph code")
    p.add_argument("--degree", required=True, type=int, help="covering degree n")
    p.add_argument(
        "--limit",
        type=int,
        default=1,
        help="maximum number of solutions to report (default 1)",
    )
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("census", help="enumerate one order up to isomorphism")
    p.add_argument("--order", required=True, type=int, help="graph order (even)")
    p.add_argument("--out", default=None, help="write to a file instead of stdout")
    p.add_argument(
        "--allow-large",
        action="store_true",
        help="permit orders at the top of the enumeration cap",
    )
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("table1", help="verify the bundled order-14 table")
    p.set_defaults(func=_cmd_table1)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        raise
    except GemError as exc:
        print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return CHECK_FAILED
    except (OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return USAGE_ERROR


def main_entry() -> None:
    """Console-script entry point."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The downstream consumer closed the pipe; silence the final
        # interpreter flush and exit the way shells expect (128+SIGPIPE).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    raise SystemExit(code)


if __name__ == "__main__":
    main_entry()
