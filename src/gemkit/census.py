"""Enumeration of connected bipartite graphs up to color isomorphism,
classification, and verification of the bundled order-14 table.

A census class is its canonical code string: the generator yields codes,
``build_census`` sorts them, and ``write_census`` classifies each code as it
writes its line.

The generator builds one graph in place.  Color 0 joins vertex ``i`` to
``p+i``; the search fills in the color-1, 2 and 3 partners of vertex 0, then
of vertex 1, and so on, and backtracking reopens both ends of an edge (an
open slot holds -1).  It only extends graphs that a breadth-first relabeling
could actually produce: a new positive vertex may be joined only when it is
the first undiscovered one, every pair must be discovered before its row is
filled, and a vertex with a partner of some color takes no second one.
Every canonical code is such a traversal code, so finishing with a reject of
anything that some other start vertex or color permutation beats leaves
exactly one representative per isomorphism class.

Double-edge rule: a graph with a double edge has a canonical code starting
with 1 (start on the double edge, with its two colors as 0 and 1).  So once
vertex 0's color-1 partner is not its color-0 partner (the code starts with
2), the search never joins a vertex to one it already meets.  Only leaves
that would be rejected are lost; at order 10 that is 55,484 of 68,641.

Trusted leaf: the leaf's maps are involutions by construction, so a snapshot
of them is wrapped without the constructor's re-validation; a test checks
each leaf against the validated build.

Rejection: ``beats_entries`` tries the starts kept by the filters stated in
``graphs._least_traversal``, which the leaf's code (its ceiling) alone chooses:
below ``[1, k]``, double-edge starts reading entry 1 at most k, as the prefix
rule reads.  The leaf's own traversal, a tie at best, is tried last.

Prefix rule: at the start of rows 2 to p-2, a node whose code starts
``[1, k]`` with k > 2 is cut when some start on a double edge, under a color
permutation that puts the edge's two colors first, reads entry 1 below k
from filled slots alone (``_prefix_beaten``).  Every completion then has a
traversal list starting ``[1, j]`` with j < k, so every leaf below would
fail ``beats_entries``: the entries and their order stay the same.  The last
row is left out, as its nodes are about as many as its leaves.  Leaves fall
from 13,157 to 7,754 at order 10 and from 489,407 to 242,769 at order 12.
"""

from __future__ import annotations

import json
from typing import IO, Callable, Iterable, Iterator, Optional

from gemkit._value import Value
from gemkit.data import CENSUS_FORMAT, TABLE1, Table1Row
from gemkit.errors import CapExceededError, GemError
from gemkit.graphs import (
    COLOR_PAIRS,
    ColoredGraph,
    beats_entries,
    canonical_code,
    is_connected,
    parse_code,
    _serialize_entries,
)
from gemkit.topology import boundary_profile, first_homology, invariant_report

#: Largest order the exhaustive search is allowed to attempt.
ENUMERATION_CAP = 12


def enumerate_gems(order: int) -> Iterator[str]:
    """Yield the canonical code of each color-isomorphism class of the
    given order.

    The census is of connected bipartite graphs; codes appear in search
    order (sort them for the file format).
    """
    if order < 2 or order % 2:
        raise ValueError("order must be a positive even integer")
    p = order // 2
    maps = [list(range(p, order)) + list(range(p))] + [[-1] * order for _ in range(3)]

    def extend(t: int, maxseen: int) -> Iterator[str]:
        if t == 3 * p:
            ceiling = [w - p + 1 for m in maps[1:] for w in m[:p]]
            g = ColoredGraph._trusted(tuple(map(tuple, maps)))
            if not beats_entries(g, ceiling):
                yield _serialize_entries(ceiling)
            return
        i, c = divmod(t, 3)
        if c == 0 and i and maxseen < i + 1:
            return  # pair i+1 was never discovered: the graph is disconnected
        if c == 0 and 1 < i < p - 1 and maps[1][0] == p and maps[1][1] > p + 1:
            if _prefix_beaten(maps, maps[1][1] - p + 1):
                return
        top = maxseen + 1 if maxseen < p else p
        m = maps[c + 1]
        # once the code starts with 2, a partner that i already meets would
        # make a double edge, so the leaf would be beaten
        joined = {mk[i] for mk in maps[: c + 1]} if maps[1][0] > p else ()
        for w in range(p, p + top):
            if m[w] >= 0 or w in joined:
                continue
            m[i], m[w] = w, i
            yield from extend(t + 1, maxseen if w < p + maxseen else w - p + 1)
            m[i] = m[w] = -1

    return extend(0, 1)


def _prefix_beaten(maps: list[list[int]], k: int) -> bool:
    """Whether some start on a double edge reads entry 1 below ``k`` from
    the filled slots of the search's maps (the prefix rule; an open slot
    holds -1).

    A start ``s`` that colors a and b join to one vertex is read under the
    four color permutations that put a and b first.  Proof that every
    completion of the maps gives the entry 1 read here: the traversal labels
    +1 the sigma0 partner of ``s``, which is its sigma1 partner, then its
    sigma2 and sigma3 partners in turn when new, so the two orders of the
    other two colors fix +2 and +3.  It labels -2 the sigma0 partner of +2,
    and entry 1 is the label of the sigma1 partner of -2, or the next label
    when that partner is new, so the two orders of a and b fix -2 and its
    partner.  These five slots are all a permutation reads, and a start with
    an open slot of its own is passed over.
    """
    for column in zip(*maps):
        if -1 in column or len({*column}) == 4:
            continue  # an open slot, or no two colors join s to one vertex
        # COLOR_PAIRS reversed lists each pair's complement
        for (a, b), (c, d) in zip(COLOR_PAIRS, COLOR_PAIRS[::-1]):
            one, y, z = column[a], column[c], column[d]
            if one != column[b]:
                continue
            for two, three in ((y, z), (z, y)):
                if two == one:
                    continue  # the other order labels the same +2
                labels = (one, two) if three in (one, two) else (one, two, three)
                for e, f in ((a, b), (b, a)):
                    u = maps[e][two]
                    x = maps[f][u] if u >= 0 else -1
                    if x >= 0 and (*labels, x).index(x) + 1 < k:
                        return True
    return False


def classify(code: str) -> dict:
    """The invariant record of one census class, given its canonical code."""
    return invariant_report(parse_code(code), name=None, code=code)


def _check_cap(order: int) -> None:
    if order > ENUMERATION_CAP:
        raise CapExceededError(
            "order %d exceeds the enumeration cap %d" % (order, ENUMERATION_CAP)
        )


def build_census(order: int) -> list[str]:
    """The canonical codes of one order's census, sorted."""
    _check_cap(order)
    return sorted(enumerate_gems(order))


def write_census(fh: IO[str], codes: Iterable[str], order: int) -> None:
    """Write the census file format: hash-prefixed header, then one
    ``canonical<TAB>invariant-JSON`` line per code, each classified as it
    is written."""
    fh.write("#%s\n" % CENSUS_FORMAT)
    fh.write("#order=%d\n" % order)
    fh.write("#opts=bipartite,connected\n")
    for code in codes:
        fh.write("%s\t%s\n" % (code, json.dumps(classify(code), separators=(",", ":"))))


def minimality_probe(
    max_order: int, matches: Callable[[ColoredGraph], bool]
) -> Optional[int]:
    """Smallest order up to ``max_order`` with a census class whose graph
    ``matches``, or None.

    Scans exhaustive censuses of increasing order and stops at the first
    match, so a hit is a certified minimum over connected bipartite graphs.
    """
    _check_cap(max_order)
    for order in range(2, max_order + 1, 2):
        if any(matches(parse_code(code)) for code in enumerate_gems(order)):
            return order
    return None


# ---------------------------------------------------------------------------
# bundled-table verification
# ---------------------------------------------------------------------------


class RowCheck(Value):
    """The problems found in one bundled table row; it passes with none."""

    __slots__ = ("name", "problems")

    def __init__(self, name: str, problems: tuple[str, ...]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "problems", tuple(problems))

    @property
    def ok(self) -> bool:
        return not self.problems


class Table1Report(Value):
    """Every row's checks, and whether the canonical codes are distinct."""

    __slots__ = ("rows", "distinct_canonical")

    def __init__(self, rows: tuple[RowCheck, ...], distinct_canonical: bool):
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "distinct_canonical", distinct_canonical)

    @property
    def ok(self) -> bool:
        return self.distinct_canonical and all(r.ok for r in self.rows)


def verify_table1(rows: Iterable[Table1Row] = TABLE1) -> Table1Report:
    """Re-derive and check the bundled table's claims.

    Every row must parse to a connected bipartite order-14 graph whose
    boundary is exactly ``boundary_count`` tori; link-complement rows must
    in addition have free first homology of that rank.  All canonical codes
    must be pairwise distinct.
    """
    checks = []
    canonicals = []
    for row in rows:
        try:
            g = parse_code(row.code)
        except GemError as exc:
            checks.append(RowCheck(row.name, ("parse: %s" % exc,)))
            continue
        problems = []
        if g.order != 14:
            problems.append("order %d != 14" % g.order)
        if not is_connected(g):
            problems.append("not connected")
        if not problems:
            boundary = boundary_profile(g)
            if len(boundary) != row.boundary_count:
                problems.append(
                    "%d boundary components, expected %d"
                    % (len(boundary), row.boundary_count)
                )
            if not boundary.all_torus:
                problems.append("boundary contains a non-torus component")
            if row.link_complement:
                h1 = first_homology(g)
                if h1.torsion or h1.rank != row.boundary_count:
                    record = {"rank": h1.rank, "torsion": list(h1.torsion)}
                    problems.append(
                        "H1 is not free of rank %d: %r" % (row.boundary_count, record)
                    )
            canonicals.append(canonical_code(g))
        checks.append(RowCheck(row.name, problems))
    distinct = len(canonicals) == len(set(canonicals))
    return Table1Report(checks, distinct)
