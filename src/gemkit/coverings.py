"""Cyclic-group voltage assignments, derived graphs and covering maps.

A voltage assignment over Z_n labels each oriented edge of a base graph
with a group element, opposite orientations getting opposite elements.  The
derived graph has one fiber of n vertices over each base vertex; traversing
the color-c edge from ``(v, i)`` lands on ``(inv[c][v], i + volt(v, c))``.
A covering is *admissible* when it restricts to a bijection on every
bicolored cycle, which for derived graphs means every cycle has trivial
holonomy; admissible coverings of a graph whose manifold glues tetrahedra
face-to-face are unbranched on the interior and on all vertex links.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product
from math import gcd, prod
from operator import getitem, index
from typing import Iterator, Optional, Sequence

from gemkit.errors import (
    NoAdmissibleCoveringError,
    NonUniformFiberError,
    NotAdjacencyPreservingError,
    NotConnectedError,
)
from gemkit.graphs import COLORS, BicoloredCycle, ColoredGraph, _structure, is_connected
from gemkit.homology import snf_with_column_transform
from gemkit.topology import cycle_relation_rows

#: Largest derived-graph order (base order times degree) ``cover`` builds.
DERIVED_ORDER_CAP = 4800


class VoltageAssignment:
    """Z_n edge voltages on a base graph.

    ``volt[v][c]`` is the element picked up when leaving ``v`` along its
    color-c edge; the reverse traversal picks up the negative, which the
    constructor enforces.
    """

    __slots__ = ("base", "n", "volt")

    def __init__(self, base: ColoredGraph, n: int, volt: Sequence[Sequence[int]]):
        n = index(n)
        if n < 1:
            raise ValueError("the voltage group Z_n needs n >= 1")
        table = tuple(tuple(index(x) % n for x in row) for row in volt)
        if len(table) != base.order or any(len(row) != 4 for row in table):
            raise ValueError("volt must be an order x 4 table")
        for v in range(base.order):
            for c in COLORS:
                w = base.inv[c][v]
                if (table[v][c] + table[w][c]) % n:
                    raise ValueError(
                        "voltages on the color-%d edge at %d are not antisymmetric"
                        % (c, v)
                    )
        self.base = base
        self.n = n
        self.volt = table

    @classmethod
    def _trusted(cls, base: ColoredGraph, n: int, table: tuple) -> "VoltageAssignment":
        """Wrap a table of 4-tuples, reduced mod n and antisymmetric, unchecked.
        Its one caller is the covering solver :func:`_voltage_tables`, and the
        test ``TestTrustedVoltageTable`` proves each of its results equal to
        the validating build ``VoltageAssignment(base, n, va.volt)``."""
        va = object.__new__(cls)
        va.base = base
        va.n = n
        va.volt = table
        return va

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, VoltageAssignment)
            and self.base == other.base
            and self.n == other.n
            and self.volt == other.volt
        )

    def __hash__(self) -> int:
        return hash((self.base, self.n, self.volt))

    def __repr__(self) -> str:
        return "VoltageAssignment(order=%d, n=%d)" % (self.base.order, self.n)


class CoveringMap:
    """A vertex projection from a total graph onto a base graph."""

    __slots__ = ("total", "base", "f")

    def __init__(self, total: ColoredGraph, base: ColoredGraph, f: Sequence[int]):
        self.total = total
        self.base = base
        self.f = tuple(index(x) for x in f)
        if len(self.f) != total.order:
            raise ValueError("f must assign a base vertex to every total vertex")
        if any(not 0 <= x < base.order for x in self.f):
            raise ValueError("f maps outside the base vertex set")

    @property
    def degree(self) -> int:
        return self.total.order // self.base.order

    def __repr__(self) -> str:
        return "CoveringMap(%d -> %d)" % (self.total.order, self.base.order)


def derived_graph(va: VoltageAssignment) -> tuple[ColoredGraph, CoveringMap]:
    """The voltage construction: n copies of each vertex, shifted gluings.

    Vertex ``(v, i)`` is stored at index ``v*n + i``.  The color-c edge at
    base vertex v, to w with voltage s, carries the fiber over v onto the
    fiber over w turned by s: ``(v, i) -> (w, i + s)``, so each fiber's map
    entries are ``w*n + s, ..., w*n + n - 1, w*n, ..., w*n + s - 1``.  The
    deck map ``(v, i) -> (v, i + 1)`` is an automorphism, and the graph
    carries n as the canonical kernel's hint.  The projection onto the
    first coordinate is always a covering map of degree n.
    """
    base, n = va.base, va.n
    maps = []
    for inv_c, volt_c in zip(base.inv, zip(*va.volt)):
        m = []
        for w, s in zip(inv_c, volt_c):
            m += range(w * n + s, w * n + n)
            m += range(w * n, w * n + s)
        maps.append(tuple(m))
    total = ColoredGraph._trusted(tuple(maps), deck=n)
    return total, CoveringMap(total, base, [x // n for x in range(total.order)])


def verify_covering(cm: CoveringMap) -> int:
    """Check a projection is a genuine covering; returns its degree.

    The map must commute with all four involutions and every fiber must
    have the same size.
    """
    total, base, f = cm.total, cm.base, cm.f
    for c in COLORS:
        ti, bi = total.inv[c], base.inv[c]
        for x in range(total.order):
            if f[ti[x]] != bi[f[x]]:
                raise NotAdjacencyPreservingError(
                    "color-%d edge at total vertex %d maps to a non-edge" % (c, x)
                )
    sizes = [0] * base.order
    for v in f:
        sizes[v] += 1
    if len(set(sizes)) != 1:
        raise NonUniformFiberError(
            "fiber sizes range over %s" % sorted(set(sizes))
        )
    return sizes[0]


def is_admissible(cm: CoveringMap) -> bool:
    """Whether the covering is bijective on every bicolored cycle.

    Each cycle upstairs winds k >= 1 times round the cycle it covers and the
    k over one base cycle sum to the degree n, so this holds exactly when
    every color pair has n times as many cycles upstairs as in the base.
    Raises if ``cm`` is not a covering at all.
    """
    n = verify_covering(cm)
    total, base = _structure(cm.total).cycles, _structure(cm.base).cycles
    return all(len(t) == n * len(b) for t, b in zip(total, base))


def holonomy(va: VoltageAssignment, cycle: BicoloredCycle) -> int:
    """Net voltage around a bicolored cycle of the base graph.

    Starting vertex and direction change it only by sign, so vanishing is
    well defined; the derived cycles over this one have length multiplied
    by the order of the holonomy in Z_n.
    """
    colors = cycle.colors
    if len(colors) != 2 or colors[0] == colors[1] or not set(colors) <= set(COLORS):
        raise ValueError("cycle colors %r are not two distinct colors" % (colors,))
    c1, c2 = colors
    col = c1
    total = 0
    for u in cycle.vertices:
        if not 0 <= u < va.base.order:
            raise ValueError("cycle vertex %d outside the base graph" % u)
        total += va.volt[u][col]
        col = c1 + c2 - col
    return total % va.n


def find_admissible_cyclic_coverings(
    base: ColoredGraph, n: int, limit: Optional[int] = 1
) -> list[VoltageAssignment]:
    """Voltage assignments over Z_n with connected, admissible derived graphs.

    Gauge freedom is removed by forcing zero voltage on a fixed spanning
    tree, so distinct results are genuinely distinct coverings.  The zero-
    holonomy conditions on all bicolored cycles form an integer linear
    system in the non-tree voltages, ``U A V = D`` in Smith normal form.
    Its solutions mod n are the sums ``x = sum t_k (n / g_k) V[:, k]`` with
    ``0 <= t_k < g_k = gcd(d_k, n)`` (``d_k = 0`` past the rank) over the k
    with ``g_k > 1``, enumerated in lexicographic order of the ``t_k``.
    Those whose values generate Z_n, so that the derived graph is
    connected, are kept, wrapped without re-validation (the tables are
    built reduced and antisymmetric).  Returns at most ``limit`` of them
    (all when ``limit`` is None); with a positive limit, an empty list
    means no admissible connected covering of this degree exists.
    """
    return list(_solutions(base, n, limit))


def _solutions(base: ColoredGraph, n: int, limit: Optional[int]) -> Iterator[VoltageAssignment]:
    """:func:`find_admissible_cyclic_coverings` one table at a time: the
    arguments are checked at once, and each table is solved for as the
    iterator is consumed."""
    n = index(n)
    limit = None if limit is None else index(limit)
    if n < 1:
        raise ValueError("the covering degree must be at least 1")
    if limit is not None and limit < 0:
        raise ValueError("the solution limit must not be negative")
    if not is_connected(base):
        raise NotConnectedError("voltage solving requires a connected base")
    return islice(_voltage_tables(base, n), limit)


def _voltage_tables(base: ColoredGraph, n: int) -> Iterator[VoltageAssignment]:
    """The solver's tables in order, for arguments already checked.

    A table's row at a vertex holds the voltages of that vertex's darts,
    so it is the sum mod n of the rows of a *head*, a combination of the
    leading generators, and a *tail*, a combination of the rest; the cut
    falls where the head's combinations first number at least the square
    root of all of them.  Each head and tail is turned into rows once, and
    each (vertex, head row) keeps its sums with that vertex's distinct tail
    rows, so a table is one lookup per vertex.  The tails are found while
    the first head runs and are cached for the others, so a call with a
    small limit solves little.  The tables share one tuple per distinct
    row: the 31,744 tables of degree 8 over ``DABCFEFEDABCBCFEDA`` hold 960
    distinct rows and take about 0.2 KB each (1.1 KB with a tuple per row).
    """
    rows, free = cycle_relation_rows(base)
    factors, rank, V = snf_with_column_transform(rows)
    counts = [gcd(d, n) for d in factors + (0,) * (len(free) - rank)]
    kept = [k for k, g in enumerate(counts) if g > 1]
    total = prod(counts[k] for k in kept)
    cut, size = 0, 1
    while size * size < total:
        size *= counts[kept[cut]]
        cut += 1
    # each free dart and its reverse, as positions in the flat order x 4 table
    pos = [(4 * t + c, 4 * base.inv[c][t] + c) for t, c in free]
    vertices = range(base.order)

    def combinations(gens):
        """gcd(n, *y) and the per-vertex rows of each combination y of
        these generators, in product order."""
        steps = [range(0, n, n // counts[k]) for k in gens]
        for ys in product(*steps):
            flat = [0] * (4 * base.order)
            for (p, q), row in zip(pos, V):
                val = sum(y * row[k] for y, k in zip(ys, gens)) % n
                flat[p] = val
                flat[q] = -val % n
            yield gcd(n, *ys), tuple(zip(*[iter(flat)] * 4))

    shared: dict[tuple, tuple] = {}  # one tuple per distinct row, for all tables

    def summed(head_row, tail_row):
        row = tuple([(a + b) % n for a, b in zip(head_row, tail_row)])
        return shared.setdefault(row, row)

    tail_ids: list[dict] = [{} for _ in vertices]  # tail row -> its id, per vertex
    sums: list[dict] = [{} for _ in vertices]  # head row -> its sums by tail id

    def tail_id(v, tail_row):
        ids = tail_ids[v]
        i = ids.get(tail_row)
        if i is None:
            i = ids[tail_row] = len(ids)
            for head_row, row_sums in sums[v].items():
                row_sums.append(summed(head_row, tail_row))
        return i

    def sums_for(v, head_row):
        row_sums = sums[v].get(head_row)
        if row_sums is None:
            row_sums = sums[v][head_row] = [summed(head_row, t) for t in tail_ids[v]]
        return row_sums

    tails: list[tuple[int, tuple]] = []  # gcd and per-vertex row ids of each tail

    def discover():
        for tail_g, tail_rows in combinations(kept[cut:]):
            tails.append((tail_g, tuple(map(tail_id, vertices, tail_rows))))
            yield tails[-1]

    # x = V y with V unimodular, so y = V^-1 x is integral too, and n and
    # the x_i have the same common divisors as n and the y_k: the derived
    # graph is connected exactly when gcd(n, *y) = 1.  The y_k = t_k n / g_k
    # split between head and tail, so that is gcd(head_g, tail_g) = 1 for
    # head_g = gcd(n, *head's y) and tail_g = gcd(n, *tail's y).
    connecting: dict[int, list[tuple]] = {}  # head gcd -> ids of the tails it keeps
    for i, (head_g, head_rows) in enumerate(combinations(kept[:cut])):
        head_sums = list(map(sums_for, vertices, head_rows))
        if i == 0:  # the tails are found while the first head runs
            chosen = (ids for tail_g, ids in discover() if gcd(head_g, tail_g) == 1)
        else:
            if head_g not in connecting:
                connecting[head_g] = [ids for tail_g, ids in tails if gcd(head_g, tail_g) == 1]
            chosen = connecting[head_g]
        for ids in chosen:
            yield VoltageAssignment._trusted(base, n, tuple(map(getitem, head_sums, ids)))


@dataclass(frozen=True)
class ComplexityBounds:
    """Two-sided bounds on the graph complexity of a derived manifold."""

    lower: int
    upper: int


def complexity_bounds_report(
    base: ColoredGraph, tetrahedra: int, n: int
) -> ComplexityBounds:
    """Bounds for the degree-n admissible cyclic covers of ``base``.

    ``tetrahedra`` is the number of ideal tetrahedra in a triangulation of
    the base manifold; an admissible degree-n covering glues n times as
    many, while the derived graph has n times the base order, giving
    ``n * tetrahedra <= complexity <= n * base.order``.  The derived graph
    triangulates the cover with n * base.order tetrahedra, so
    ``tetrahedra`` above ``base.order`` is refused as crossed bounds; equal
    to it, the bounds meet and give the complexity exactly.  Existence of
    such a covering is checked by construction before reporting.
    """
    tetrahedra, n = index(tetrahedra), index(n)
    if tetrahedra < 1:
        raise ValueError("tetrahedra must be positive")
    if tetrahedra > base.order:
        raise ValueError("tetrahedra must not exceed the base order")
    if not find_admissible_cyclic_coverings(base, n, limit=1):
        raise NoAdmissibleCoveringError(
            "no connected admissible Z_%d covering of this base" % n
        )
    return ComplexityBounds(n * tetrahedra, n * base.order)
