"""Shared test utilities: frozen fixtures, random builders and independent
oracles that reimplement key predicates by a different route than the
package (union-find components, fraction-arithmetic linear algebra, naive
isomorphism bucketing).
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product
from math import gcd
from typing import Iterator, Optional, Sequence

from gemkit import (
    COLOR_PAIRS,
    COLORS,
    COVERING_BASE_CODES,
    TABLE1,
    ColoredGraph,
    bicolored_cycles,
    boundary_profile,
    canonical_code,
    derived_graph,
    find_admissible_cyclic_coverings,
    first_homology,
    is_connected,
    link_surface,
    parse_code,
    residues,
    verify_covering,
)
import gemkit.graphs as graphs_mod
from gemkit.census import CensusEntry, enumerate_gems
from gemkit.errors import (
    BadLengthError,
    InvalidLabelingError,
    NotBipartiteError,
    NotConnectedError,
)
from gemkit.graphs import (
    MAX_LETTER_PAIRS,
    _block_maps,
    _serialize_entries,
    beats_entries,
    bipartition,
)
from gemkit.homology import snf_with_column_transform
from gemkit.topology import cycle_relation_rows

TABLE_CODES = tuple(row.code for row in TABLE1)
ALL_BUNDLED_CODES = TABLE_CODES + COVERING_BASE_CODES

#: Connected but not bipartite: vertices 0,1,3 form an odd closed walk
#: (0-1 on color 0, 1-3 on color 2, 3-0 on color 3).
NON_BIPARTITE_INVS = ((1, 0, 3, 2), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))

#: Connected order-6 graph whose twelve bicolored cycles are all hexagons
#: (found by exhausting involution quadruples; it is not bipartite).
SIX_REGULAR_INVS = (
    (1, 0, 3, 2, 5, 4),
    (2, 4, 0, 5, 1, 3),
    (3, 5, 4, 0, 2, 1),
    (4, 3, 5, 1, 0, 2),
)

#: Order-8 census code of a closed manifold with first homology Z/2.
ORDER8_Z2_CODE = "BADCCDABDCBA"


# ---------------------------------------------------------------------------
# random builders (callers pass a seeded random.Random)
# ---------------------------------------------------------------------------


def random_ffi_involution(rng, n):
    """A uniformly random fixed-point-free involution on 0..n-1."""
    verts = list(range(n))
    rng.shuffle(verts)
    m = [0] * n
    for a, b in zip(verts[::2], verts[1::2]):
        m[a] = b
        m[b] = a
    return m


def random_colored_graph(rng, n):
    """Four independent random involutions; usually not bipartite."""
    return ColoredGraph([random_ffi_involution(rng, n) for _ in range(4)])


def random_bipartite_graph(rng, p):
    """Random permutation blocks; always bipartite, maybe disconnected."""
    blocks = []
    for _ in range(3):
        b = list(range(1, p + 1))
        rng.shuffle(b)
        blocks.append(b)
    return ColoredGraph.from_blocks(blocks)


def random_vertex_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def random_color_permutation(rng):
    sigma = [0, 1, 2, 3]
    rng.shuffle(sigma)
    return sigma


# ---------------------------------------------------------------------------
# independent component counting (union-find, no graph traversal)
# ---------------------------------------------------------------------------


def component_count(n, edges):
    """Number of connected components of the graph on 0..n-1 with ``edges``."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comps = n
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            comps -= 1
    return comps


# ---------------------------------------------------------------------------
# exact linear algebra oracles over Fraction arithmetic
# ---------------------------------------------------------------------------


def exact_determinant(mat):
    """Determinant of a square integer matrix, by fraction-free-safe
    Gaussian elimination over Fraction (exact)."""
    n = len(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] * inv
            if f:
                for c in range(col, n):
                    a[r][c] -= f * a[col][c]
    assert det.denominator == 1
    return int(det)


def rational_rank(mat):
    """Rank of an integer matrix over the rationals (row reduction)."""
    rows = [[Fraction(x) for x in row] for row in mat]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] * inv
                for c in range(col, ncols):
                    rows[r][c] -= f * rows[rank][c]
        rank += 1
    return rank


def minors_gcd(mat, k):
    """gcd of all k-by-k minors (0 when every minor vanishes).

    The product of the first k invariant factors of an integer matrix
    equals this gcd, which gives an implementation-independent oracle
    for the Smith normal form.
    """
    nr = len(mat)
    nc = len(mat[0]) if nr else 0
    g = 0
    for rows_idx in combinations(range(nr), k):
        for cols_idx in combinations(range(nc), k):
            sub = [[mat[r][c] for c in cols_idx] for r in rows_idx]
            g = gcd(g, exact_determinant(sub))
    return g


def matmul(a, b):
    """Plain integer matrix product."""
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def mobius(m):
    """The Moebius function: 0 when a square divides ``m``, otherwise -1 to
    the number of its prime factors."""
    out, d = 1, 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            out = -out
        d += 1
    if m > 1:
        out = -out
    return out


def surjective_hom_count(rank, n):
    """Number of surjective homomorphisms from Z^rank onto Z_n.

    Inclusion-exclusion over divisors: sum of mu(d) * (n/d)^rank.  Connected
    degree-n cyclic coverings correspond exactly to these, which makes the
    count an oracle for the covering solver.
    """
    return sum(mobius(d) * (n // d) ** rank for d in range(1, n + 1) if n % d == 0)


# ---------------------------------------------------------------------------
# slow canonical-form reference (every traversal built in full)
# ---------------------------------------------------------------------------


def full_traversal(g, sigma, start):
    """Entries of the breadth-first relabeling from ``start`` under ``sigma``.

    Labels ``-1..-p`` go to pairs in discovery order (root pair first, then
    each labeled pair's color-1, color-2, color-3 neighbors); the result
    lists, per color 1..3, the positive label met from each negative one.
    """
    inv = [g.inv[c] for c in sigma]
    p = g.order // 2
    pos_label = {inv[0][start]: 1}
    neg_vertex = [start]
    blocks = ([], [], [])
    for u in neg_vertex:
        for c in (1, 2, 3):
            w = inv[c][u]
            if w not in pos_label:
                pos_label[w] = len(pos_label) + 1
                neg_vertex.append(inv[0][w])
            blocks[c - 1].append(pos_label[w])
    assert len(neg_vertex) == p
    return blocks[0] + blocks[1] + blocks[2]


def all_traversals(g):
    """All 24 * order traversal entry lists, one per (sigma, start)."""
    return [
        full_traversal(g, sigma, start)
        for sigma in permutations(range(4))
        for start in range(g.order)
    ]


def reference_canonical_entries(g):
    """The minimum over every full traversal: the canonical entry list."""
    return min(all_traversals(g))


@contextmanager
def kernel_tries():
    """Record the canonical kernel's tries while the block runs.

    ``graphs._tries`` is wrapped, and the list given to the block gets one
    list per kernel call: the ``(inv0, inv1, inv2, inv3, s)`` tries that
    call took, in order.  A call that returns at its first winner takes no
    try past it, so ``sum(map(len, calls))`` counts the traversals allocated.
    """
    real = graphs_mod._tries
    calls = []

    def spy(g, ceiling):
        taken = []
        calls.append(taken)
        for t in real(g, ceiling):
            taken.append(t)
            yield t

    graphs_mod._tries = spy
    try:
        yield calls
    finally:
        graphs_mod._tries = real


# ---------------------------------------------------------------------------
# naive census oracle
# ---------------------------------------------------------------------------


def naive_census(order):
    """Canonical codes of all connected graphs of one order, by brute force.

    Every bipartite graph on p vertex pairs arises from a triple of
    permutation blocks, so bucketing all (p!)^3 triples by canonical code
    is an exhaustive (if slow) census to compare the pruned generator
    against.
    """
    p = order // 2
    perms = list(permutations(range(1, p + 1)))
    seen = set()
    for b1 in perms:
        for b2 in perms:
            for b3 in perms:
                g = ColoredGraph.from_blocks((b1, b2, b3))
                if is_connected(g):
                    seen.add(canonical_code(g))
    return seen


# ---------------------------------------------------------------------------
# former census generator
# ---------------------------------------------------------------------------


# The former enumerate_gems, kept as an oracle: it walks row-major code
# entries with used-label flags and rebuilds each leaf's maps from its
# blocks, and states the double-edge rule as label arithmetic.
def reference_enumerate_gems(order: int) -> Iterator[CensusEntry]:
    """Yield one entry per color-isomorphism class of the given order.

    The census is of connected bipartite graphs; entries appear in
    search order (sort by canonical code for the file format).
    """
    if order < 2 or order % 2:
        raise ValueError("order must be a positive even integer")
    p = order // 2
    entries = [0] * (3 * p)
    used = [[False] * (p + 2) for _ in range(3)]

    def extend(t: int, maxseen: int) -> Iterator[CensusEntry]:
        if t == 3 * p:
            blocks = [entries[c::3] for c in range(3)]
            g = ColoredGraph._trusted(_block_maps(blocks))
            cand = blocks[0] + blocks[1] + blocks[2]
            if not beats_entries(g, cand):
                code = _serialize_entries(cand)
                yield CensusEntry(code, order)
            return
        i, c = divmod(t, 3)
        if c == 0 and i and maxseen < i + 1:
            return  # pair i+1 was never discovered: the graph is disconnected
        top = maxseen + 1 if maxseen < p else p
        block = used[c]
        # after a first entry 2, label i+1 (color 0's) and the row's earlier
        # labels would make a double edge, so the leaf would be beaten
        double = {i + 1, *entries[t - c : t]} if t and entries[0] == 2 else ()
        for j in range(1, top + 1):
            if block[j] or j in double:
                continue
            block[j] = True
            entries[t] = j
            yield from extend(t + 1, maxseen if j <= maxseen else j)
            block[j] = False

    return extend(0, 1)


# ---------------------------------------------------------------------------
# former isomorphism search
# ---------------------------------------------------------------------------


# The former are_isomorphic, kept as an oracle: besides checking that the
# map it grows commutes with every involution, it refuses to send two
# vertices to one, a check the package now leaves to connectedness.
def reference_are_isomorphic(g1: ColoredGraph, g2: ColoredGraph) -> bool:
    """Whether some vertex bijection plus color permutation carries g1 to g2;
    both inputs must be connected."""
    if not is_connected(g1) or not is_connected(g2):
        raise NotConnectedError("isomorphism testing requires connected graphs")
    if g1.order != g2.order:
        return False
    n = g1.order
    for sigma in permutations(range(4)):
        target = tuple(g2.inv[c] for c in sigma)
        for w0 in range(n):
            phi = [-1] * n
            used = [False] * n
            phi[0] = w0
            used[w0] = True
            stack = [0]
            ok = True
            while stack and ok:
                x = stack.pop()
                fx = phi[x]
                for c in range(4):
                    y = g1.inv[c][x]
                    z = target[c][fx]
                    fy = phi[y]
                    if fy < 0:
                        if used[z]:
                            ok = False
                            break
                        phi[y] = z
                        used[z] = True
                        stack.append(y)
                    elif fy != z:
                        ok = False
                        break
            if ok:
                return True
    return False


# ---------------------------------------------------------------------------
# orbit-counting certificate for the census
# ---------------------------------------------------------------------------


def automorphism_count(g):
    """Colour automorphisms of a connected graph: the ``(sigma, w0)`` pairs
    for which the ``are_isomorphic`` search from ``g`` to itself succeeds."""
    n = g.order
    count = 0
    for sigma in permutations(range(4)):
        target = [g.inv[c] for c in sigma]
        for w0 in range(n):
            phi = [-1] * n
            used = [False] * n
            phi[0] = w0
            used[w0] = True
            stack = [0]
            ok = True
            while stack and ok:
                x = stack.pop()
                for c in range(4):
                    y, z = g.inv[c][x], target[c][phi[x]]
                    if phi[y] < 0:
                        if used[z]:
                            ok = False
                            break
                        phi[y] = z
                        used[z] = True
                        stack.append(y)
                    elif phi[y] != z:
                        ok = False
                        break
            count += ok
    return count


def census_start_count(g):
    """Traversal starts ``(sigma, s)`` a census leaf of this class can come
    from: those with a ``(sigma0, sigma1)`` double edge at ``s`` when the
    graph has a double edge (the search keeps only their leaves), else all
    ``24 * order``."""
    double = sum(
        g.inv[sigma[0]][s] == g.inv[sigma[1]][s]
        for sigma in permutations(range(4))
        for s in range(g.order)
    )
    return double or 24 * g.order


# ---------------------------------------------------------------------------
# structure-record oracles
# ---------------------------------------------------------------------------


def bfs_tree(g):
    """The breadth-first spanning tree of vertex 0's component, by a queue
    of its own: vertices in discovery order, colours ascending, each edge
    as ``(colour, u, w)`` with ``u < w``."""
    seen = {0}
    queue = [0]
    tree = set()
    for v in queue:
        for c in range(4):
            w = g.inv[c][v]
            if w not in seen:
                seen.add(w)
                tree.add((c, min(v, w), max(v, w)))
                queue.append(w)
    return tree


def reference_is_admissible(cm):
    """Admissibility cycle by cycle: every cycle upstairs has exactly the
    length of the base cycle under its first vertex."""
    verify_covering(cm)
    for pair in COLOR_PAIRS:
        base_len = {}
        for cyc in bicolored_cycles(cm.base, pair):
            for v in cyc.vertices:
                base_len[v] = len(cyc)
        for cyc in bicolored_cycles(cm.total, pair):
            if len(cyc) != base_len[cm.f[cyc.vertices[0]]]:
                return False
    return True


def reference_coverings(base, n, limit=None):
    """The covering solver's former box enumeration, as an oracle for the
    order of its solutions: every Smith normal form coordinate, the full
    product ``x = V y`` and a gcd loop.  Returns the volt tables of at most
    ``limit`` solutions (all when ``limit`` is None)."""
    rows, free = cycle_relation_rows(base)
    m = len(free)
    factors, rank, V = snf_with_column_transform(rows)
    counts = [gcd(d, n) for d in factors] + [n] * (m - rank)
    steps = [n // g for g in counts[:rank]] + [1] * (m - rank)
    out = []
    for combo in product(*(range(cnt) for cnt in counts)):
        y = [t * s for t, s in zip(combo, steps)]
        x = [sum(V[i][k] * y[k] for k in range(m)) % n for i in range(m)]
        g = n
        for val in x:
            g = gcd(g, val)
        if g != 1:
            continue
        volt = [[0] * 4 for _ in range(base.order)]
        for (t, c), val in zip(free, x):
            volt[t][c] = val
            volt[base.inv[c][t]][c] = -val % n
        out.append(tuple(map(tuple, volt)))
        if limit is not None and len(out) >= limit:
            break
    return out


def cover_signature(g, degrees=(2, 3)):
    """For each degree n, the sorted ``(rank, torsion)`` of the first
    homology of the connected admissible Z_n covers of ``g``, one per pair
    of surjections ±φ from the fundamental group onto Z_n.  The solver lists
    each surjection once, so this is an invariant of the manifold, not only
    of the graph.  The covers of φ and -φ are the same (the fibers swap
    i and -i), so only the table whose first nonzero voltage on the free
    darts is at most n/2 is kept: at n = 2, where φ = -φ, that is every
    table, and at odd n exactly one of each pair."""
    _, free = cycle_relation_rows(g)
    return tuple(
        sorted(
            (h.rank, h.torsion)
            for h in (
                first_homology(derived_graph(va)[0])
                for va in find_admissible_cyclic_coverings(g, n, None)
                if 2 * next(filter(None, (va.volt[t][c] for t, c in free))) <= n
            )
        )
        for n in degrees
    )


def insert_dipole(g, c, cut):
    """``g`` with a 1-dipole of color ``c`` inserted, or None when the new
    pair is no proper dipole with a sphere side.

    The new vertices x and y (numbered ``g.order`` and ``g.order + 1``) are
    joined by color ``c``.  For each other color d, the color-d edge at
    vertex ``cut[d]`` is cut, and x is joined to its side-1 end and y to
    its side-0 end, so the graph stays bipartite and connected.  The pair
    is kept when x and y lie in different residues missing ``c`` and one of
    them is a sphere: then cancelling the dipole, which gives back ``g``,
    keeps the manifold (Ferri and Gagliardi, "Crystallisation moves",
    Pacific J. Math. 100 (1982)).
    """
    side = bipartition(g)
    x, y = g.order, g.order + 1
    maps = [list(m) + [-1, -1] for m in g.inv]
    maps[c][x], maps[c][y] = y, x
    for d, v in cut.items():
        w = g.inv[d][v]
        neg, pos = (v, w) if side[v] == 0 else (w, v)
        maps[d][x], maps[d][pos] = pos, x
        maps[d][y], maps[d][neg] = neg, y
    h = ColoredGraph(maps)
    rx, ry = (next(r for r in residues(h, c) if v in r.vertices) for v in (x, y))
    if rx == ry or not (link_surface(rx).is_sphere or link_surface(ry).is_sphere):
        return None
    return h


def manifold_key(g):
    """The first homology and boundary profile of the graph's manifold."""
    return first_homology(g), boundary_profile(g)


@cache
def table1_signatures():
    """Each ``TABLE1`` row's name, :func:`manifold_key` and
    :func:`cover_signature`."""
    rows = []
    for row in TABLE1:
        g = parse_code(row.code)
        rows.append((row.name, manifold_key(g), cover_signature(g)))
    return tuple(rows)


def table1_census_clashes(order):
    """The census classes of one order that share some ``TABLE1`` row's
    :func:`manifold_key`, and the ``(class code, row name)`` pairs among
    them that share the row's :func:`cover_signature` too.  With the census
    complete, an empty list for every order below 14 shows that no smaller
    graph represents any row's manifold."""
    rows = table1_signatures()
    keys = {key for _, key, _ in rows}
    colliding, same = 0, []
    for entry in enumerate_gems(order):
        g = parse_code(entry.canonical)
        key = manifold_key(g)
        if key not in keys:
            continue
        colliding += 1
        signature = cover_signature(g)
        same += [(entry.canonical, name) for name, k, s in rows if (k, s) == (key, signature)]
    return colliding, same


# The former emit_code, kept as an oracle: it states the label rules one by
# one instead of checking that the code parses back.  It rejects labelings
# of disconnected graphs whose components swap the two classes.
def reference_emit_code(
    g: ColoredGraph,
    labels: Sequence[int],
    numeric: Optional[bool] = None,
) -> str:
    """Encode a bipartite graph under a vertex labeling by ``±1..±p``.

    The labeling must put all negative labels on one bipartition class and
    must give the color-0 partner of the vertex labeled ``-i`` the label
    ``+i``.  By default letters are used when they suffice (p <= 26) and the
    comma-separated numeric form otherwise; pass ``numeric`` to force one.
    """
    side = bipartition(g)
    if side is None:
        raise NotBipartiteError("only bipartite graphs have code strings")
    n = g.order
    p = n // 2
    if len(labels) != n:
        raise InvalidLabelingError("labeling has %d entries for order %d" % (len(labels), n))
    neg_vertex = [-1] * (p + 1)
    pos_label = [0] * n
    for v, lab in enumerate(labels):
        if not isinstance(lab, int) or lab == 0 or abs(lab) > p:
            raise InvalidLabelingError("label %r out of range at vertex %d" % (lab, v))
        if lab < 0:
            if neg_vertex[-lab] >= 0:
                raise InvalidLabelingError("label %d used twice" % lab)
            neg_vertex[-lab] = v
        else:
            if pos_label[v]:
                raise InvalidLabelingError("vertex %d labeled twice" % v)
            pos_label[v] = lab
    if any(v < 0 for v in neg_vertex[1:]):
        raise InvalidLabelingError("labeling is not a bijection onto ±1..±%d" % p)
    seen_pos = sorted(l for l in pos_label if l)
    if seen_pos != list(range(1, p + 1)):
        raise InvalidLabelingError("labeling is not a bijection onto ±1..±%d" % p)
    neg_side = side[neg_vertex[1]]
    for i in range(1, p + 1):
        v = neg_vertex[i]
        if side[v] != neg_side:
            raise InvalidLabelingError("negative labels span both bipartition classes")
        if pos_label[g.inv[0][v]] != i:
            raise InvalidLabelingError(
                "color-0 partner of label -%d is not labeled +%d" % (i, i)
            )
    entries = []
    for c in (1, 2, 3):
        m = g.inv[c]
        for i in range(1, p + 1):
            entries.append(pos_label[m[neg_vertex[i]]])
    if numeric is not None and not numeric and p > MAX_LETTER_PAIRS:
        raise BadLengthError(
            "letter codes address at most %d vertex pairs" % MAX_LETTER_PAIRS
        )
    return _serialize_entries(entries, numeric)
