"""4-regular properly edge-colored multigraphs and their code strings.

A graph is stored as four fixed-point-free involutions on the vertex set
``0..order-1``, one per color.  The color-c edge at vertex ``v`` joins it to
``inv[c][v]``.  Loops are forbidden; multiple edges (the same pair joined by
several colors) are allowed.  Because every color is a perfect matching the
edge coloring is automatically proper.

Bipartite graphs admit a compact string encoding: with the vertex classes
labeled ``-1..-p`` and ``+1..+p`` so that color 0 joins ``-i`` to ``+i``,
the code lists, for each color ``c`` in 1..3 as a block of ``p`` characters,
the positive label of the color-c neighbor of ``-i``.  Capital letters name
positive labels (``A`` is 1), small letters negative ones.  Graphs with more
than 26 vertex pairs use the numeric variant: the same 3p entries, written
as comma-separated integers.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from itertools import permutations
from operator import eq, index
from typing import Iterable, Optional, Sequence

from gemkit.errors import (
    BadCharError,
    BadLengthError,
    InvalidLabelingError,
    NotBipartiteError,
    NotConnectedError,
    NotInvolutionError,
)

#: The fixed palette.  Every graph uses exactly these four colors.
COLORS = (0, 1, 2, 3)

#: The six unordered color pairs, in lexicographic order.
COLOR_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

#: Largest number of vertex pairs the letter codec can address.
MAX_LETTER_PAIRS = 26


class ColoredGraph:
    """A 4-regular multigraph with a proper edge coloring by {0,1,2,3}.

    Instances are immutable once constructed; all operations in this
    package treat them as values.
    """

    __slots__ = ("order", "inv", "_record", "_deck")

    def __init__(self, involutions: Sequence[Sequence[int]]):
        self.inv = _involutions(involutions, 4)
        self.order = len(self.inv[0])
        self._record = None
        self._deck = 1

    @classmethod
    def _trusted(cls, inv: tuple[tuple[int, ...], ...], deck: int = 1) -> "ColoredGraph":
        """Wrap four involutions, a tuple of tuples, without checking them:
        for :func:`parse_code`, :meth:`from_blocks`, the census leaves,
        :func:`derived_graph`, :func:`relabeled` and :func:`recolored`, which
        build ``inv`` from checked input and prove it in a test against
        ``ColoredGraph(inv)``.

        ``deck`` is the canonical kernel's hint d: turning each block of d
        consecutive vertices by one, ``(v, i) -> (v, i + 1 mod d)``, is an
        automorphism, so the kernel tries only the starts at multiples of d.
        Only :func:`derived_graph` passes one, its degree n; with the default
        1 every start is tried.  Equality and hashing ignore it."""
        g = object.__new__(cls)
        g.order = len(inv[0])
        g.inv = inv
        g._record = None
        g._deck = deck
        return g

    @classmethod
    def from_blocks(cls, blocks: Sequence[Sequence[int]]) -> "ColoredGraph":
        """Build the bipartite graph given by three permutation blocks.

        Vertices ``0..p-1`` form the negative class and ``p..2p-1`` the
        positive class; color 0 joins ``i`` to ``p+i`` and color ``c`` joins
        ``i`` to ``p + blocks[c-1][i] - 1`` (block values are 1-based).
        """
        blocks = [[index(j) for j in block] for block in blocks]
        if len(blocks) != 3:
            raise ValueError("expected 3 blocks, got %d" % len(blocks))
        for b, block in enumerate(blocks, 1):
            if not block or sorted(block) != list(range(1, len(blocks[0]) + 1)):
                raise ValueError("block %d is not a permutation of 1..p, p >= 1" % b)
        return cls._trusted(_block_maps(blocks))

    def neighbor(self, v: int, c: int) -> int:
        """The vertex joined to ``v`` by the color-``c`` edge."""
        return self.inv[c][v]

    def edges(self) -> list[tuple[int, int, int]]:
        """All ``2*order`` edges as ``(color, u, w)`` with ``u < w``.

        The listing is deterministic: colors ascending, then lower endpoint.
        """
        out = []
        for c in COLORS:
            m = self.inv[c]
            for u, w in enumerate(m):
                if u < w:
                    out.append((c, u, w))
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ColoredGraph) and self.inv == other.inv

    def __hash__(self) -> int:
        return hash(self.inv)

    def __repr__(self) -> str:
        return "ColoredGraph(order=%d)" % self.order


def _involutions(maps: Sequence[Sequence[int]], count: int) -> tuple[tuple[int, ...], ...]:
    """``maps`` as tuples, checked to be ``count`` fixed-point-free
    involutions on ``0..n-1`` with n positive and even; else ``ValueError``."""
    inv = tuple(tuple(index(w) for w in m) for m in maps)
    if len(inv) != count:
        raise ValueError("expected %d involutions, got %d" % (count, len(inv)))
    n = len(inv[0])
    if n < 2 or n % 2:
        raise ValueError("order must be a positive even integer, got %d" % n)
    for c, m in enumerate(inv):
        if len(m) != n:
            raise ValueError("map %d has length %d, expected %d" % (c, len(m), n))
        for v, w in enumerate(m):
            if not 0 <= w < n:
                raise ValueError("map %d sends vertex %d out of range" % (c, v))
            if w == v:
                raise ValueError("map %d has a fixed point at vertex %d" % (c, v))
            if m[w] != v:
                raise ValueError("map %d is not an involution at %d" % (c, v))
    return inv


def _relabel(
    maps: Sequence[Sequence[int]], order: Sequence[int]
) -> tuple[tuple[int, ...], ...]:
    """The maps on the vertices of ``order``, with ``order[k]`` renamed ``k``."""
    name = {v: k for k, v in enumerate(order)}
    return tuple(tuple(name[m[v]] for v in order) for m in maps)


def _block_maps(blocks: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The four involutions of :meth:`ColoredGraph.from_blocks`, unchecked."""
    b1, b2, b3 = blocks
    p = len(b1)
    maps = [tuple(range(p, 2 * p)) + tuple(range(p))]
    for block in (b1, b2, b3):
        m = [-1] * (2 * p)
        for i, j in enumerate(block):
            m[i] = p + j - 1
            m[p + j - 1] = i
        maps.append(tuple(m))
    return tuple(maps)


@dataclass(frozen=True)
class BicoloredCycle:
    """A connected component of the subgraph spanned by two colors.

    ``vertices`` lists the cycle in traversal order starting at its smallest
    vertex, first step along the lower color.  The length is always even.
    """

    colors: tuple[int, int]
    vertices: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.vertices)

    def __len__(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class Residue:
    """A connected component of the subgraph missing one color.

    Residues of a graph encoding a 3-dimensional complex are 3-colored
    graphs encoding the links of its vertices.
    """

    graph: ColoredGraph
    missing_color: int
    vertices: tuple[int, ...]

    @property
    def colors(self) -> tuple[int, int, int]:
        return tuple(c for c in COLORS if c != self.missing_color)

    @property
    def order(self) -> int:
        return len(self.vertices)

    def induced_involutions(self) -> tuple[tuple[int, ...], ...]:
        """The three involutions restricted to the residue, reindexed 0..m-1."""
        return _relabel([self.graph.inv[c] for c in self.colors], self.vertices)


# ---------------------------------------------------------------------------
# structure queries
# ---------------------------------------------------------------------------


def _components(maps: Sequence[Sequence[int]]):
    """Components and sides of the graph whose edges are the given involutions.

    Returns ``(comp, side, bipartite, via)``: each vertex's component index
    (components numbered by their smallest vertex), its side (the smallest
    vertex of its component sits on side 0), per component whether every
    edge joins the two sides, and per vertex ``w`` the map index ``c`` of
    its breadth-first tree edge to ``maps[c][w]`` (-1 at each root).
    """
    n = len(maps[0])
    comp = [-1] * n
    side = [0] * n
    bipartite = []
    via = [-1] * n
    indexed = list(enumerate(maps))
    for root in range(n):
        if comp[root] >= 0:
            continue
        k = len(bipartite)
        comp[root] = k
        even = True
        queue = [root]
        for v in queue:
            s = side[v] ^ 1
            for c, m in indexed:
                w = m[v]
                if comp[w] < 0:
                    comp[w] = k
                    side[w] = s
                    via[w] = c
                    queue.append(w)
                elif side[w] != s:
                    even = False
        bipartite.append(even)
    return comp, side, bipartite, via


def _cycles(first: Sequence[int], second: Sequence[int]) -> list[tuple[int, ...]]:
    """The cycles alternating two involutions, as vertex tuples.

    Each cycle starts at its smallest vertex and steps along ``first``
    first; the cycles come in the order of their starting vertices.
    """
    seen = [False] * len(first)
    out = []
    for v0 in range(len(first)):
        if seen[v0]:
            continue
        verts = []
        v = v0
        while True:
            w = first[v]
            verts += (v, w)
            seen[v] = seen[w] = True
            v = second[w]
            if v == v0:
                break
        out.append(tuple(verts))
    return out


_Structure = namedtuple("_Structure", "connected side free cycles")


def _structure(g: ColoredGraph, cycles: bool = True) -> _Structure:
    """The graph's structure record, computed on first use and kept on it.

    It holds the connected flag, the side tuple (``None`` unless bipartite),
    the edges off the breadth-first spanning tree of vertex 0's component
    and, per pair of ``COLOR_PAIRS``, the cycles of :func:`_cycles`.  Each
    free edge is a dart ``(tail, color)`` with head ``inv[color][tail]``,
    listed by color, then lower endpoint; the tail is the side-0 endpoint
    when the graph is bipartite and the lower endpoint otherwise.  With
    ``cycles`` false a new record gets the sweep only and no walk.
    """
    rec = g._record
    if rec is None:
        comp, side, bipartite, via = _components(g.inv)
        side = tuple(side) if all(bipartite) else None
        # an edge of vertex 0's component is on the tree exactly when it is
        # the tree edge of one of its endpoints
        free = tuple(
            (w if side and side[u] else u, c)
            for c, m in enumerate(g.inv)
            for u, w in enumerate(m)
            if u < w and (comp[u] or c not in (via[u], via[w]))
        )
        rec = g._record = _Structure(len(bipartite) == 1, side, free, None)
    if cycles and rec.cycles is None:
        walks = tuple(tuple(_cycles(g.inv[a], g.inv[b])) for a, b in COLOR_PAIRS)
        rec = g._record = rec._replace(cycles=walks)
    return rec


def bipartition(g: ColoredGraph) -> Optional[tuple[int, ...]]:
    """Two-color the vertices across all edges.

    Returns the per-vertex side array (the first vertex reached in every
    component sits on side 0), or ``None`` when some cycle is odd.
    """
    return _structure(g, cycles=False).side


def is_bipartite(g: ColoredGraph) -> bool:
    """True when no closed walk has odd length (the orientable case)."""
    return bipartition(g) is not None


def is_connected(g: ColoredGraph) -> bool:
    """True when every vertex is reachable from vertex 0."""
    return _structure(g, cycles=False).connected


def bicolored_cycles(g: ColoredGraph, colors: Iterable[int]) -> list[BicoloredCycle]:
    """The cycles spanned by a pair of colors, partitioning the vertex set.

    Each component of the 2-regular subgraph on the two colors is a cycle of
    even length alternating between them (length 2 means a double edge).
    """
    pair = sorted(colors)
    if len(pair) != 2 or pair[0] == pair[1] or not all(c in COLORS for c in pair):
        raise ValueError("need two distinct colors from %r" % (COLORS,))
    # index() keeps refusing a float color such as 1.0, which equals 1
    cycles = _structure(g).cycles[COLOR_PAIRS.index(tuple(map(index, pair)))]
    return [BicoloredCycle(tuple(pair), vs) for vs in cycles]


def residues(g: ColoredGraph, missing_color: int) -> list[Residue]:
    """Connected components after deleting all edges of one color."""
    missing_color = index(missing_color)  # refuses a float color such as 1.0
    if missing_color not in COLORS:
        raise ValueError("missing_color must be one of %r" % (COLORS,))
    comp, _, bipartite, _ = _components([g.inv[c] for c in COLORS if c != missing_color])
    groups = [[] for _ in bipartite]
    for v, k in enumerate(comp):
        groups[k].append(v)
    return [Residue(g, missing_color, tuple(vs)) for vs in groups]


# ---------------------------------------------------------------------------
# code strings
# ---------------------------------------------------------------------------


def _decode_entries(text: str) -> list[int]:
    """Turn a code string into signed 1-based entries, one per character/token."""
    if "," in text:
        entries = []
        for token in text.split(","):
            token = token.strip()
            digits = token[1:] if token[:1] == "-" else token
            if not (digits.isascii() and digits.isdigit()):
                raise BadCharError("token %r is not an integer" % token)
            try:
                entries.append(int(token))
            except ValueError:  # more digits than int() may convert
                raise BadCharError("token of %d digits is too long" % len(digits)) from None
        return entries
    entries = []
    for ch in text:
        o = ord(ch)
        if ord("A") <= o <= ord("Z"):
            entries.append(o - ord("A") + 1)
        elif ord("a") <= o <= ord("z"):
            entries.append(-(o - ord("a") + 1))
        else:
            raise BadCharError("character %r is not a letter" % ch)
    return entries


def _serialize_entries(entries: Sequence[int], numeric: Optional[bool] = None) -> str:
    """Letters, or comma-separated integers when ``numeric`` (by default when
    there are more than ``MAX_LETTER_PAIRS`` vertex pairs, which letters
    cannot address: forcing letters there is a ``BadLengthError``)."""
    letters = len(entries) <= 3 * MAX_LETTER_PAIRS
    if numeric or (numeric is None and not letters):
        return ",".join(str(j) for j in entries)
    if not letters:
        raise BadLengthError(
            "letter codes address at most %d vertex pairs" % MAX_LETTER_PAIRS
        )
    return "".join(chr(ord("A") + j - 1) for j in entries)


def parse_code(text: str) -> ColoredGraph:
    """Decode a code string into its bipartite :class:`ColoredGraph`.

    Vertices ``-1..-p`` become indices ``0..p-1`` and ``+1..+p`` become
    ``p..2p-1``, so the three blocks read directly as permutations.
    """
    if not isinstance(text, str):
        raise BadLengthError("code must be a string")
    if not text:
        raise BadLengthError("empty code")
    entries = _decode_entries(text)
    if len(entries) % 3:
        raise BadLengthError("code has %d entries, not divisible by 3" % len(entries))
    p = len(entries) // 3
    if "," not in text and p > MAX_LETTER_PAIRS:
        raise BadLengthError(
            "letter codes address at most %d vertex pairs, got %d"
            % (MAX_LETTER_PAIRS, p)
        )
    for e in entries:
        if e == 0 or abs(e) > p:
            raise BadCharError("entry %d outside the first %d labels" % (e, p))
    blocks = [entries[b * p : (b + 1) * p] for b in range(3)]
    for b, block in enumerate(blocks, 1):
        # a negative entry pairs two negative vertices; a repeat pairs one
        # positive vertex twice: either way the block is no permutation
        if min(block) < 0 or len(set(block)) != p:
            raise NotInvolutionError("block %d does not define an involution" % b)
    return ColoredGraph._trusted(_block_maps(blocks))


def identity_labeling(order: int) -> tuple[int, ...]:
    """The labeling produced by :func:`parse_code`: ``-1..-p`` then ``+1..+p``."""
    p = order // 2
    return tuple(-(i + 1) for i in range(p)) + tuple(i + 1 for i in range(p))


def emit_code(
    g: ColoredGraph,
    labels: Sequence[int],
    numeric: Optional[bool] = None,
) -> str:
    """Encode a bipartite graph under a vertex labeling by ``±1..±p``.

    Every edge must join a negative and a positive label, and color 0 must
    join ``-i`` to ``+i``, so that the code parses back to the relabeled
    graph.  By default letters are used when they suffice (p <= 26) and the
    comma-separated numeric form otherwise; pass ``numeric`` to force one.
    """
    if bipartition(g) is None:
        raise NotBipartiteError("only bipartite graphs have code strings")
    n = g.order
    p = n // 2
    if len(labels) != n:
        raise InvalidLabelingError("labeling has %d entries for order %d" % (len(labels), n))
    # -i goes to slot i-1 and +i to slot p+i-1, the layout of parse_code
    order = [-1] * n
    for v, lab in enumerate(labels):
        if not isinstance(lab, int) or lab == 0 or abs(lab) > p:
            raise InvalidLabelingError("label %r out of range at vertex %d" % (lab, v))
        k = -lab - 1 if lab < 0 else p + lab - 1
        if order[k] >= 0:
            raise InvalidLabelingError("label %d used twice" % lab)
        order[k] = v
    maps = _relabel(g.inv, order)
    blocks = [[w - p + 1 for w in m[:p]] for m in maps[1:]]
    if _block_maps(blocks) != maps:
        raise InvalidLabelingError(
            "an edge joins two labels of one sign, or color 0 does not join -i to +i"
        )
    return _serialize_entries([j for block in blocks for j in block], numeric)


# ---------------------------------------------------------------------------
# canonical form and isomorphism
# ---------------------------------------------------------------------------


def _least_traversal(g: ColoredGraph, ceiling: list[int], first: bool):
    """The least traversal entry list sorting strictly below ``ceiling``, or None.

    A traversal relabels breadth-first from one start vertex under one color
    permutation.  Its block-1 entries come out one per step, so it is dropped
    once that prefix passes the ceiling; if it ends below, it becomes the
    ceiling (with ``first`` it is returned at once, unfinished).

    Starts that cannot win are skipped: off fiber 0 of a derived graph (the
    deck map is an automorphism), and, when a winner's entry 0 must be 1 (a
    double edge exists or the ceiling starts with 1), those where colors
    sigma0 and sigma1 do not join the start to one vertex.  Without a double
    edge every entry 0 is 2, and entry 1 is 1 exactly when the start lies on
    a sigma0 sigma1 4-cycle (else it is at least 3); so when a winner's
    entry 1 must be 1 (a bicolored 4-cycle exists or the ceiling starts
    ``[2, 1]``), only those starts are tried.
    """
    p = g.order // 2
    best = None
    starts = range(0, 2 * p, g._deck)
    inv = g.inv
    double = ceiling[0] == 1 or any(any(map(eq, inv[a], inv[b])) for a, b in COLOR_PAIRS)
    # ab = inv[a] after inv[b] has a 4-cycle exactly when ab twice fixes a vertex
    four = not double and (
        ceiling[:2] == [2, 1]
        or any(
            any(map(eq, map(ab.__getitem__, ab), range(2 * p)))
            for ab in (tuple(map(inv[a].__getitem__, inv[b])) for a, b in COLOR_PAIRS)
        )
    )
    for sigma in permutations(COLORS):
        inv0, inv1, inv2, inv3 = (inv[c] for c in sigma)
        rest = ((p, inv2), (2 * p, inv3))
        if double:
            tried = [s for s in starts if inv0[s] == inv1[s]]
        elif four:
            tried = [s for s in starts if inv1[inv0[inv1[s]]] == inv0[s]]
        else:
            tried = starts
        for start in tried:
            pos_label = [0] * (2 * p)
            pos_label[inv0[start]] = 1
            neg_vertex = [0, start] + [0] * (p - 1)
            out = [0] * (3 * p)
            count, below = 1, False
            for i in range(p):
                u = neg_vertex[i + 1]
                w = inv1[u]
                j = pos_label[w]
                if not j:
                    count += 1
                    j = pos_label[w] = count
                    neg_vertex[j] = inv0[w]
                out[i] = j
                if not below and j != ceiling[i]:
                    if j > ceiling[i]:
                        break
                    if first:
                        return out
                    below = True
                for k, invc in rest:
                    w = invc[u]
                    j = pos_label[w]
                    if not j:
                        count += 1
                        j = pos_label[w] = count
                        neg_vertex[j] = inv0[w]
                    out[k + i] = j
            else:
                if out < ceiling:
                    if first:
                        return out
                    ceiling = best = out
    return best


def canonical_entries(g: ColoredGraph) -> list[int]:
    """The minimal traversal entry list; see :func:`canonical_code`."""
    # every entry is at most p < order, so any traversal beats this ceiling
    return _least_traversal(g, [g.order] * (3 * g.order // 2), False)


def beats_entries(g: ColoredGraph, ceiling: Sequence[int]) -> bool:
    """Whether any traversal entry list sorts below ``ceiling`` (census test)."""
    # zeros pad a short ceiling to block 1 without changing the comparison
    ceiling = list(ceiling) + [0] * (g.order // 2 - len(ceiling))
    return _least_traversal(g, ceiling, True) is not None


def canonical_code(g: ColoredGraph) -> str:
    """The lexicographically minimal code over all reachable encodings.

    Minimizes over the breadth-first relabelings from every start vertex
    combined with all 24 color permutations.  Two connected bipartite
    graphs are color-isomorphic exactly when their canonical codes agree.
    The kernel skips only starts that cannot give a smaller list, by the
    filters stated in :func:`_least_traversal`.
    """
    rec = _structure(g, cycles=False)
    if not rec.connected:
        raise NotConnectedError("canonical_code requires a connected graph")
    if rec.side is None:
        raise NotBipartiteError("canonical_code requires a bipartite graph")
    return _serialize_entries(canonical_entries(g))


def are_isomorphic(g1: ColoredGraph, g2: ColoredGraph) -> bool:
    """Whether some vertex bijection plus color permutation carries g1 to g2.

    Works for non-bipartite graphs as well; both inputs must be connected.
    On connected bipartite inputs this agrees with canonical-code equality.
    """
    if not is_connected(g1) or not is_connected(g2):
        raise NotConnectedError("isomorphism testing requires connected graphs")
    if g1.order != g2.order:
        return False
    n = g1.order
    for sigma in permutations(COLORS):
        target = tuple(g2.inv[c] for c in sigma)
        for w0 in range(n):
            phi = [-1] * n
            phi[0] = w0
            stack = [0]
            ok = True
            # phi's image is closed under g2's maps, so onto the connected g2
            while stack and ok:
                x = stack.pop()
                fx = phi[x]
                for m, t in zip(g1.inv, target):
                    y, z = m[x], t[fx]
                    fy = phi[y]
                    if fy < 0:
                        phi[y] = z
                        stack.append(y)
                    elif fy != z:
                        ok = False
                        break
            if ok:
                return True
    return False


def relabeled(g: ColoredGraph, perm: Sequence[int]) -> ColoredGraph:
    """The same colored graph with vertex ``v`` renamed ``perm[v]``."""
    n = g.order
    # index() refuses a float such as 1.0, which would pass as a sort key
    if sorted(map(index, perm)) != list(range(n)):
        raise ValueError("perm must be a permutation of 0..%d" % (n - 1))
    return ColoredGraph._trusted(_relabel(g.inv, sorted(range(n), key=perm.__getitem__)))


def recolored(g: ColoredGraph, sigma: Sequence[int]) -> ColoredGraph:
    """The same graph with new color ``c`` drawn from old color ``sigma[c]``."""
    if sorted(sigma) != list(COLORS):
        raise ValueError("sigma must be a permutation of %r" % (COLORS,))
    return ColoredGraph._trusted(tuple(g.inv[sigma[c]] for c in COLORS))
