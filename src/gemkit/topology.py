"""Topological invariants of the complex represented by a colored graph.

A 4-colored graph encodes a 3-dimensional complex with one tetrahedron per
vertex, one face gluing per edge, one edge class per bicolored cycle and one
vertex class per residue.  Each residue is a 3-colored graph encoding the
closed surface linking that vertex class; the represented compact
3-manifold is the complex minus open cones over the non-sphere links, so
those links are exactly the boundary components.
"""

from __future__ import annotations

from operator import index
from typing import Optional, Sequence

from gemkit._value import Value
from gemkit.errors import NotConnectedError
from gemkit.graphs import (
    COLOR_PAIRS,
    COLORS,
    ColoredGraph,
    Residue,
    _components,
    _cycles,
    _involutions,
    _structure,
    residues,
)
from gemkit.homology import HomologyGroup, group_from_relations


class SurfaceType(Value):
    """A closed surface, classified by orientability and Euler characteristic."""

    __slots__ = ("orientable", "euler")

    def __init__(self, orientable: bool, euler: int):
        if orientable is not True and orientable is not False:
            raise TypeError("orientable must be True or False, not %r" % (orientable,))
        euler = index(euler)
        if euler > 2:
            raise ValueError("no closed surface has Euler characteristic > 2")
        if orientable and euler % 2:
            raise ValueError("orientable closed surfaces have even Euler characteristic")
        object.__setattr__(self, "orientable", orientable)
        object.__setattr__(self, "euler", euler)

    @property
    def genus(self) -> int:
        """Orientable genus, or crosscap number when non-orientable."""
        if self.orientable:
            return (2 - self.euler) // 2
        return 2 - self.euler

    @property
    def is_sphere(self) -> bool:
        return self.euler == 2

    @property
    def is_torus(self) -> bool:
        return self.orientable and self.euler == 0

    def describe(self) -> str:
        if self.is_sphere:
            return "sphere"
        if self.is_torus:
            return "torus"
        kind = "orientable" if self.orientable else "non-orientable"
        return "%s genus-%d surface" % (kind, self.genus)

    def as_dict(self) -> dict:
        return {"orientable": self.orientable, "euler": self.euler, "genus": self.genus}


class BoundaryProfile(Value):
    """The non-sphere vertex links, one per boundary component."""

    __slots__ = ("components",)

    def __init__(self, components: tuple[SurfaceType, ...]):
        object.__setattr__(self, "components", tuple(components))

    @property
    def closed(self) -> bool:
        return not self.components

    @property
    def all_torus(self) -> bool:
        return all(s.is_torus for s in self.components)

    def __len__(self) -> int:
        return len(self.components)


def _surfaces(maps: Sequence[Sequence[int]], cycles) -> list[SurfaceType]:
    """The closed surface encoded by each component of a 3-colored graph.

    ``cycles`` holds each color pair's cycles as vertex tuples.  A component
    on m vertices is a surface of m triangles (its vertices) glued along
    3m/2 edges (its edges), with one surface vertex per bicolored cycle, so
    its Euler characteristic is V - E + F = cycles - 3m/2 + m = cycles -
    m/2.  It is orientable exactly when it is bipartite.  Surfaces come in
    the order of the components' smallest vertices.
    """
    comp, _, bipartite, _ = _components(maps)
    size = [0] * len(bipartite)
    for k in comp:
        size[k] += 1
    euler = [-s // 2 for s in size]
    for pair_cycles in cycles:
        for cycle in pair_cycles:
            euler[comp[cycle[0]]] += 1
    return [SurfaceType(o, e) for o, e in zip(bipartite, euler)]


def surface_type(involutions: Sequence[Sequence[int]]) -> SurfaceType:
    """Classify the closed surface encoded by a connected 3-colored graph.

    Raises ``ValueError`` unless the three maps are fixed-point-free
    involutions on one connected vertex set.
    """
    maps = _involutions(involutions, 3)
    cycles = [_cycles(maps[a], maps[b]) for a, b in ((0, 1), (0, 2), (1, 2))]
    surfaces = _surfaces(maps, cycles)
    if len(surfaces) != 1:
        raise ValueError("the 3-colored graph must be connected")
    return surfaces[0]


def link_surface(residue: Residue) -> SurfaceType:
    """The closed surface encoded by one residue (a vertex link)."""
    return surface_type(residue.induced_involutions())


def boundary_profile(g: ColoredGraph) -> BoundaryProfile:
    """All non-sphere vertex links, in a deterministic order.

    Empty exactly when the represented manifold is closed.
    """
    rec = _structure(g)
    if not rec.connected:
        raise NotConnectedError("boundary_profile requires a connected graph")
    comps = []
    for c in COLORS:
        maps = [g.inv[k] for k in COLORS if k != c]
        cycles = [cyc for pair, cyc in zip(COLOR_PAIRS, rec.cycles) if c not in pair]
        comps += [s for s in _surfaces(maps, cycles) if not s.is_sphere]
    comps.sort(key=lambda s: (not s.orientable, -s.euler))
    return BoundaryProfile(comps)


def is_closed(g: ColoredGraph) -> bool:
    """True when every vertex link is a sphere."""
    return boundary_profile(g).closed


# ---------------------------------------------------------------------------
# first homology via the dual 2-complex
# ---------------------------------------------------------------------------


def _relation_walk(g: ColoredGraph):
    """Boundary rows of the bicolored-cycle 2-cells over the non-tree edges.

    Each bicolored cycle is traversed once, crossing each of its non-tree
    edges once: +1 from its tail and -1 from its head (the signs alternate
    around a cycle in the bipartite case), so a row is a ``{column: +-1}``
    dict.  Collapsing the spanning tree makes these rows a presentation of
    the fundamental group's abelianization, one generator per non-tree edge.

    Returns ``(rows, free)`` with ``free`` the structure record's darts.
    """
    rec = _structure(g)
    free = rec.free
    # per color, the column and sign that each vertex's edge contributes
    crossing: list[dict[int, tuple[int, int]]] = [{} for _ in COLORS]
    for k, (t, c) in enumerate(free):
        crossing[c][t] = (k, 1)
        crossing[c][g.inv[c][t]] = (k, -1)
    rows = []
    for (c1, c2), cycles in zip(COLOR_PAIRS, rec.cycles):
        x1, x2 = crossing[c1], crossing[c2]
        for cyc in cycles:
            row = dict(filter(None, map(x1.get, cyc[::2])))
            row.update(filter(None, map(x2.get, cyc[1::2])))
            rows.append(row)
    return rows, free


def cycle_relation_rows(g: ColoredGraph):
    """:func:`_relation_walk`'s ``(rows, free)``, each row a dense integer list."""
    rows, free = _relation_walk(g)
    return [[row.get(k, 0) for k in range(len(free))] for row in rows], free


def first_homology(g: ColoredGraph) -> HomologyGroup:
    """First integral homology of the represented compact 3-manifold.

    Computed from the dual 2-complex (a spine of the manifold): one 0-cell
    per graph vertex, one 1-cell per edge, one 2-cell per bicolored cycle.
    After collapsing a spanning tree this leaves order+1 generators modulo
    the cycle relation rows; the Smith normal form reads off rank and
    invariant factors exactly.  The walk's ``{column: +-1}`` rows go
    straight to its one sparse elimination loop through
    :func:`gemkit.homology.group_from_relations` with ``checked=False``, as
    they would pass its checks.
    """
    if not _structure(g).connected:
        raise NotConnectedError("first_homology requires a connected graph")
    rows, free = _relation_walk(g)
    return group_from_relations(len(free), rows, checked=False)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def is_six_regular(g: ColoredGraph) -> bool:
    """True when every bicolored cycle has length exactly six.

    Such graphs triangulate their manifold with every edge class meeting six
    tetrahedra, the combinatorial shadow of gluings by regular ideal
    tetrahedra; the order must then be divisible by 6.
    """
    rec = _structure(g)
    if not rec.connected:
        raise NotConnectedError("is_six_regular requires a connected graph")
    return all(len(cyc) == 6 for cycles in rec.cycles for cyc in cycles)


def euler_characteristic(g: ColoredGraph) -> int:
    """Euler characteristic of the represented 3-complex.

    Counts residues minus bicolored cycles plus faces minus tetrahedra;
    zero for every closed orientable case.
    """
    r = sum(len(residues(g, c)) for c in COLORS)
    cyc = sum(len(cycles) for cycles in _structure(g).cycles)
    return r - cyc + 2 * g.order - g.order


def invariant_report(
    g: ColoredGraph, name: Optional[str] = None, code: Optional[str] = None
) -> dict:
    """The JSON-ready invariant record for one connected graph."""
    profile = boundary_profile(g)
    h1 = first_homology(g)
    return {
        "name": name,
        "code": code,
        "order": g.order,
        "bipartite": _structure(g).side is not None,
        "closed": profile.closed,
        "boundary": [s.as_dict() for s in profile.components],
        "h1": {"rank": h1.rank, "torsion": list(h1.torsion)},
        "six_regular": is_six_regular(g),
    }
