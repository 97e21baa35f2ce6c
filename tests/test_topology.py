"""Vertex links, boundary profiles, homology pipeline, reports."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from gemkit import (
    COLOR_PAIRS,
    COLORS,
    ColoredGraph,
    HomologyGroup,
    NotConnectedError,
    SurfaceType,
    TABLE1,
    boundary_profile,
    derived_graph,
    euler_characteristic,
    find_admissible_cyclic_coverings,
    first_homology,
    invariant_report,
    is_bipartite,
    is_closed,
    is_connected,
    is_six_regular,
    link_surface,
    parse_code,
    residues,
    smith_normal_form,
    surface_type,
)
from gemkit.graphs import bicolored_cycles
from gemkit.graphs import _structure
from gemkit.topology import cycle_relation_rows
from helpers import (
    ALL_BUNDLED_CODES,
    ORDER8_Z2_CODE,
    SIX_REGULAR_INVS,
    TABLE_CODES,
    component_count,
    cover_signature,
    insert_dipole,
    random_bipartite_graph,
    random_colored_graph,
    random_ffi_involution,
    rational_rank,
)

BASE_CODES = ALL_BUNDLED_CODES[-3:]


class TestSurfaceType:
    def test_named_surfaces(self):
        sphere = SurfaceType(True, 2)
        torus = SurfaceType(True, 0)
        assert sphere.is_sphere and sphere.genus == 0
        assert torus.is_torus and torus.genus == 1
        assert sphere.describe() == "sphere"
        assert torus.describe() == "torus"

    def test_non_orientable_crosscap_numbers(self):
        projective = SurfaceType(False, 1)
        klein = SurfaceType(False, 0)
        assert projective.genus == 1 and klein.genus == 2
        assert "non-orientable" in klein.describe()

    def test_higher_genus(self):
        assert SurfaceType(True, -2).genus == 2
        assert SurfaceType(True, -2).describe() == "orientable genus-2 surface"

    def test_validation(self):
        with pytest.raises(ValueError):
            SurfaceType(True, 3)
        with pytest.raises(ValueError):
            SurfaceType(True, 1)  # orientable needs even characteristic

    def test_as_dict(self):
        assert SurfaceType(True, 0).as_dict() == {
            "orientable": True,
            "euler": 0,
            "genus": 1,
        }


def three_colored_graphs(order):
    """All triples of fixed-point-free involutions on 0..order-1."""
    invs = []
    verts = tuple(range(order))
    for pairing in permutations(verts):
        m = [0] * order
        ok = True
        for a, b in zip(pairing[::2], pairing[1::2]):
            if a > b:
                ok = False
                break
            m[a], m[b] = b, a
        if ok and m not in invs:
            invs.append(m)
    for a in invs:
        for b in invs:
            for c in invs:
                yield (a, b, c)


class TestSurfaceClassifier:
    def test_unique_order_two_surface_is_a_sphere(self):
        s = surface_type([[1, 0], [1, 0], [1, 0]])
        assert s.is_sphere and s.orientable

    @pytest.mark.parametrize("order", [4, 6])
    def test_exhaustive_small_graphs(self, order):
        # every connected 3-colored graph on 4 or 6 vertices, cross-checked
        # against independent component counting and parity propagation
        checked = 0
        for maps in three_colored_graphs(order):
            m = len(maps[0])
            all_edges = [(v, mp[v]) for mp in maps for v in range(m)]
            if component_count(m, all_edges) != 1:
                continue
            s = surface_type(maps)
            checked += 1
            # independent Euler characteristic: cycles via union-find
            cycles = 0
            for a in range(3):
                for b in range(a + 1, 3):
                    pair_edges = [(v, maps[a][v]) for v in range(m)]
                    pair_edges += [(v, maps[b][v]) for v in range(m)]
                    cycles += component_count(m, pair_edges)
            assert s.euler == cycles - m // 2
            # independent orientability: parity propagation over all edges
            parity = [-1] * m
            parity[0] = 0
            frontier = [0]
            orientable = True
            while frontier:
                v = frontier.pop()
                for mp in maps:
                    w = mp[v]
                    if parity[w] < 0:
                        parity[w] = parity[v] ^ 1
                        frontier.append(w)
                    elif parity[w] == parity[v]:
                        orientable = False
            assert s.orientable == orientable
            # classification sanity
            assert s.euler <= 2
            if s.orientable:
                assert s.euler % 2 == 0
        assert checked > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            surface_type([[1, 0], [1, 0]])  # only two maps
        with pytest.raises(ValueError):
            surface_type([[0, 1], [1, 0], [1, 0]])  # fixed point
        with pytest.raises(ValueError):
            surface_type([[5, 0], [1, 0], [1, 0]])  # vertex out of range
        with pytest.raises(ValueError):
            surface_type([[1, 0, 3, 2], [1, 0, 3, 2], [3, 2, 1, 0][:3] + [2]])
        with pytest.raises(ValueError):
            # two disjoint double edges: disconnected
            surface_type([[1, 0, 3, 2], [1, 0, 3, 2], [1, 0, 3, 2]])
        with pytest.raises(ValueError):
            surface_type([[1, 2, 0], [1, 2, 0], [1, 2, 0]])  # odd order
        with pytest.raises(ValueError):
            surface_type([[1, 0, 3, 2], [1, 0], [1, 0, 3, 2]])  # unequal lengths

    @pytest.mark.parametrize("first", [[1.9, 0], ["1", 0]])
    def test_non_integer_entries_rejected(self, first):
        # truncating 1.9 (or converting "1") would classify a sphere
        with pytest.raises(TypeError):
            surface_type([first, [1, 0], [1, 0]])


class TestLinksAndBoundary:
    def test_order_two_graph_is_closed(self):
        g = parse_code("AAA")
        for c in COLORS:
            for r in residues(g, c):
                assert link_surface(r).is_sphere
        assert is_closed(g)
        assert len(boundary_profile(g)) == 0
        assert boundary_profile(g).all_torus  # vacuously

    def test_table_rows_have_k_torus_boundaries(self):
        for row in TABLE1[:5]:
            profile = boundary_profile(parse_code(row.code))
            assert len(profile) == row.boundary_count
            assert profile.all_torus and not profile.closed

    def test_base_codes_boundary_counts(self):
        counts = [len(boundary_profile(parse_code(c))) for c in BASE_CODES]
        assert counts == [4, 4, 5]
        for code in BASE_CODES:
            assert boundary_profile(parse_code(code)).all_torus

    def test_profile_sorted_deterministically(self):
        profile = boundary_profile(parse_code(TABLE_CODES[0]))
        keys = [(not s.orientable, -s.euler) for s in profile.components]
        assert keys == sorted(keys)

    def test_requires_connected(self):
        with pytest.raises(NotConnectedError):
            boundary_profile(parse_code("ABABAB"))

    def test_profile_matches_links_of_all_residues(self):
        # the slow path: every residue reindexed and classified on its own
        graphs = profile_graphs()
        assert sum(not is_bipartite(g) for g in graphs) > 100
        mixed = 0
        for g in graphs:
            expected = []
            for c in COLORS:
                links = [link_surface(r) for r in residues(g, c)]
                links = [s for s in links if not s.is_sphere]
                mixed += len({s.orientable for s in links}) == 2
                expected += links
            expected.sort(key=lambda s: (not s.orientable, -s.euler))
            assert boundary_profile(g).components == tuple(expected)
        # one missing color with both orientable and non-orientable links
        assert mixed > 10


def profile_graphs():
    """Connected graphs of every kind: table rows, derived graphs, random ones."""
    graphs = [parse_code(code) for code in TABLE_CODES]
    for code in BASE_CODES:
        base = parse_code(code)
        for n in (2, 3, 4, 5):
            (va,) = find_admissible_cyclic_coverings(base, n, limit=1)
            graphs.append(derived_graph(va)[0])
    rng = random.Random(71)
    for order in range(2, 22, 2):
        for _ in range(20):
            graphs.append(random_colored_graph(rng, order))
            graphs.append(random_bipartite_graph(rng, order // 2))
    for order in range(8, 20, 4):
        for _ in range(15):
            g1 = random_colored_graph(rng, order)
            g2 = random_bipartite_graph(rng, order // 2)
            graphs.append(side_by_side(rng, g1, g2))
    return [g for g in graphs if is_connected(g)]


def side_by_side(rng, g1, g2):
    """Colors 1-3 of ``g1`` and ``g2`` side by side, color 0 a random matching.

    Without color 0 the graph falls apart into the residues of both, so one
    missing color mixes non-orientable links (from ``g1``, usually not
    bipartite) with orientable ones (from ``g2``).
    """
    n = g1.order
    maps = [random_ffi_involution(rng, n + g2.order)]
    for c in (1, 2, 3):
        maps.append(list(g1.inv[c]) + [n + w for w in g2.inv[c]])
    return ColoredGraph(maps)


class TestFreeDarts:
    def test_one_dart_per_non_tree_edge(self):
        for code in ALL_BUNDLED_CODES[:5]:
            g = parse_code(code)
            free = _structure(g).free
            # 2 * order edges, order - 1 of them on a spanning tree
            assert len(free) == g.order + 1
            edges = {(c, *sorted((t, g.inv[c][t]))) for t, c in free}
            assert len(edges) == len(free)
            assert edges <= set(g.edges())

    def test_bipartite_orientation_from_side_zero(self):
        from gemkit import bipartition

        g = parse_code(TABLE_CODES[0])
        side = bipartition(g)
        assert all(side[t] == 0 for t, _ in _structure(g).free)


class TestCycleRelationRows:
    def test_row_shape_and_entries(self):
        for code in ALL_BUNDLED_CODES[:5]:
            g = parse_code(code)
            rows, free = cycle_relation_rows(g)
            total_cycles = sum(
                len(bicolored_cycles(g, pair)) for pair in COLOR_PAIRS
            )
            assert len(rows) == total_cycles
            assert all(len(r) == len(free) for r in rows)
            # every edge is crossed at most once per cycle
            assert all(x in (-1, 0, 1) for r in rows for x in r)


def homology_from_full_complex(g):
    """First homology computed without collapsing a spanning tree.

    Uses the raw chain complex of the dual 2-complex: all 2*order edges as
    generators, the vertex boundary map to fix the free rank, and full
    cycle rows for the torsion, each edge oriented from its lower endpoint.
    Independent of the package's tree collapse and of its edge orientation,
    so agreement is a genuine cross-check.
    """
    edges = g.edges()
    index = {e: k for k, e in enumerate(edges)}
    # boundary map edges -> vertices, each edge run from its lower endpoint
    d1 = []
    for c, u, w in edges:
        row = [0] * g.order
        row[w] += 1
        row[u] -= 1
        d1.append(row)
    rank_d1 = rational_rank(d1)
    # boundary map cycles -> edges, no tree restriction
    rows = []
    for pair in COLOR_PAIRS:
        for cyc in bicolored_cycles(g, pair):
            row = [0] * len(edges)
            c1, c2 = cyc.colors
            col = c1
            for u in cyc.vertices:
                w = g.inv[col][u]
                e = (col, u, w) if u < w else (col, w, u)
                row[index[e]] += 1 if u < w else -1
                col = c1 + c2 - col
            rows.append(row)
    factors, rank_d2 = smith_normal_form(rows)
    rank = len(edges) - rank_d1 - rank_d2
    torsion = tuple(d for d in factors if d > 1)
    return HomologyGroup(rank, torsion)


class TestFirstHomology:
    def test_trivial_for_order_two(self):
        assert first_homology(parse_code("AAA")) == HomologyGroup(0)

    def test_smallest_z2_census_entry(self):
        g = parse_code(ORDER8_Z2_CODE)
        assert is_closed(g)
        assert first_homology(g) == HomologyGroup(0, (2,))

    def test_link_rows_sample(self):
        cases = {
            "14^2_1": HomologyGroup(2),
            "14^3_9": HomologyGroup(3),
            "14^5_2": HomologyGroup(5),
        }
        by_name = {row.name: row for row in TABLE1}
        for name, expected in cases.items():
            assert first_homology(parse_code(by_name[name].code)) == expected

    def test_non_link_rows_carry_torsion(self):
        # regression freeze of computed values for the four rows that are
        # not link complements: torsion is what rules the free case out
        by_name = {row.name: row for row in TABLE1}
        expected = {
            "14^3_2": HomologyGroup(3, (2,)),
            "14^3_6": HomologyGroup(3, (2,)),
            "14^4_2": HomologyGroup(4, (2,)),
            "14^4_6": HomologyGroup(4, (2,)),
        }
        for name, group in expected.items():
            row = by_name[name]
            assert not row.link_complement
            assert first_homology(parse_code(row.code)) == group

    def test_base_code_homology(self):
        ranks = [first_homology(parse_code(c)) for c in BASE_CODES]
        assert ranks == [HomologyGroup(4), HomologyGroup(4), HomologyGroup(5)]

    def test_rank_at_least_total_boundary_genus(self):
        # half of the boundary homology survives in the manifold
        for code in ALL_BUNDLED_CODES:
            g = parse_code(code)
            profile = boundary_profile(g)
            genus_sum = sum(s.genus for s in profile.components if s.orientable)
            assert first_homology(g).rank >= genus_sum

    def test_agrees_with_full_complex(self):
        from gemkit import enumerate_gems

        graphs = [parse_code(c) for c in ALL_BUNDLED_CODES[:8]]
        graphs += [parse_code(ORDER8_Z2_CODE)]
        graphs += [parse_code(e.canonical) for e in enumerate_gems(6)]
        for g in graphs:
            assert first_homology(g) == homology_from_full_complex(g)

    def test_requires_connected(self):
        with pytest.raises(NotConnectedError):
            first_homology(parse_code("ABABAB"))


def kept_dipole(rng, g):
    """``g`` with one random 1-dipole inserted that keeps its manifold."""
    for _ in range(1000):
        c = rng.randrange(4)
        h = insert_dipole(g, c, {d: rng.randrange(g.order) for d in COLORS if d != c})
        if h is not None:
            return h
    raise AssertionError("no kept dipole in 1000 trials")


def manifold_invariants(g):
    return first_homology(g), boundary_profile(g), is_closed(g), cover_signature(g, (2,))


class TestDipoleMoves:
    """Inserting a 1-dipole changes the graph but not the manifold, so every
    manifold invariant must stay the same."""

    def test_insertions_keep_the_invariants(self):
        from gemkit import enumerate_gems

        rng = random.Random(211)
        codes = TABLE_CODES + tuple(e.canonical for e in enumerate_gems(8))
        for code in codes:
            g = parse_code(code)
            want = manifold_invariants(g)
            once = kept_dipole(rng, g)
            twice = kept_dipole(rng, once)
            for h in (once, twice):
                assert is_connected(h) and is_bipartite(h), code
                assert manifold_invariants(h) == want, code


class TestEulerCharacteristic:
    def test_closed_cases_vanish(self):
        from gemkit import enumerate_gems

        assert euler_characteristic(parse_code("AAA")) == 0
        assert euler_characteristic(parse_code(ORDER8_Z2_CODE)) == 0
        for e in enumerate_gems(6):
            g = parse_code(e.canonical)
            if is_closed(g):
                assert euler_characteristic(g) == 0

    def test_equals_boundary_count_for_toric_boundary(self):
        # coning a torus adds one to the characteristic
        for row in TABLE1:
            assert euler_characteristic(parse_code(row.code)) == row.boundary_count
        for code, cusps in zip(BASE_CODES, (4, 4, 5)):
            assert euler_characteristic(parse_code(code)) == cusps

    def test_identity_against_link_characteristics(self):
        # the complex satisfies chi = residues - sum(chi(link))/2
        for code in ALL_BUNDLED_CODES[:6] + (ORDER8_Z2_CODE,):
            g = parse_code(code)
            total = 0
            count = 0
            for c in COLORS:
                for r in residues(g, c):
                    total += link_surface(r).euler
                    count += 1
            assert euler_characteristic(g) == count - Fraction(total, 2)


class TestSixRegular:
    def test_positive_example(self):
        g = ColoredGraph(SIX_REGULAR_INVS)
        assert is_six_regular(g)
        assert g.order % 6 == 0
        for pair in COLOR_PAIRS:
            assert [len(c) for c in bicolored_cycles(g, pair)] == [6]

    def test_negative_examples(self):
        assert not is_six_regular(parse_code("AAA"))
        for code in BASE_CODES:
            assert not is_six_regular(parse_code(code))

    def test_requires_connected(self):
        with pytest.raises(NotConnectedError):
            is_six_regular(parse_code("ABABAB"))


class TestReports:
    def test_invariant_report_contents(self):
        row = TABLE1[0]
        rep = invariant_report(parse_code(row.code), name=row.name, code=row.code)
        assert list(rep.keys()) == [
            "name",
            "code",
            "order",
            "bipartite",
            "closed",
            "boundary",
            "h1",
            "six_regular",
        ]
        assert rep["name"] == "14^2_1"
        assert rep["code"] == row.code
        assert rep["order"] == 14
        assert rep["bipartite"] is True
        assert rep["closed"] is False
        assert rep["boundary"] == [
            {"orientable": True, "euler": 0, "genus": 1},
            {"orientable": True, "euler": 0, "genus": 1},
        ]
        assert rep["h1"] == {"rank": 2, "torsion": []}
        assert rep["six_regular"] is False

    def test_invariant_report_defaults(self):
        rep = invariant_report(parse_code("AAA"))
        assert rep["name"] is None and rep["code"] is None
        assert rep["closed"] is True and rep["boundary"] == []
        assert rep["h1"] == {"rank": 0, "torsion": []}
