"""Voltage assignments, derived graphs, admissibility and the solver."""

import random
from math import gcd, prod

import pytest

from gemkit import (
    COLOR_PAIRS,
    COVERING_BASE_CODES,
    TABLE1,
    ColoredGraph,
    ComplexityBounds,
    CoveringMap,
    HomologyGroup,
    NoAdmissibleCoveringError,
    NonUniformFiberError,
    NotAdjacencyPreservingError,
    NotConnectedError,
    VoltageAssignment,
    bicolored_cycles,
    boundary_profile,
    complexity_bounds_report,
    derived_graph,
    find_admissible_cyclic_coverings,
    first_homology,
    holonomy,
    is_admissible,
    is_bipartite,
    is_connected,
    parse_code,
    relabeled,
    smith_normal_form,
    verify_covering,
)
from gemkit.topology import cycle_relation_rows
from helpers import (
    ALL_BUNDLED_CODES,
    bfs_tree,
    mobius,
    random_bipartite_graph,
    random_colored_graph,
    reference_coverings,
    reference_is_admissible,
    surjective_hom_count,
)

BASE_CODES = ALL_BUNDLED_CODES[-3:]
TABLE1_CODES = {row.name: row.code for row in TABLE1}


def random_voltage(rng, base, n):
    """A uniformly random Z_n voltage assignment (every edge independent)."""
    volt = [[0] * 4 for _ in range(base.order)]
    for c, u, w in base.edges():
        x = rng.randrange(n)
        volt[u][c], volt[w][c] = x, -x % n
    return VoltageAssignment(base, n, volt)


class TestVoltageAssignment:
    def test_antisymmetry_enforced(self):
        base = parse_code("AAA")
        with pytest.raises(ValueError):
            VoltageAssignment(base, 3, [[1, 0, 0, 0], [1, 0, 0, 0]])
        va = VoltageAssignment(base, 3, [[1, 0, 2, 0], [2, 0, 1, 0]])
        assert va.volt[0][0] == 1 and va.volt[1][0] == 2

    def test_table_shape_enforced(self):
        base = parse_code("AAA")
        with pytest.raises(ValueError):
            VoltageAssignment(base, 2, [[0, 0, 0, 0]])
        with pytest.raises(ValueError):
            VoltageAssignment(base, 2, [[0, 0, 0], [0, 0, 0]])
        with pytest.raises(ValueError):
            VoltageAssignment(base, 0, [[0, 0, 0, 0]] * 2)

    def test_values_reduced_mod_n(self):
        base = parse_code("AAA")
        va = VoltageAssignment(base, 3, [[4, 0, 0, 0], [-4, 0, 0, 0]])
        assert va.volt[0][0] == 1 and va.volt[1][0] == 2

    def test_non_integer_voltages_rejected(self):
        # truncating 0.5 to 0 would quietly give a valid table
        base = parse_code("AAA")
        with pytest.raises(TypeError):
            VoltageAssignment(base, 3, [[0.5, 0, 0, 0], [0, 0, 0, 0]])
        # a float group order would keep a float table that passes the check
        with pytest.raises(TypeError):
            VoltageAssignment(base, 2.5, [[1, 0, 0, 0], [-1, 0, 0, 0]])

    def test_equality(self):
        base = parse_code("AAA")
        a = VoltageAssignment(base, 2, [[1, 0, 0, 0], [1, 0, 0, 0]])
        b = VoltageAssignment(base, 2, [[1, 0, 0, 0], [1, 0, 0, 0]])
        assert a == b and hash(a) == hash(b)


class TestDerivedGraph:
    def test_trivial_degree_is_identity(self):
        for code in ("AAA", BASE_CODES[0]):
            base = parse_code(code)
            volt = [[0] * 4 for _ in range(base.order)]
            total, cm = derived_graph(VoltageAssignment(base, 1, volt))
            assert total == base
            assert verify_covering(cm) == 1

    @pytest.mark.parametrize("code", BASE_CODES + (TABLE1_CODES["14^2_1"], TABLE1_CODES["14^4_6"]))
    def test_labeling(self, code):
        # (v, i) -> (inv[c][v], i + volt[v][c]) entry by entry; the sign of
        # the shift matters here, though every invariant ignores it
        rng = random.Random(53)
        base = parse_code(code)
        for n in (*range(1, 9), 40):
            va = random_voltage(rng, base, n)
            total, cm = derived_graph(va)
            for c in range(4):
                for v in range(base.order):
                    w, s = base.inv[c][v], va.volt[v][c]
                    for i in range(n):
                        assert total.inv[c][v * n + i] == w * n + (i + s) % n
            assert cm.f == tuple(x // n for x in range(total.order))
            assert total._deck == n

    def test_zero_voltages_give_disjoint_copies(self):
        base = parse_code(BASE_CODES[0])
        volt = [[0] * 4 for _ in range(base.order)]
        total, cm = derived_graph(VoltageAssignment(base, 2, volt))
        assert total.order == 2 * base.order
        assert not is_connected(total)
        assert verify_covering(cm) == 2
        # disjoint copies still restrict to bijections on every cycle
        assert is_admissible(cm)

    def test_derived_graphs_are_coverings(self):
        rng = random.Random(41)
        for code in BASE_CODES:
            base = parse_code(code)
            for n in (2, 3):
                va = random_voltage(rng, base, n)
                total, cm = derived_graph(va)
                assert total.order == n * base.order
                assert verify_covering(cm) == n
                assert cm.degree == n

    def test_derived_of_bipartite_is_bipartite(self):
        rng = random.Random(43)
        base = parse_code(BASE_CODES[1])
        for n in (2, 3, 4):
            total, _ = derived_graph(random_voltage(rng, base, n))
            assert is_bipartite(total)

    def test_cycle_lengths_multiply_by_holonomy_order(self):
        rng = random.Random(47)
        for code in (ALL_BUNDLED_CODES[0], BASE_CODES[2]):
            base = parse_code(code)
            for n in (2, 3, 4):
                va = random_voltage(rng, base, n)
                total, cm = derived_graph(va)
                for pair in COLOR_PAIRS:
                    expected = []
                    for cyc in bicolored_cycles(base, pair):
                        h = holonomy(va, cyc)
                        order = n // gcd(h, n)
                        # the fiber over the cycle splits into gcd(h, n)
                        # cycles, each wrapping around it `order` times
                        expected += [len(cyc) * order] * gcd(h, n)
                    got = [len(c) for c in bicolored_cycles(total, pair)]
                    assert sorted(got) == sorted(expected)


class TestTrustedDerivedGraph:
    """``derived_graph`` wraps its maps unchecked: each total graph must
    equal the validated build of the same maps."""

    @pytest.mark.parametrize("code", BASE_CODES)
    def test_solver_covers(self, code):
        base = parse_code(code)
        for n in range(2, 7):
            for va in find_admissible_cyclic_coverings(base, n, limit=3):
                total, _ = derived_graph(va)
                assert total == ColoredGraph(total.inv)

    def test_random_tables_over_random_bases(self):
        rng = random.Random(79)
        bases = []
        while len(bases) < 24:
            order = rng.randrange(2, 13, 2)
            if len(bases) % 2:
                g = random_bipartite_graph(rng, order // 2)
            else:
                g = random_colored_graph(rng, order)
            if is_connected(g):
                bases.append(g)
        assert not all(is_bipartite(g) for g in bases)
        for base in bases:
            for n in range(1, 6):
                total, _ = derived_graph(random_voltage(rng, base, n))
                assert total == ColoredGraph(total.inv)


class TestVerifyCovering:
    def test_adjacency_violation_detected(self):
        total = parse_code("ABABAB")  # two components: {0,2} and {1,3}
        base = parse_code("AAA")
        with pytest.raises(NotAdjacencyPreservingError):
            verify_covering(CoveringMap(total, base, (0, 1, 0, 1)))

    def test_valid_two_fold_projection(self):
        total = parse_code("ABABAB")
        base = parse_code("AAA")
        assert verify_covering(CoveringMap(total, base, (0, 0, 1, 1))) == 2

    def test_non_uniform_fibers_detected(self):
        # one copy of the base plus an extra order-2 component mapped onto
        # a single vertex pair: adjacency commutes, fiber sizes are 2 and 1
        base = parse_code("ABABAB")
        maps = []
        for c in range(4):
            m = [0] * 6
            m[0], m[2] = 2, 0
            m[1], m[3] = 3, 1
            m[4], m[5] = 5, 4
            maps.append(m)
        total = ColoredGraph(maps)
        cm = CoveringMap(total, base, (0, 1, 2, 3, 0, 2))
        with pytest.raises(NonUniformFiberError):
            verify_covering(cm)

    def test_map_validation(self):
        base = parse_code("AAA")
        with pytest.raises(ValueError):
            CoveringMap(parse_code("ABABAB"), base, (0, 0, 1))
        with pytest.raises(ValueError):
            CoveringMap(parse_code("ABABAB"), base, (0, 0, 1, 7))
        with pytest.raises(TypeError):
            CoveringMap(parse_code("ABABAB"), base, (0, 0, 1, 1.5))


class TestHolonomy:
    def test_zero_for_zero_voltages(self):
        base = parse_code(BASE_CODES[0])
        va = VoltageAssignment(base, 4, [[0] * 4 for _ in range(base.order)])
        for pair in COLOR_PAIRS:
            for cyc in bicolored_cycles(base, pair):
                assert holonomy(va, cyc) == 0

    def test_rotation_invariance(self):
        from gemkit.graphs import BicoloredCycle

        rng = random.Random(53)
        base = parse_code(BASE_CODES[0])
        va = random_voltage(rng, base, 6)
        for pair in COLOR_PAIRS:
            for cyc in bicolored_cycles(base, pair):
                if len(cyc) < 4:
                    continue
                rotated = BicoloredCycle(
                    cyc.colors, cyc.vertices[2:] + cyc.vertices[:2]
                )
                assert holonomy(va, rotated) == holonomy(va, cyc)

    def test_vertex_range_checked(self):
        from gemkit.graphs import BicoloredCycle

        base = parse_code("AAA")
        va = VoltageAssignment(base, 2, [[0] * 4] * 2)
        with pytest.raises(ValueError, match="outside the base graph"):
            holonomy(va, BicoloredCycle((0, 1), (0, 7)))

    def test_float_colors_and_vertices_refused(self):
        # 0.0 passes the range and set checks, so only index() catches it
        from gemkit.graphs import BicoloredCycle

        base = parse_code("AAA")
        va = VoltageAssignment(base, 2, [[0] * 4] * 2)
        assert holonomy(va, BicoloredCycle((0, 1), (0, 1))) == 0
        for cyc in (BicoloredCycle((0.0, 1), (0, 1)), BicoloredCycle((0, 1), (0.0, 1))):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                holonomy(va, cyc)

    def test_walk_must_be_a_bicolored_cycle_of_the_base(self):
        from gemkit.graphs import BicoloredCycle

        base = parse_code("DABCFEFEABDCCDEFAB")
        va = find_admissible_cyclic_coverings(base, 3, limit=1)[0]
        assert base.inv[0][0] == 6
        (cyc,) = [c for c in bicolored_cycles(base, (0, 1)) if 0 in c.vertices]
        vs = cyc.vertices
        assert len(vs) >= 4
        walks = [
            (0, 5),  # vertex 0's color-0 partner is 6
            vs[:1] + vs[:0:-1],  # the cycle backwards: first step along color 1
            vs[:-2],  # never closes
            vs + vs,  # the cycle twice
            (),
        ]
        for walk in walks:
            with pytest.raises(ValueError):
                holonomy(va, BicoloredCycle((0, 1), walk))
        # the same cycle under its other color order starts along color 1
        assert holonomy(va, BicoloredCycle((1, 0), vs[:1] + vs[:0:-1])) == (
            -holonomy(va, cyc) % 3
        )

    @pytest.mark.parametrize("colors", [(0, 5), (1, 1), (-1, 0), (0, 1, 2)])
    def test_color_pair_checked(self, colors):
        from gemkit.graphs import BicoloredCycle

        base = parse_code("AAA")
        va = VoltageAssignment(base, 2, [[0] * 4] * 2)
        with pytest.raises(ValueError, match="not two distinct colors"):
            holonomy(va, BicoloredCycle(colors, (0, 1)))

    def test_admissibility_iff_trivial_holonomy(self):
        rng = random.Random(59)
        base = parse_code(BASE_CODES[1])
        for n in (2, 3):
            for _ in range(20):
                va = random_voltage(rng, base, n)
                total, cm = derived_graph(va)
                trivial = all(
                    holonomy(va, cyc) == 0
                    for pair in COLOR_PAIRS
                    for cyc in bicolored_cycles(base, pair)
                )
                assert is_admissible(cm) == trivial

    @pytest.mark.parametrize("code", BASE_CODES)
    def test_cycle_count_test_equals_per_cycle_reference(self, code):
        rng = random.Random(code)
        base = parse_code(code)
        outcomes = set()
        for n in range(2, 7):
            voltages = find_admissible_cyclic_coverings(base, n, limit=3)
            voltages += [random_voltage(rng, base, n) for _ in range(6)]
            for va in voltages:
                total, cm = derived_graph(va)
                # a relabelled copy of the derived graph, projected the same way
                perm = list(range(total.order))
                rng.shuffle(perm)
                f = [0] * total.order
                for x, y in enumerate(perm):
                    f[y] = cm.f[x]
                moved = CoveringMap(relabeled(total, perm), base, f)
                got = is_admissible(cm), is_admissible(moved)
                want = reference_is_admissible(cm)
                assert got == (want, want)
                assert reference_is_admissible(moved) == want
                outcomes.add(want)
        assert outcomes == {True, False}


class TestSolver:
    def test_input_validation(self):
        with pytest.raises(ValueError):
            find_admissible_cyclic_coverings(parse_code("AAA"), 0)
        with pytest.raises(NotConnectedError):
            find_admissible_cyclic_coverings(parse_code("ABABAB"), 2)

    def test_no_covering_when_homology_is_trivial(self):
        # a simply-connected base admits no connected cyclic covering
        base = parse_code("AAA")
        assert find_admissible_cyclic_coverings(base, 2, limit=None) == []

    def test_degree_one_is_always_there(self):
        for code in ("AAA",) + BASE_CODES:
            vas = find_admissible_cyclic_coverings(parse_code(code), 1, limit=None)
            assert len(vas) == 1

    def test_solutions_are_admissible_connected_coverings(self):
        for code in BASE_CODES:
            base = parse_code(code)
            for n in (2, 3):
                vas = find_admissible_cyclic_coverings(base, n, limit=3)
                assert vas, "expected at least one covering"
                for va in vas:
                    total, cm = derived_graph(va)
                    assert is_connected(total)
                    assert verify_covering(cm) == n
                    assert is_admissible(cm)

    def test_solution_count_matches_surjection_count(self):
        # connected Z_n coverings correspond to surjections H1 -> Z_n;
        # the bases have free H1, making the count purely combinatorial at
        # rank 4, 4, 5
        expectations = [
            (BASE_CODES[0], 4),
            (BASE_CODES[2], 5),
        ]
        for code, rank in expectations:
            base = parse_code(code)
            assert first_homology(base) == HomologyGroup(rank)
            for n in (1, 2, 3, 4):
                found = find_admissible_cyclic_coverings(base, n, limit=None)
                assert len(found) == surjective_hom_count(rank, n)

    def test_limit_and_determinism(self):
        base = parse_code(BASE_CODES[0])
        all_two = find_admissible_cyclic_coverings(base, 2, limit=None)
        assert find_admissible_cyclic_coverings(base, 2, limit=4) == all_two[:4]
        assert find_admissible_cyclic_coverings(base, 2) == all_two[:1]

    def test_zero_limit_returns_nothing(self):
        base = parse_code(BASE_CODES[0])
        assert find_admissible_cyclic_coverings(base, 2, limit=0) == []

    def test_negative_limit_rejected(self):
        base = parse_code(BASE_CODES[0])
        with pytest.raises(ValueError):
            find_admissible_cyclic_coverings(base, 2, limit=-1)

    def test_fractional_limit_rejected(self):
        base = parse_code(BASE_CODES[0])
        with pytest.raises(TypeError):
            find_admissible_cyclic_coverings(base, 2, limit=1.5)

    def test_float_degree_rejected(self):
        # refused up front, even where no solution would be searched for
        base = parse_code(BASE_CODES[0])
        with pytest.raises(TypeError):
            find_admissible_cyclic_coverings(base, 2.0, limit=0)

    def test_gauge_fixed_on_tree(self):
        base = parse_code(BASE_CODES[0])
        (va,) = find_admissible_cyclic_coverings(base, 3, limit=1)
        for c, u, w in bfs_tree(base):
            assert va.volt[u][c] == 0 and va.volt[w][c] == 0

    def test_admissible_covers_preserve_toric_boundary(self):
        base = parse_code(BASE_CODES[0])
        (va,) = find_admissible_cyclic_coverings(base, 2, limit=1)
        total, _ = derived_graph(va)
        profile = boundary_profile(total)
        assert profile.all_torus
        assert len(boundary_profile(base)) <= len(profile) <= 2 * len(
            boundary_profile(base)
        )


class TestSolverOrder:
    """The solver against the former box enumeration over every Smith
    normal form coordinate, with the connectivity test on ``x = V y``
    itself: the same tables in the same order."""

    @staticmethod
    def tables(base, n, limit=None):
        return [va.volt for va in find_admissible_cyclic_coverings(base, n, limit)]

    @pytest.mark.parametrize("code", BASE_CODES)
    def test_covering_bases(self, code):
        # from n = 2 on, the head and the tail each hold at least two kept
        # generators; degree 8 is the benchmark's
        base = parse_code(code)
        for n in range(1, 10):
            assert self.tables(base, n) == reference_coverings(base, n)
        for n in (20, 400):
            for k in (1, 5):
                assert self.tables(base, n, k) == reference_coverings(base, n, k)

    @pytest.mark.parametrize("n", (2, 4, 6))
    def test_torsion_generator(self, n):
        # H1 = Z^3 + Z/2: the factor-2 generator is kept with count 2 < n
        # at n = 4 and 6, so its multiples step by n / 2 > 1
        base = parse_code(TABLE1_CODES["14^3_2"])
        assert first_homology(base) == HomologyGroup(3, (2,))
        assert self.tables(base, n) == reference_coverings(base, n)
        for k in (1, 5):
            assert self.tables(base, n, k) == reference_coverings(base, n, k)

    def test_random_connected_graphs(self):
        rng = random.Random(2024)
        graphs = []
        while len(graphs) < 60:
            order = rng.randrange(2, 11, 2)
            if len(graphs) % 2:
                g = random_bipartite_graph(rng, order // 2)
            else:
                g = random_colored_graph(rng, order)
            if is_connected(g):
                graphs.append(g)
        assert not all(is_bipartite(g) for g in graphs)
        for g in graphs:
            for n in range(2, 6):
                assert self.tables(g, n) == reference_coverings(g, n)


class TestTrustedVoltageTable:
    """The solver wraps its tables unchecked: each result must equal the
    validating build of the same table, so the skipped checks would pass."""

    @pytest.mark.parametrize("code", ("AAA",) + COVERING_BASE_CODES)
    def test_solver_tables_pass_validation(self, code):
        base = parse_code(code)
        for n in range(1, 9):
            found = find_admissible_cyclic_coverings(base, n, limit=None)
            for va in found:
                checked = VoltageAssignment(base, n, va.volt)
                assert va == checked and hash(va) == hash(checked)
                assert type(va.volt) is tuple and len(va.volt) == base.order
                for row in va.volt:
                    assert type(row) is tuple and len(row) == 4
                    assert all(type(x) is int and 0 <= x < n for x in row)
            if n == 1:
                # no generator is kept: the one table is all zeros
                assert [va.volt for va in found] == [((0,) * 4,) * base.order]


class TestSharedRows:
    """All tables of one solver call share one tuple per distinct row."""

    @pytest.mark.parametrize("code", COVERING_BASE_CODES)
    def test_one_object_per_distinct_row(self, code):
        base = parse_code(code)
        found = find_admissible_cyclic_coverings(base, 8, limit=None)
        rows = [row for va in found for row in va.volt]
        assert len(rows) == 12 * len(found) > len(set(rows))
        assert len({id(row) for row in rows}) == len(set(rows))
        for va in found:
            assert va == VoltageAssignment(base, 8, va.volt)


class TestSolverCount:
    """The number of solutions against a closed form that shares no code
    with the solver's enumeration.  Connected Z_n coverings are the
    surjections onto Z_n of the group with the relation rows, which has
    prod_k gcd(d_k, m) homomorphisms onto Z_m for its Smith normal form
    factors d_k (0 past the rank); Moebius inversion over the divisors of n
    keeps the onto ones."""

    @staticmethod
    def closed_form(base, n):
        rows, free = cycle_relation_rows(base)
        factors, rank = smith_normal_form(rows)
        d = factors + (0,) * (len(free) - rank)
        return sum(
            mobius(e) * prod(gcd(x, n // e) for x in d)
            for e in range(1, n + 1)
            if n % e == 0
        )

    @pytest.mark.parametrize(
        "code", ("AAA", TABLE1_CODES["14^2_1"]) + COVERING_BASE_CODES
    )
    def test_degrees_one_to_eight(self, code):
        base = parse_code(code)
        for n in range(1, 9):
            found = find_admissible_cyclic_coverings(base, n, None)
            assert len(found) == self.closed_form(base, n)

    def test_known_count(self):
        # 8^5 - 4^5 surjections of Z^5 onto Z_8
        assert self.closed_form(parse_code("DABCFEFEDABCBCFEDA"), 8) == 31744


class TestComplexityBounds:
    def test_report_values(self):
        base = parse_code(BASE_CODES[0])
        assert complexity_bounds_report(base, 10, 3) == ComplexityBounds(30, 36)
        assert complexity_bounds_report(base, 10, 1) == ComplexityBounds(10, 12)

    def test_frozen_value_with_stable_repr(self):
        bounds = ComplexityBounds(10, 12)
        assert repr(bounds) == "ComplexityBounds(lower=10, upper=12)"
        assert bounds != ComplexityBounds(10, 13)
        assert hash(bounds) == hash(ComplexityBounds(10, 12))
        with pytest.raises(AttributeError):
            bounds.lower = 11

    def test_existence_checked(self):
        with pytest.raises(NoAdmissibleCoveringError):
            complexity_bounds_report(parse_code("AAA"), 1, 2)

    def test_tetrahedra_validated(self):
        with pytest.raises(ValueError):
            complexity_bounds_report(parse_code(BASE_CODES[0]), 0, 2)

    def test_crossed_bounds_refused(self):
        # the derived graph attains n * base.order, so a lower bound above
        # it is wrong input; equal to it, the bounds meet
        base = parse_code(BASE_CODES[0])
        with pytest.raises(ValueError):
            complexity_bounds_report(base, 20, 2)
        with pytest.raises(ValueError):
            complexity_bounds_report(base, base.order + 1, 1)
        with pytest.raises(ValueError):
            complexity_bounds_report(parse_code("AAA"), 5, 1)
        assert complexity_bounds_report(base, base.order, 2) == ComplexityBounds(24, 24)

    def test_fractional_tetrahedra_rejected(self):
        with pytest.raises(TypeError):
            complexity_bounds_report(parse_code(BASE_CODES[0]), 2.5, 2)
