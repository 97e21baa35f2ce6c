"""The sparse phase of ``smith_normal_form``, one elimination loop over unit
and non-unit pivots and the gcd/lcm pass that restores the divisibility
chain, against two independent Smith normal forms: the dense elimination alone
(``snf_with_column_transform``) and ``sympy``'s.

Invariant factors are unique, so all three must agree exactly on every
input, from tiny edge cases to the relation matrices of derived graphs.
The sparse relation rows that ``first_homology`` eliminates are checked
against a dense cycle walk written here, independently of the package.
``first_homology`` hands those rows to ``group_from_relations`` with
``checked=False``, straight to the sparse phase: a proof test shows that
they would pass its checks and that both routes give the same group, and an
oracle test runs the sparse phase on the walk's rows against the dense
elimination and ``sympy``.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from gemkit import (
    COLOR_PAIRS,
    COVERING_BASE_CODES,
    TABLE1,
    HomologyGroup,
    derived_graph,
    enumerate_gems,
    find_admissible_cyclic_coverings,
    first_homology,
    is_bipartite,
    is_connected,
    parse_code,
    smith_normal_form,
)
import gemkit.homology as homology
import gemkit.topology as topology
from gemkit.graphs import _structure
from gemkit.homology import _sparse_snf, group_from_relations, snf_with_column_transform
from gemkit.topology import _relation_walk, cycle_relation_rows
from helpers import random_bipartite_graph, random_colored_graph


def dense(mat):
    factors, rank, _ = snf_with_column_transform(mat)
    return factors, rank


def by_sympy(mat):
    if not mat or not mat[0]:
        return (), 0
    diag = sympy_snf(Matrix(mat), domain=ZZ).diagonal()
    factors = tuple(abs(int(d)) for d in diag if d)
    return factors, len(factors)


def assert_agrees(mat):
    got = smith_normal_form(mat)
    assert got == dense(mat)
    assert got == by_sympy(mat)
    return got


def unit_heavy_matrix(rng, nrows, ncols, density=0.3):
    values = [1, -1, 1, -1, 2, -2, 3]
    return [
        [rng.choice(values) if rng.random() < density else 0 for _ in range(ncols)]
        for _ in range(nrows)
    ]


def scaled_matrix(rng, nrows, ncols, scales, density=0.4):
    """Rows of a unit-heavy matrix, each times a value drawn from ``scales``:
    with scales that divide one another, most rows hold a pivot that divides
    its row and its column."""
    return [
        [k * x for x in row]
        for k, row in zip(
            (rng.choice(scales) for _ in range(nrows)),
            unit_heavy_matrix(rng, nrows, ncols, density),
        )
    ]


def divisible_pivots(mat):
    """The entries that divide every entry of their row and their column."""
    return [
        (i, j)
        for i, row in enumerate(mat)
        for j, x in enumerate(row)
        if x and all(y % x == 0 for y in row) and all(r[j] % x == 0 for r in mat)
    ]


def derived(code, n):
    va = find_admissible_cyclic_coverings(parse_code(code), n)[0]
    total, _ = derived_graph(va)
    return total


def derived_relations(code, n):
    rows, _ = cycle_relation_rows(derived(code, n))
    return rows


def reference_relation_rows(g):
    """Dense boundary rows of the bicolored cycles over the non-tree edges,
    walked vertex by vertex: +1 where a cycle leaves a free edge's tail
    along it, -1 where it leaves the head."""
    rec = _structure(g)
    column = {dart: k for k, dart in enumerate(rec.free)}
    rows = []
    for (c1, c2), cycles in zip(COLOR_PAIRS, rec.cycles):
        for cyc in cycles:
            row = [0] * len(rec.free)
            for step, u in enumerate(cyc):
                c = (c1, c2)[step % 2]
                if (u, c) in column:
                    row[column[u, c]] += 1
                elif (g.inv[c][u], c) in column:
                    row[column[g.inv[c][u], c]] -= 1
            rows.append(row)
    return rows


def assert_walk_matches(g):
    want = reference_relation_rows(g)
    sparse, free = _relation_walk(g)
    assert all(x in (1, -1) for row in sparse for x in row.values())
    assert [[row.get(k, 0) for k in range(len(free))] for row in sparse] == want
    assert cycle_relation_rows(g) == (want, free)


def random_connected_graphs(seed, count):
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        p = rng.randint(1, 12)
        if rng.random() < 0.5:
            g = random_bipartite_graph(rng, p)
        else:
            g = random_colored_graph(rng, 2 * p)
        if is_connected(g):
            found.append(g)
    return found


class TestEdgeCases:
    @pytest.mark.parametrize("mat", [[], [[]], [[], []], [[0]], [[1]], [[-1]], [[2]]])
    def test_degenerate(self, mat):
        assert_agrees(mat)

    def test_ragged_rows_still_rejected(self):
        with pytest.raises(ValueError):
            smith_normal_form([[1, 0], [1]])
        with pytest.raises(ValueError):
            smith_normal_form([[], [1]])

    def test_no_unit_left_for_the_sparse_phase(self):
        assert assert_agrees([[2, 4], [6, 8]]) == ((2, 4), 2)

    def test_remainder_goes_to_the_dense_phase(self):
        # eliminating the first unit leaves diag(2, 3): two non-unit pivots,
        # which the chain pass turns into the factors 1, 6
        assert assert_agrees([[1, 1, 1], [1, 3, 1], [1, 1, 4]]) == ((1, 1, 6), 3)


class TestRandomSparse:
    @pytest.mark.parametrize("seed", range(6))
    def test_square_tall_and_wide(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
            assert_agrees(unit_heavy_matrix(rng, nrows, ncols))

    @pytest.mark.parametrize("seed", range(3))
    def test_zero_rows_columns_and_duplicates(self, seed):
        rng = random.Random(100 + seed)
        for _ in range(30):
            nrows, ncols = rng.randint(2, 8), rng.randint(2, 8)
            mat = unit_heavy_matrix(rng, nrows, ncols)
            mat.insert(rng.randrange(nrows + 1), [0] * ncols)
            mat.append(list(mat[rng.randrange(len(mat))]))
            col = rng.randrange(ncols + 1)
            mat = [row[:col] + [0] + row[col:] for row in mat]
            assert_agrees(mat)

    def test_larger_very_sparse(self):
        rng = random.Random(7)
        for nrows, ncols in ((30, 12), (12, 30), (25, 25)):
            assert_agrees(unit_heavy_matrix(rng, nrows, ncols, density=0.1))


class LoggedRow(dict):
    """A ``{column: entry}`` row that logs its name when the elimination
    clears it, which it does only to the row it has just pivoted on."""

    def __init__(self, name, log, entries):
        super().__init__(entries)
        self.name = name
        self.log = log

    def clear(self):
        self.log.append(self.name)
        super().clear()


def spy_on_dense_phase(monkeypatch):
    """Record every matrix the sparse phase hands to the dense phase."""
    remainders = []

    def spy(mat):
        remainders.append(mat)
        return snf_with_column_transform(mat)

    monkeypatch.setattr(homology, "snf_with_column_transform", spy)
    return remainders


class TestNonUnitPivots:
    @pytest.mark.parametrize(
        "mat, factors",
        [
            ([[4, 0], [0, 6]], (2, 12)),
            ([[2, 0], [0, 3]], (1, 6)),
            ([[6, 0], [0, 4]], (2, 12)),
            ([[4, 0, 0], [0, 6, 0], [0, 0, 10]], (2, 2, 60)),
            ([[2, 4], [6, 8]], (2, 4)),
            ([[-6, 12, 0], [18, 0, 30], [0, 12, 6]], (6, 6, 24)),
            ([[2, 0, 0], [0, 2, 0], [0, 0, 2], [0, 0, 0]], (2, 2, 2)),
        ],
    )
    def test_divisible_pivots_stay_sparse(self, monkeypatch, mat, factors):
        remainders = spy_on_dense_phase(monkeypatch)
        assert assert_agrees(mat) == (factors, len(factors))
        assert remainders == []

    @pytest.mark.parametrize(
        "mat, factors",
        [
            ([[4, 6], [6, 4]], (2, 10)),
            ([[2, 3], [3, 2]], (1, 5)),
            ([[6, 10, 15]], (1,)),
        ],
    )
    def test_no_divisible_pivot_falls_through_to_dense(self, monkeypatch, mat, factors):
        remainders = spy_on_dense_phase(monkeypatch)
        assert not divisible_pivots(mat)
        assert assert_agrees(mat) == (factors, len(factors))
        assert remainders[0] == mat

    @pytest.mark.parametrize(
        "mat, factors",
        [
            ([[1, 2], [0, 1]], (1, 1)),
            ([[1, 1], [1, 1]], (1,)),
            ([[0, -1, 3], [1, 0, 0], [0, 0, 0]], (1, 1)),
            ([[1, 0, 2], [3, 1, 0]], (1, 1)),
        ],
    )
    def test_units_alone_skip_the_dense_phase(self, monkeypatch, mat, factors):
        remainders = spy_on_dense_phase(monkeypatch)
        assert assert_agrees(mat) == (factors, len(factors))
        assert remainders == []

    def test_short_non_unit_pivot_comes_before_a_longer_unit_pivot(self, monkeypatch):
        # one round pops the rows shortest first: row 0 holds no unit, but its
        # 2 divides its row and its column, so it is pivoted on before row 1
        mat = [[2, 0, 0], [4, 1, -1]]
        pivoted = []
        rows = [
            LoggedRow(i, pivoted, {j: x for j, x in enumerate(r) if x})
            for i, r in enumerate(mat)
        ]
        remainders = spy_on_dense_phase(monkeypatch)
        assert _sparse_snf(rows) == dense(mat) == by_sympy(mat) == ((1, 2), 2)
        assert pivoted == [0, 1]
        assert remainders == []

    def test_many_equal_torsion_entries(self):
        # the chain pass merges all copies of a value at once
        mat = [[2 if i == j else 0 for j in range(400)] for i in range(400)]
        mat[0][0] = 3
        assert smith_normal_form(mat) == ((1,) + (2,) * 398 + (6,), 400)

    def test_two_equal_halves_of_coprime_entries(self):
        # one trade turns 200 twos and 200 threes into 200 ones and 200 sixes
        mat = [[(2 if i < 200 else 3) if i == j else 0 for j in range(400)] for i in range(400)]
        assert assert_agrees(mat) == ((1,) * 200 + (6,) * 200, 400)

    @pytest.mark.parametrize(
        "scales", [(2,), (2, 4), (2, 4, 8), (3, 6, 12), (2, 3), (4, 6, 9)]
    )
    def test_random_scaled_matrices(self, scales):
        rng = random.Random(sum(scales))
        for _ in range(25):
            assert_agrees(scaled_matrix(rng, rng.randint(1, 8), rng.randint(1, 8), scales))


class TestRelationWalk:
    @pytest.mark.parametrize("row", TABLE1, ids=lambda r: r.name)
    def test_table1(self, row):
        assert_walk_matches(parse_code(row.code))

    @pytest.mark.parametrize("code", COVERING_BASE_CODES)
    @pytest.mark.parametrize("n", list(range(1, 9)) + [20])
    def test_derived_graphs(self, code, n):
        assert_walk_matches(derived(code, n))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_connected_graphs(self, seed):
        for g in random_connected_graphs(seed, 15):
            assert_walk_matches(g)

    def test_first_homology_builds_no_dense_rows(self, monkeypatch):
        def refuse(g):
            raise AssertionError("first_homology built dense relation rows")

        seen = []

        def spy(n, rows, checked=True):
            assert not checked
            seen.append(rows)
            return group_from_relations(n, rows, checked=checked)

        monkeypatch.setattr(topology, "cycle_relation_rows", refuse)
        monkeypatch.setattr(topology, "group_from_relations", spy)
        for code in COVERING_BASE_CODES:
            first_homology(derived(code, 8))
        assert len(seen) == 3 and all(isinstance(r, dict) for rows in seen for r in rows)


class TestGroupFromSparseRows:
    def test_dict_rows_match_dense_rows(self):
        rng = random.Random(5)
        for _ in range(50):
            mat = scaled_matrix(rng, rng.randint(1, 7), 6, (1, 2, 4, 3))
            dicts = [{j: x for j, x in enumerate(row) if x} for row in mat]
            assert group_from_relations(6, dicts) == group_from_relations(6, mat)

    def test_zero_entries_and_empty_rows(self):
        assert group_from_relations(2, [{0: 0, 1: 2}, {}]) == HomologyGroup(1, (2,))

    @pytest.mark.parametrize("row", [{2: 1}, {-1: 1}, {0: 1, 5: 0}])
    def test_columns_out_of_range_rejected(self, row):
        with pytest.raises(ValueError):
            group_from_relations(2, [row])

    def test_non_integer_entries_and_columns_rejected(self):
        with pytest.raises(TypeError):
            group_from_relations(2, [{0: 2.5}])
        with pytest.raises(TypeError):
            group_from_relations(2, [{1.0: 1}])

    def test_rows_are_not_consumed(self):
        rows = [{0: 1, 1: -1}, {1: 2}]
        group_from_relations(2, rows)
        assert rows == [{0: 1, 1: -1}, {1: 2}]


@pytest.fixture(scope="module")
def census_graphs():
    """``run(order)`` gives the graph of every census class of one order."""
    runs = {}

    def run(order):
        if order not in runs:
            runs[order] = [parse_code(code) for code in enumerate_gems(order)]
        return runs[order]

    return run


def assert_trusted_group(g):
    """``first_homology`` hands the walk's rows to the sparse phase unchecked:
    they must pass every check that ``group_from_relations`` makes, and the
    checked route must give the same group."""
    rows, free = _relation_walk(g)
    for row in rows:
        assert type(row) is dict
        for j, x in row.items():
            assert type(j) is int and 0 <= j < len(free)
            assert type(x) is int and x != 0
    assert first_homology(g) == group_from_relations(len(free), rows)


class TestTrustedPath:
    @pytest.mark.parametrize("row", TABLE1, ids=lambda r: r.name)
    def test_table1(self, row):
        assert_trusted_group(parse_code(row.code))

    @pytest.mark.parametrize("order", [2, 4, 6, 8, 10])
    def test_census_classes(self, census_graphs, order):
        graphs = census_graphs(order)
        assert graphs
        for g in graphs:
            assert_trusted_group(g)

    @pytest.mark.parametrize("code", COVERING_BASE_CODES)
    @pytest.mark.parametrize("n", list(range(1, 9)) + [20])
    def test_derived_graphs(self, code, n):
        assert_trusted_group(derived(code, n))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_connected_graphs(self, seed):
        graphs = random_connected_graphs(200 + seed, 15)
        assert {is_bipartite(g) for g in graphs} == {True, False}
        for g in graphs:
            assert_trusted_group(g)


def paired_rows(rows):
    """Each even-indexed row plus the row after it, the others unchanged: a
    unimodular change of the relations, so the group is the same, and the
    sums put entries of 2 beside units from the start."""
    out = [dict(r) for r in rows]
    for r, s in zip(out[::2], rows[1::2]):
        for j, x in s.items():
            z = r.get(j, 0) + x
            if z:
                r[j] = z
            else:
                del r[j]
    return out


def assert_unit_phase_agrees(g):
    """``_sparse_snf`` on the walk's own rows and on their pairwise sums,
    against the dense elimination alone and ``sympy`` on the walk's matrix."""
    rows, free = _relation_walk(g)
    mat = [[row.get(k, 0) for k in range(len(free))] for row in rows]
    want = dense(mat)
    assert want == by_sympy(mat)
    assert _sparse_snf(paired_rows(rows)) == want
    assert _sparse_snf(rows) == want
    return want, len(free)


class TestUnitPhase:
    """Walk rows are all units, so nearly every pivot the elimination takes
    on them is a unit, which divides its row and its column; any other pivot
    must divide both too, or the invariant factors come out wrong."""

    def test_order_10_census_classes(self, census_graphs):
        graphs = census_graphs(10)
        assert len(graphs) == 500
        with_torsion = 0
        for g in graphs:
            (factors, _), _ = assert_unit_phase_agrees(g)
            with_torsion += any(d > 1 for d in factors)
        assert with_torsion

    def test_torsion_heavy_derived_graph(self):
        (factors, rank), ngens = assert_unit_phase_agrees(derived("FABCDEDEFABCCDEFAB", 20))
        assert ngens - rank == 4
        assert [d for d in factors if d > 1] == [2] * 19


@pytest.mark.parametrize("row", TABLE1, ids=lambda r: r.name)
def test_table1_relation_matrices(row):
    rows, _ = cycle_relation_rows(parse_code(row.code))
    assert_agrees(rows)


@pytest.mark.parametrize("code", COVERING_BASE_CODES)
@pytest.mark.parametrize("n", list(range(1, 9)) + [20])
def test_derived_graph_relation_matrices(code, n):
    assert_agrees(derived_relations(code, n))


def test_dense_phase_never_receives_a_unit(monkeypatch):
    # built before the spy goes in, so the covering solver's own dense SNF
    # calls are not recorded
    relations = [
        derived_relations(code, n) for code in COVERING_BASE_CODES for n in (1, 2, 3, 8, 20)
    ]
    remainders = spy_on_dense_phase(monkeypatch)
    rng = random.Random(11)
    for _ in range(200):
        smith_normal_form(unit_heavy_matrix(rng, rng.randint(1, 9), rng.randint(1, 9)))
    for scales in ((2, 4), (2, 3), (4, 6, 9)):
        for _ in range(60):
            smith_normal_form(scaled_matrix(rng, rng.randint(1, 9), rng.randint(1, 9), scales))
    for rows in relations:
        smith_normal_form(rows)
    # the dense phase receives no entry that divides its row and column,
    # so in particular no unit
    assert any(remainders) and not any(divisible_pivots(mat) for mat in remainders)
    # no covering base leaves anything for the dense phase at degree 20
    del remainders[:]
    for rows in relations[4::5]:
        smith_normal_form(rows)
    assert not any(remainders)


@pytest.mark.parametrize("code", COVERING_BASE_CODES)
@pytest.mark.parametrize("n", [20, 100, 400])
def test_covering_bases_leave_no_dense_residue(monkeypatch, code, n):
    total = derived(code, n)
    remainders = spy_on_dense_phase(monkeypatch)
    first_homology(total)
    # the pivots empty every row, units alone on the torsion-free bases, so
    # the dense phase is not called
    assert remainders == []


@pytest.mark.parametrize(
    "code, group",
    zip(
        COVERING_BASE_CODES,
        [HomologyGroup(5), HomologyGroup(4, (2,) * 19), HomologyGroup(43)],
    ),
)
def test_degree_20_first_homology(code, group):
    va = find_admissible_cyclic_coverings(parse_code(code), 20)[0]
    total, _ = derived_graph(va)
    assert first_homology(total) == group


entries = st.integers(min_value=-3, max_value=3) | st.sampled_from([0, 0, 1, -1])


@st.composite
def integer_matrices(draw):
    nrows = draw(st.integers(min_value=0, max_value=7))
    ncols = draw(st.integers(min_value=0, max_value=7))
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    return draw(st.lists(row, min_size=nrows, max_size=nrows))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(integer_matrices())
def test_property_sparse_front_phase_matches_dense(mat):
    factors, rank = smith_normal_form(mat)
    assert (factors, rank) == dense(mat)
    assert rank == len(factors) and all(d > 0 for d in factors)
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))


@st.composite
def divisible_matrices(draw):
    """Rows scaled by values that often divide one another, so that the
    sparse phase meets non-unit pivots and chains to restore."""
    nrows = draw(st.integers(min_value=1, max_value=6))
    ncols = draw(st.integers(min_value=1, max_value=6))
    row = st.lists(st.sampled_from([0, 0, 1, -1, 2, -3]), min_size=ncols, max_size=ncols)
    scale = st.sampled_from([1, 2, 3, 4, 6, 9, 12])
    scaled = st.lists(st.tuples(scale, row), min_size=nrows, max_size=nrows)
    return [[k * x for x in r] for k, r in draw(scaled)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(divisible_matrices())
def test_property_non_unit_pivots_match_dense_and_sympy(mat):
    assert_agrees(mat)
