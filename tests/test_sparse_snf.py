"""The sparse unit-pivot front phase of ``smith_normal_form`` against two
independent Smith normal forms: the dense elimination alone
(``snf_with_column_transform``) and ``sympy``'s.

Invariant factors are unique, so all three must agree exactly on every
input, from tiny edge cases to the relation matrices of derived graphs.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from gemkit import (
    COVERING_BASE_CODES,
    TABLE1,
    HomologyGroup,
    derived_graph,
    find_admissible_cyclic_coverings,
    first_homology,
    parse_code,
    smith_normal_form,
)
import gemkit.homology as homology
from gemkit.homology import snf_with_column_transform
from gemkit.topology import cycle_relation_rows


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


def derived_relations(code, n):
    va = find_admissible_cyclic_coverings(parse_code(code), n)[0]
    total, _ = derived_graph(va)
    rows, _ = cycle_relation_rows(total)
    return rows


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
        # eliminating the first unit leaves diag(2, 3), whose factors are 1, 6
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
    derived = [
        derived_relations(code, n) for code in COVERING_BASE_CODES for n in (1, 2, 3, 8, 20)
    ]
    remainders = []

    def spy(mat):
        remainders.append(mat)
        return snf_with_column_transform(mat)

    monkeypatch.setattr(homology, "snf_with_column_transform", spy)
    rng = random.Random(11)
    for _ in range(200):
        smith_normal_form(unit_heavy_matrix(rng, rng.randint(1, 9), rng.randint(1, 9)))
    for rows in derived:
        smith_normal_form(rows)
    assert all(x not in (1, -1) for mat in remainders for row in mat for x in row)
    # the torsion-free bases leave nothing for the dense phase at degree 20
    assert remainders[-11] == [] and remainders[-1] == []


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
