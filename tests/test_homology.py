"""Exact Smith normal form against independent fraction/minor oracles."""

import json
import random

import numpy
import pytest

from gemkit import HomologyGroup, smith_normal_form
from gemkit.homology import group_from_relations, snf_with_column_transform
from helpers import exact_determinant, matmul, minors_gcd, rational_rank


def random_matrix(rng, max_dim=4, span=5):
    nr = rng.randint(1, max_dim)
    nc = rng.randint(1, max_dim)
    return [[rng.randint(-span, span) for _ in range(nc)] for _ in range(nr)]


class TestHomologyGroup:
    def test_str_forms(self):
        assert str(HomologyGroup(0)) == "0"
        assert str(HomologyGroup(1)) == "Z"
        assert str(HomologyGroup(4)) == "Z^4"
        assert str(HomologyGroup(3, (2,))) == "Z^3 + Z/2"
        assert str(HomologyGroup(0, (2, 4))) == "Z/2 + Z/4"

    def test_trivial_flag(self):
        assert HomologyGroup(0).trivial
        assert not HomologyGroup(1).trivial
        assert not HomologyGroup(0, (2,)).trivial

    def test_validation(self):
        with pytest.raises(ValueError):
            HomologyGroup(-1)
        with pytest.raises(ValueError):
            HomologyGroup(0, (1,))
        with pytest.raises(ValueError):
            HomologyGroup(0, (4, 2))  # 2 does not divide into place
        with pytest.raises(ValueError):
            HomologyGroup(0, (2, 3))  # 3 not a multiple of 2
        with pytest.raises(ValueError, match="at least 2"):
            HomologyGroup(0, (0, 2))  # checked before the chain's modulo

    def test_non_integer_rank_and_torsion_rejected(self):
        # truncation would print Z^1 and Z/2
        with pytest.raises(TypeError):
            HomologyGroup(1.5)
        with pytest.raises(TypeError):
            HomologyGroup(0, (2.9,))

    def test_rank_stored_as_int(self):
        # a bool or numpy rank kept as given would leak into JSON output
        assert type(HomologyGroup(True).rank) is int
        group = HomologyGroup(numpy.int64(2), (numpy.int64(3),))
        assert type(group.rank) is int and group == HomologyGroup(2, (3,))
        assert json.dumps([group.rank, group.torsion]) == "[2, [3]]"

    def test_equality(self):
        assert HomologyGroup(2, (2,)) == HomologyGroup(2, [2])
        assert HomologyGroup(2) != HomologyGroup(2, (2,))


class TestSmithNormalFormExamples:
    def test_small_example(self):
        assert smith_normal_form([[2, 4], [6, 8]]) == ((2, 4), 2)

    def test_identity(self):
        assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == ((1, 1, 1), 3)

    def test_zero_matrix(self):
        assert smith_normal_form([[0, 0, 0], [0, 0, 0]]) == ((), 0)

    def test_empty_matrix(self):
        assert smith_normal_form([]) == ((), 0)

    def test_diagonal_needs_reordering(self):
        # diag(2, 3) is not in divisibility order; the factors are 1, 6
        assert smith_normal_form([[2, 0], [0, 3]]) == ((1, 6), 2)

    def test_single_entry(self):
        assert smith_normal_form([[-6]]) == ((6,), 1)

    def test_non_integer_entries_rejected(self):
        # truncating 2.5 would give the factors (2,)
        with pytest.raises(TypeError):
            smith_normal_form([[2.5]])
        with pytest.raises(TypeError):
            smith_normal_form([[0.0, 1]])

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            smith_normal_form([[1, 2], [3]])

    def test_dict_row_rejected(self):
        # read as a sequence, {0: 5} would be its keys: the row (0,)
        with pytest.raises(TypeError, match="group_from_relations"):
            smith_normal_form([{0: 5}])
        assert group_from_relations(1, [{0: 5}]) == HomologyGroup(0, (5,))

    def test_wide_and_tall(self):
        assert smith_normal_form([[2, 4, 6]]) == ((2,), 1)
        assert smith_normal_form([[2], [4], [6]]) == ((2,), 1)


class TestSmithNormalFormProperties:
    def test_against_oracles(self):
        rng = random.Random(101)
        for _ in range(300):
            mat = random_matrix(rng)
            factors, rank = smith_normal_form(mat)
            # rank equals the rational rank
            assert rank == rational_rank(mat)
            assert len(factors) == rank
            # every factor positive, chain divisibility
            assert all(d > 0 for d in factors)
            for a, b in zip(factors, factors[1:]):
                assert b % a == 0
            # prefix products equal gcds of k-by-k minors
            prod = 1
            for k, d in enumerate(factors, start=1):
                prod *= d
                assert prod == minors_gcd(mat, k)
            # nonsingular square case: product of factors is |det|
            if len(mat) == len(mat[0]) and rank == len(mat):
                assert prod == abs(exact_determinant(mat))

    def test_transpose_invariance(self):
        rng = random.Random(103)
        for _ in range(100):
            mat = random_matrix(rng)
            t = [list(col) for col in zip(*mat)]
            assert smith_normal_form(mat) == smith_normal_form(t)

    def test_large_entries_exact(self):
        # exactness must survive entries far beyond machine precision
        big = 10**30
        mat = [[big, big + 1], [big - 1, big]]
        det = exact_determinant(mat)  # = big^2 - (big^2 - 1) = 1
        assert det == 1
        assert smith_normal_form(mat) == ((1, 1), 2)


class TestColumnTransform:
    def test_non_integer_entries_rejected(self):
        with pytest.raises(TypeError):
            snf_with_column_transform([[2.5]])

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            snf_with_column_transform([[1, 2], [3]])

    def test_dict_row_rejected(self):
        with pytest.raises(TypeError, match="group_from_relations"):
            snf_with_column_transform([{0: 5}])
        with pytest.raises(TypeError, match="group_from_relations"):
            snf_with_column_transform([[5], {0: 5}])

    def test_transform_properties(self):
        rng = random.Random(107)
        for _ in range(100):
            mat = random_matrix(rng)
            factors, rank, v = snf_with_column_transform(mat)
            assert (factors, rank) == smith_normal_form(mat)
            ncols = len(mat[0])
            assert len(v) == ncols and all(len(row) == ncols for row in v)
            # V is unimodular
            assert abs(exact_determinant(v)) == 1
            # column operations preserve the invariant factors...
            av = matmul(mat, v)
            assert smith_normal_form(av) == (factors, rank)
            # ...and the transformed matrix has zero columns past the rank
            for row in av:
                assert all(x == 0 for x in row[rank:])

    def test_solution_transport_mod_n(self):
        # y solving the diagonal system maps to x = V y solving the original
        rng = random.Random(109)
        for _ in range(60):
            mat = random_matrix(rng)
            n = rng.randint(2, 6)
            factors, rank, v = snf_with_column_transform(mat)
            ncols = len(mat[0])
            from math import gcd

            y = []
            for k in range(ncols):
                if k < rank:
                    step = n // gcd(factors[k], n)
                    y.append(step * rng.randrange(gcd(factors[k], n)))
                else:
                    y.append(rng.randrange(n))
            x = [sum(v[i][k] * y[k] for k in range(ncols)) % n for i in range(ncols)]
            for row in mat:
                assert sum(row[i] * x[i] for i in range(ncols)) % n == 0


class TestGroupFromRelations:
    def test_presentation_examples(self):
        # one generator killed twice over: Z/2
        assert group_from_relations(1, [[2]]) == HomologyGroup(0, (2,))
        # no relations: free
        assert group_from_relations(3, []) == HomologyGroup(3)
        # abelianized trefoil knot group <a, b | a b a = b a b>: infinite cyclic
        assert group_from_relations(2, [[1, -1]]) == HomologyGroup(1)
        # abelianized Hopf link group <a, b | [a, b]>: free of rank 2
        assert group_from_relations(2, [[0, 0]]) == HomologyGroup(2)
        # diag(3, 5) presents the cyclic group of order 15
        assert group_from_relations(2, [[3, 0], [0, 5]]) == HomologyGroup(0, (15,))
        # redundant relations change nothing
        assert group_from_relations(2, [[2, 0], [4, 0]]) == HomologyGroup(1, (2,))

    def test_row_length_validation(self):
        with pytest.raises(ValueError):
            group_from_relations(2, [[1, 2, 3]])

    def test_non_integer_relations_rejected(self):
        # truncating 2.7 would present Z/2
        with pytest.raises(TypeError):
            group_from_relations(1, [[2.7]])
