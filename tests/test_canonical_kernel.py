"""The early-abort traversal kernel against the slow full-traversal reference.

``canonical_entries`` must equal the minimum over all 24 * order traversals
built in full, and ``beats_entries`` must agree with comparing every full
traversal against the ceiling.
"""

import random

import pytest

from gemkit import (
    COVERING_BASE_CODES,
    derived_graph,
    find_admissible_cyclic_coverings,
    is_connected,
    parse_code,
    relabeled,
)
from gemkit.graphs import beats_entries, canonical_entries
from helpers import (
    TABLE_CODES,
    all_traversals,
    random_bipartite_graph,
    random_vertex_permutation,
    reference_canonical_entries,
)


def random_connected_bipartite(rng, p):
    while True:
        g = random_bipartite_graph(rng, p)
        if is_connected(g):
            return g


def sample_graphs():
    rng = random.Random(41)
    graphs = [parse_code(code) for code in TABLE_CODES]
    for p in range(1, 10):
        graphs.extend(random_connected_bipartite(rng, p) for _ in range(4))
    return graphs


@pytest.mark.parametrize("code", TABLE_CODES)
def test_canonical_entries_match_reference_on_table(code):
    g = parse_code(code)
    assert canonical_entries(g) == reference_canonical_entries(g)


def test_canonical_entries_match_reference_on_random_graphs():
    rng = random.Random(43)
    for order in range(2, 20, 2):
        for _ in range(6):
            g = random_connected_bipartite(rng, order // 2)
            assert canonical_entries(g) == reference_canonical_entries(g), order


@pytest.mark.parametrize("code", COVERING_BASE_CODES)
def test_canonical_entries_match_reference_on_derived_graphs(code):
    rng = random.Random(47)
    base = parse_code(code)
    for n in (2, 3, 4, 5):
        (va,) = find_admissible_cyclic_coverings(base, n, limit=1)
        total, _ = derived_graph(va)
        assert total.order == 12 * n
        total = relabeled(total, random_vertex_permutation(rng, total.order))
        assert canonical_entries(total) == reference_canonical_entries(total), n


def test_own_canonical_entries_are_never_beaten():
    for g in sample_graphs():
        ceiling = canonical_entries(g)
        assert not any(cand < ceiling for cand in all_traversals(g))
        assert not beats_entries(g, ceiling)


def test_beats_entries_matches_reference_on_other_traversals():
    rng = random.Random(53)
    for g in sample_graphs():
        cands = all_traversals(g)
        for ceiling in rng.sample(cands, min(12, len(cands))):
            assert beats_entries(g, ceiling) == any(c < ceiling for c in cands)


def test_beats_entries_matches_reference_on_arbitrary_ceilings():
    # ceilings that are no traversal: random entries, and every length from
    # empty to one past a full list, so ties and prefixes are exercised
    rng = random.Random(59)
    for g in sample_graphs():
        p = g.order // 2
        cands = all_traversals(g)
        best = min(cands)
        ceilings = [
            [rng.randint(1, p) for _ in range(3 * p)] for _ in range(4)
        ]
        ceilings += [best[:k] for k in range(3 * p + 1)]
        ceilings.append(best + [1])
        for ceiling in ceilings:
            expected = any(c < ceiling for c in cands)
            assert beats_entries(g, tuple(ceiling)) == expected, ceiling
