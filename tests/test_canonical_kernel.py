"""The early-abort traversal kernel against the slow full-traversal reference.

``canonical_entries`` must equal the minimum over all 24 * order traversals
built in full, and ``beats_entries`` must agree with comparing every full
traversal against the ceiling.  The kernel skips starts by two rules (the
deck-group hint of derived graphs and the double-edge filter); both are
checked here against the full search and the reference.
"""

import random

import pytest

from gemkit import (
    COLOR_PAIRS,
    COVERING_BASE_CODES,
    ColoredGraph,
    canonical_code,
    derived_graph,
    find_admissible_cyclic_coverings,
    is_connected,
    parse_code,
    recolored,
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


# ---------------------------------------------------------------------------
# deck-group hint: a derived graph tries only its fiber-0 starts
# ---------------------------------------------------------------------------


def first_derived(code, n):
    (va,) = find_admissible_cyclic_coverings(parse_code(code), n, limit=1)
    return derived_graph(va)[0]


@pytest.mark.parametrize("code", COVERING_BASE_CODES)
def test_hinted_derived_graphs_match_full_search(code):
    # ColoredGraph(total.inv) is the same graph without the hint
    for n in range(2, 41):
        total = first_derived(code, n)
        assert total._deck == n
        assert canonical_entries(total) == canonical_entries(ColoredGraph(total.inv)), n


@pytest.mark.parametrize("code", COVERING_BASE_CODES)
def test_hinted_derived_graphs_match_reference(code):
    for n in range(2, 7):
        total = first_derived(code, n)
        assert canonical_entries(total) == reference_canonical_entries(total), n


def test_only_derived_graph_sets_the_hint():
    rng = random.Random(61)
    total = first_derived(COVERING_BASE_CODES[0], 3)
    built = [
        relabeled(total, random_vertex_permutation(rng, total.order)),
        relabeled(total, range(total.order)),
        recolored(total, [1, 0, 3, 2]),
        recolored(total, [0, 1, 2, 3]),
        parse_code(canonical_code(total)),
        ColoredGraph(total.inv),
        ColoredGraph._trusted(total.inv),
        ColoredGraph.from_blocks([[2, 3, 1], [3, 1, 2], [1, 2, 3]]),
    ]
    assert total._deck == 3
    assert [g._deck for g in built] == [1] * len(built)
    # the hint is no part of the graph's value
    assert built[1] == total and hash(built[1]) == hash(total)


# ---------------------------------------------------------------------------
# double-edge filter: with a double edge, only starts on one can win
# ---------------------------------------------------------------------------


def has_double_edge(g):
    return any(g.inv[a][v] == g.inv[b][v] for a, b in COLOR_PAIRS for v in range(g.order))


def planted_double_edge(rng, p):
    """A random connected bipartite graph whose colors a, b double one edge."""
    while True:
        blocks = [rng.sample(range(1, p + 1), p) for _ in range(3)]
        a, b = rng.choice(COLOR_PAIRS)
        i = rng.randrange(p)
        # give -(i+1) the same color-b partner as its color-a partner
        target = i + 1 if a == 0 else blocks[a - 1][i]
        block = blocks[b - 1]
        k = block.index(target)
        block[i], block[k] = block[k], block[i]
        g = ColoredGraph.from_blocks(blocks)
        if is_connected(g):
            return g


def no_double_edge(rng, p):
    while True:
        g = random_connected_bipartite(rng, p)
        if not has_double_edge(g):
            return g


def ceilings_by_first_entry(rng, cands, p):
    """Ceilings starting with 1 and with 2: sampled traversals, random
    lists, short prefixes and block-1-length lists."""
    out = [list(c) for c in rng.sample(cands, min(8, len(cands)))]
    for head in (1, 2):
        out += [[head] + [rng.randint(1, p) for _ in range(3 * p - 1)] for _ in range(3)]
        out += [[head], [head] + [p] * (p - 1), [head] + [1] * (3 * p)]
    return out


def check_against_reference(g, rng):
    cands = all_traversals(g)
    assert canonical_entries(g) == min(cands)
    p = g.order // 2
    heads = set()
    for ceiling in ceilings_by_first_entry(rng, cands, p):
        heads.add(ceiling[0])
        assert beats_entries(g, ceiling) == any(c < ceiling for c in cands), ceiling
    assert {1, 2} <= heads


def test_double_edge_filter_matches_reference_on_planted_double_edges():
    rng = random.Random(67)
    for p in range(1, 9):
        for _ in range(6):
            g = planted_double_edge(rng, p)
            assert has_double_edge(g)
            check_against_reference(g, rng)


def test_ceiling_starting_with_one_matches_reference_without_double_edge():
    # here the filter is on only through the ceiling, and leaves no start;
    # four disjoint perfect matchings of K_{p,p} need p >= 4
    rng = random.Random(71)
    for p in range(4, 9):
        for _ in range(4):
            g = no_double_edge(rng, p)
            check_against_reference(g, rng)
