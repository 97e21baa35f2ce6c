"""The early-abort traversal kernel against the slow full-traversal reference.

``canonical_entries`` must equal the minimum over all 24 * order traversals
built in full, and ``beats_entries`` must agree with comparing every full
traversal against the ceiling.  The kernel skips starts by three rules (the
deck-group hint of derived graphs, the double-edge filter and the 4-cycle
filter); each is checked here against the full search and the reference.
"""

import random
from itertools import permutations

import pytest

from gemkit import (
    COLOR_PAIRS,
    COLORS,
    COVERING_BASE_CODES,
    ColoredGraph,
    bicolored_cycles,
    canonical_code,
    derived_graph,
    find_admissible_cyclic_coverings,
    is_connected,
    parse_code,
    recolored,
    relabeled,
)
from gemkit.census import _prefix_beaten
from gemkit.graphs import (
    _least_traversal,
    beats_entries,
    canonical_entries,
)
from helpers import (
    TABLE_CODES,
    all_traversals,
    full_traversal,
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


# ---------------------------------------------------------------------------
# 4-cycle filter: without a double edge, with a bicolored 4-cycle, only
# starts on a sigma0 sigma1 4-cycle can win
# ---------------------------------------------------------------------------


def four_cycle_pairs(g):
    return {
        pair
        for pair in COLOR_PAIRS
        if any(len(cyc) == 4 for cyc in bicolored_cycles(g, pair))
    }


def has_four_cycle(g):
    return bool(four_cycle_pairs(g))


def on_four_cycle(g, sigma, s):
    """Whether colors sigma0 and sigma1 close a 4-cycle through ``s``."""
    m0, m1 = g.inv[sigma[0]], g.inv[sigma[1]]
    return m0[m1[m0[m1[s]]]] == s


def test_entry_one_is_one_exactly_on_a_four_cycle():
    # four disjoint perfect matchings of K_{p,p} need p >= 4
    rng = random.Random(73)
    graphs = [g for g in map(parse_code, TABLE_CODES) if not has_double_edge(g)]
    assert len(graphs) == 11
    for p in range(4, 10):
        graphs.extend(no_double_edge(rng, p) for _ in range(4))
    for g in graphs:
        for sigma in permutations(COLORS):
            for s in range(g.order):
                head = full_traversal(g, sigma, s)[:2]
                assert head[0] == 2
                assert (head[1] == 1) == on_four_cycle(g, sigma, s), (sigma, s)
                assert head[1] != 2


def plant_four_cycle(blocks, a, b, i, k):
    """Swap entries of block b so that colors a, b close a 4-cycle through
    -(i+1) and -(k+1)."""
    p = len(blocks[0])
    partner = list(range(1, p + 1)) if a == 0 else blocks[a - 1]
    block = blocks[b - 1]
    # -(i+1) -a- partner[i] -b- -(k+1) -a- partner[k] -b- -(i+1)
    for slot, target in ((k, partner[i]), (i, partner[k])):
        j = block.index(target)
        block[slot], block[j] = block[j], block[slot]


def planted_four_cycle(rng, p):
    """A random connected bipartite graph without a double edge with a
    4-cycle planted in a random color pair."""
    while True:
        blocks = [rng.sample(range(1, p + 1), p) for _ in range(3)]
        plant_four_cycle(blocks, *rng.choice(COLOR_PAIRS), *rng.sample(range(p), 2))
        g = ColoredGraph.from_blocks(blocks)
        if is_connected(g) and not has_double_edge(g):
            return g


def short_cycle_free_blocks(rng, p):
    """Three random blocks whose graph has no bicolored cycle shorter than 6.
    Block c maps -(i+1) to the color-c partner's label, so colors a and b
    close a 2k-cycle exactly where ``b^-1 a`` has a k-cycle."""
    blocks = [list(range(1, p + 1))]
    while len(blocks) < 4:
        block = rng.sample(range(1, p + 1), p)
        back = {j: i for i, j in enumerate(block)}
        for other in blocks:
            pi = [back[j] for j in other]
            if any(pi[i] == i or pi[pi[i]] == i for i in range(p)):
                break
        else:
            blocks.append(block)
    return blocks[1:]


def no_short_cycle(rng, p):
    while True:
        g = ColoredGraph.from_blocks(short_cycle_free_blocks(rng, p))
        if is_connected(g):
            return g


def lone_four_cycle(rng, p, pair):
    """A connected graph without a double edge whose 4-cycles all lie in the
    colors ``pair`` and miss vertex 0."""
    while True:
        blocks = short_cycle_free_blocks(rng, p)
        plant_four_cycle(blocks, *pair, *rng.sample(range(1, p), 2))
        g = ColoredGraph.from_blocks(blocks)
        fours = [c for c in bicolored_cycles(g, pair) if len(c) == 4]
        if (
            is_connected(g)
            and not has_double_edge(g)
            and four_cycle_pairs(g) == {pair}
            and not any(0 in c.vertices for c in fours)
        ):
            return g


def check_first_modes(g, ceilings):
    """``_least_traversal`` in both modes against every full traversal."""
    cands = all_traversals(g)
    p = g.order // 2
    for ceiling in ceilings:
        below = [c for c in cands if c < ceiling]
        assert beats_entries(g, ceiling) == bool(below), ceiling
        padded = list(ceiling) + [0] * (p - len(ceiling))
        assert _least_traversal(g, padded, False) == min(below, default=None), ceiling


def ceilings_after_two(rng, cands, p):
    """Ceilings starting ``[2, 1]`` and ``[2, k]`` for every k in 2..p:
    sampled traversals, random lists and short prefixes; and ``[3, 1]``,
    which every list beats."""
    out = [list(c) for c in rng.sample(cands, min(8, len(cands)))]
    out += [[3, 1], [3, 1] + [1] * (3 * p)]
    for k in range(1, p + 1):
        out += [[2, k] + [rng.randint(1, p) for _ in range(3 * p - 2)] for _ in range(2)]
        out += [[2, k], [2, k] + [p] * (p - 2), [2, k] + [1] * (3 * p)]
    return out


def test_four_cycle_filter_matches_reference_on_planted_four_cycles():
    rng = random.Random(79)
    for p in range(4, 10):
        for _ in range(4):
            g = planted_four_cycle(rng, p)
            assert has_four_cycle(g)
            assert canonical_entries(g) == reference_canonical_entries(g)
            assert canonical_entries(g)[:2] == [2, 1]
            check_first_modes(g, ceilings_after_two(rng, all_traversals(g), p))


def test_full_search_matches_reference_without_short_cycles():
    # here the filter is on only through a ceiling that starts [2, 1], and
    # leaves no start; otherwise every start is tried
    rng = random.Random(83)
    for p in range(5, 10):
        for _ in range(3):
            g = no_short_cycle(rng, p)
            assert not has_double_edge(g) and not has_four_cycle(g)
            assert canonical_entries(g) == reference_canonical_entries(g)
            assert canonical_entries(g)[1] > 2
            check_first_modes(g, ceilings_after_two(rng, all_traversals(g), p))


@pytest.mark.parametrize("code", COVERING_BASE_CODES)
def test_hint_and_four_cycle_filter_together(code):
    # derived graphs have 4-cycles and no double edge; the relabelled copy
    # carries no hint, so every fiber's starts are tried there
    rng = random.Random(89)
    for n in range(2, 13):
        total = first_derived(code, n)
        assert total._deck == n
        assert not has_double_edge(total) and has_four_cycle(total)
        copy = relabeled(total, random_vertex_permutation(rng, total.order))
        best = canonical_entries(copy)
        assert canonical_entries(total) == best, n
        p = total.order // 2
        for ceiling in (best, best[:2], [2, 1] + [p] * (p - 2), [2, 2], [2, 1, 1]):
            assert beats_entries(total, ceiling) == beats_entries(copy, ceiling), n
            padded = list(ceiling) + [0] * (p - len(ceiling))
            assert _least_traversal(total, padded, False) == _least_traversal(
                copy, padded, False
            ), n


def test_first_start_tried_lies_on_a_four_cycle():
    # every list beats a ceiling [2, order], so the first start tried wins
    rng = random.Random(97)
    graphs = [planted_four_cycle(rng, p) for p in range(4, 10)]
    graphs += [first_derived(code, 5) for code in COVERING_BASE_CODES]
    # one graph per color pair whose 4-cycles lie in that pair only: the
    # full search would return start 0, which lies on none
    graphs += [lone_four_cycle(rng, 7, pair) for pair in COLOR_PAIRS]
    for g in graphs:
        p = g.order // 2
        found = _least_traversal(g, [2, g.order] + [0] * (p - 2), True)
        assert found[:2] == [2, 1]


# ---------------------------------------------------------------------------
# census prefix rule: entry 1 from a doubled start, read off partial maps
# ---------------------------------------------------------------------------


def doubled_starts(maps):
    """Every ``(sigma, s)`` whose colors sigma0 and sigma1 join ``s`` to one
    vertex through filled slots."""
    return [
        (sigma, s)
        for sigma in permutations(COLORS)
        for s in range(len(maps[0]))
        if maps[sigma[0]][s] == maps[sigma[1]][s] >= 0
    ]


def beaten_below(g, starts, k):
    """Whether one of ``starts`` gives a full traversal of ``g`` whose entry
    1 is below ``k``."""
    return any(full_traversal(g, sigma, s)[1] < k for sigma, s in starts)


def test_prefix_reader_matches_full_traversal():
    rng = random.Random(101)
    outcomes = {True: 0, False: 0}
    for p in range(2, 9):
        graphs = [random_connected_bipartite(rng, p) for _ in range(50)]
        graphs += [planted_double_edge(rng, p) for _ in range(50)]
        for g in graphs:
            starts = doubled_starts(g.inv)
            for k in range(3, p + 2):
                got = _prefix_beaten(g.inv, k)
                assert got == beaten_below(g, starts, k), (g.inv, k)
                # every False here has a doubled start that reads entry 1 >= k
                outcomes[got] += bool(starts)
    assert min(outcomes.values()) > 100, outcomes


def opened(rng, g, share):
    """``g``'s maps as lists with each edge's two slots opened (-1) with
    probability ``share``."""
    maps = [list(m) for m in g.inv]
    for c, m in enumerate(maps):
        for v, w in enumerate(g.inv[c]):
            if v < w and rng.random() < share:
                m[v] = m[w] = -1
    return maps


def completed(rng, maps, p):
    """A random bipartite completion of ``opened`` maps: per color, the open
    negative slots matched to the open positive ones at random."""
    out = []
    for m in maps:
        m = list(m)
        free = [v for v in range(2 * p) if m[v] < 0]
        neg, pos = [v for v in free if v < p], [v for v in free if v >= p]
        rng.shuffle(pos)
        for v, w in zip(neg, pos):
            m[v], m[w] = w, v
        out.append(m)
    return ColoredGraph(out)


def filled_entry_one(maps, sigma, s):
    """Entry 1 of the traversal from ``s`` under ``sigma``, built step by
    step as :func:`full_traversal` builds it; None once a step reads an open
    slot (-1)."""
    inv = [maps[c] for c in sigma]
    pos_label = {inv[0][s]: 1}
    neg_vertex = [s]
    for row, c in ((0, 1), (0, 2), (0, 3), (1, 1)):
        if row == len(neg_vertex):
            return None  # s meets one vertex by all four colors
        u = neg_vertex[row]
        w = inv[c][u] if u >= 0 else -1
        if w < 0:
            return None
        if w not in pos_label:
            pos_label[w] = len(pos_label) + 1
            neg_vertex.append(inv[0][w])
    return pos_label[w]


def test_prefix_reader_on_partial_maps():
    rng = random.Random(103)
    outcomes = {True: 0, False: 0}
    compared = 0
    for p in range(2, 9):
        for _ in range(30):
            g = planted_double_edge(rng, p)
            maps = opened(rng, g, rng.choice((0.2, 0.4, 0.6)))
            completions = [completed(rng, maps, p) for _ in range(6)]
            completions = [h for h in completions if is_connected(h)]
            starts = doubled_starts(maps)
            read = [filled_entry_one(maps, sigma, s) for sigma, s in starts]
            # the filled slots fix every entry the oracle reads
            for (sigma, s), e in zip(starts, read):
                if e is not None:
                    for h in completions:
                        assert full_traversal(h, sigma, s)[1] == e, (maps, sigma, s)
            for k in range(3, p + 2):
                got = _prefix_beaten(maps, k)
                assert got == any(e is not None and e < k for e in read), (maps, k)
                outcomes[got] += 1
                # a cut must hold on every completion
                if got:
                    for h in completions:
                        assert beaten_below(h, starts, k), (maps, k)
                        compared += 1
    assert min(outcomes.values()) > 300 and compared > 1500, (outcomes, compared)
