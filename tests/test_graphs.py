"""Graph data model, bicolored cycles, residues, isomorphism, canonical form."""

import random
from itertools import permutations

import pytest

from gemkit import (
    COLOR_PAIRS,
    COLORS,
    COVERING_BASE_CODES,
    ColoredGraph,
    NotConnectedError,
    are_isomorphic,
    bicolored_cycles,
    bipartition,
    canonical_code,
    derived_graph,
    enumerate_gems,
    find_admissible_cyclic_coverings,
    is_bipartite,
    is_connected,
    parse_code,
    recolored,
    relabeled,
    residues,
)
from gemkit.graphs import _block_maps
from helpers import (
    ALL_BUNDLED_CODES,
    NON_BIPARTITE_INVS,
    TABLE_CODES,
    component_count,
    random_bipartite_graph,
    random_color_permutation,
    random_colored_graph,
    random_vertex_permutation,
    reference_are_isomorphic,
)


class TestColoredGraphValidation:
    def test_basic_construction(self):
        g = ColoredGraph([[1, 0]] * 4)
        assert g.order == 2
        assert g.neighbor(0, 3) == 1

    def test_requires_four_colors(self):
        with pytest.raises(ValueError):
            ColoredGraph([[1, 0]] * 3)

    def test_rejects_odd_order(self):
        with pytest.raises(ValueError):
            ColoredGraph([[1, 2, 0]] * 4)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ColoredGraph([[]] * 4)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            ColoredGraph([[1, 0], [1, 0], [1, 0], [1, 0, 3, 2]])

    def test_rejects_fixed_point(self):
        with pytest.raises(ValueError):
            ColoredGraph([[0, 1], [1, 0], [1, 0], [1, 0]])

    def test_rejects_non_involution(self):
        with pytest.raises(ValueError):
            ColoredGraph([[1, 2, 3, 0], [1, 0, 3, 2], [1, 0, 3, 2], [1, 0, 3, 2]])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ColoredGraph([[5, 0], [1, 0], [1, 0], [1, 0]])

    def test_rejects_non_integer_entries(self):
        # truncating or parsing these would quietly give ((1, 0),) * 4
        with pytest.raises(TypeError):
            ColoredGraph([[1.9, 0.2]] * 4)
        with pytest.raises(TypeError):
            ColoredGraph([["1", "0"]] * 4)

    def test_value_semantics(self):
        a = parse_code("BAABBA")
        b = ColoredGraph(a.inv)
        assert a == b and hash(a) == hash(b)
        assert a != parse_code("ABABBA")


class TestEdges:
    def test_edge_count_and_determinism(self):
        for code in ("AAA", TABLE_CODES[0]):
            g = parse_code(code)
            edges = g.edges()
            assert len(edges) == 2 * g.order
            assert edges == sorted(edges)
            for c, u, w in edges:
                assert u < w and g.inv[c][u] == w


class TestBicoloredCycles:
    def test_bad_color_pair_rejected(self):
        g = parse_code("AAA")
        with pytest.raises(ValueError):
            bicolored_cycles(g, (1, 1))
        with pytest.raises(ValueError):
            bicolored_cycles(g, (0, 5))

    @pytest.mark.parametrize("colors", [(1,), (0, 1, 2)])
    def test_wrong_color_count_rejected(self, colors):
        with pytest.raises(ValueError, match="need two distinct colors"):
            bicolored_cycles(parse_code("AAA"), colors)

    def test_order_two_graph_has_double_edges(self):
        g = parse_code("AAA")
        for pair in COLOR_PAIRS:
            (cyc,) = bicolored_cycles(g, pair)
            assert len(cyc) == 2

    def test_partition_and_alternation(self):
        rng = random.Random(7)
        graphs = [parse_code(c) for c in ALL_BUNDLED_CODES[:6]]
        graphs += [random_colored_graph(rng, 10) for _ in range(5)]
        for g in graphs:
            for pair in COLOR_PAIRS:
                cycles = bicolored_cycles(g, pair)
                seen = [v for cyc in cycles for v in cyc.vertices]
                assert sorted(seen) == list(range(g.order))  # partition
                c1, c2 = pair
                for cyc in cycles:
                    assert len(cyc) % 2 == 0
                    assert cyc.colors == (c1, c2)
                    # replay the alternating walk and compare
                    walk, v, col = [], cyc.vertices[0], c1
                    for _ in range(len(cyc)):
                        walk.append(v)
                        v = g.inv[col][v]
                        col = c1 + c2 - col
                    assert tuple(walk) == cyc.vertices
                    assert v == cyc.vertices[0]  # closes up

    def test_cycle_count_matches_union_find(self):
        rng = random.Random(11)
        graphs = [parse_code(c) for c in ALL_BUNDLED_CODES[:4]]
        graphs += [random_colored_graph(rng, 12) for _ in range(5)]
        for g in graphs:
            for c1, c2 in COLOR_PAIRS:
                edges = [(v, g.inv[c1][v]) for v in range(g.order)]
                edges += [(v, g.inv[c2][v]) for v in range(g.order)]
                assert len(bicolored_cycles(g, (c1, c2))) == component_count(
                    g.order, edges
                )


class TestResidues:
    def test_bad_color_rejected(self):
        with pytest.raises(ValueError):
            residues(parse_code("AAA"), 4)
        with pytest.raises(TypeError):
            residues(parse_code("AAA"), 1.0)

    def test_partition_and_induced_involutions(self):
        rng = random.Random(13)
        graphs = [parse_code(c) for c in ALL_BUNDLED_CODES[:4]]
        graphs += [random_colored_graph(rng, 12) for _ in range(4)]
        for g in graphs:
            for missing in COLORS:
                rs = residues(g, missing)
                seen = [v for r in rs for v in r.vertices]
                assert sorted(seen) == list(range(g.order))
                for r in rs:
                    assert missing not in r.colors and len(r.colors) == 3
                    assert r.order == len(r.vertices)
                    maps = r.induced_involutions()
                    assert len(maps) == 3
                    for m in maps:
                        assert len(m) == r.order
                        assert all(m[m[v]] == v and m[v] != v for v in range(r.order))

    def test_residue_count_matches_union_find(self):
        g = parse_code(TABLE_CODES[0])
        for missing in COLORS:
            keep = [c for c in COLORS if c != missing]
            edges = [(v, g.inv[c][v]) for c in keep for v in range(g.order)]
            assert len(residues(g, missing)) == component_count(g.order, edges)

    def test_disconnected_graph_splits(self):
        g = parse_code("ABABAB")
        assert all(len(residues(g, c)) == 2 for c in COLORS)


class TestBipartitionConnectivity:
    def test_bundled_codes(self):
        for code in ALL_BUNDLED_CODES:
            g = parse_code(code)
            assert is_connected(g) and is_bipartite(g)

    def test_bipartition_separates_every_edge(self):
        rng = random.Random(17)
        for _ in range(10):
            g = random_bipartite_graph(rng, 6)
            side = bipartition(g)
            assert side is not None
            for c, u, w in g.edges():
                assert side[u] != side[w]

    def test_non_bipartite_example(self):
        g = ColoredGraph(NON_BIPARTITE_INVS)
        assert is_connected(g)
        assert bipartition(g) is None and not is_bipartite(g)

    def test_disconnected_example(self):
        g = parse_code("ABABAB")
        assert not is_connected(g)
        assert is_bipartite(g)  # both components are

    def test_parity_oracle_on_random_graphs(self):
        # independent check: bipartite iff a parity assignment extends
        # along a spanning traversal without conflict
        rng = random.Random(19)
        for _ in range(30):
            g = random_colored_graph(rng, 8)
            parity = [-1] * g.order
            ok = True
            for root in range(g.order):
                if parity[root] >= 0:
                    continue
                parity[root] = 0
                frontier = [root]
                while frontier and ok:
                    v = frontier.pop()
                    for c in COLORS:
                        w = g.inv[c][v]
                        if parity[w] < 0:
                            parity[w] = parity[v] ^ 1
                            frontier.append(w)
                        elif parity[w] == parity[v]:
                            ok = False
                            break
            assert is_bipartite(g) == ok


class TestRelabelRecolor:
    def test_relabeled_roundtrip(self):
        rng = random.Random(23)
        g = parse_code(TABLE_CODES[3])
        perm = random_vertex_permutation(rng, g.order)
        inverse = [0] * g.order
        for v, w in enumerate(perm):
            inverse[w] = v
        assert relabeled(relabeled(g, perm), inverse) == g

    def test_recolored_roundtrip(self):
        g = parse_code(TABLE_CODES[4])
        sigma = (2, 0, 3, 1)
        inverse = (1, 3, 0, 2)
        assert recolored(recolored(g, sigma), inverse) == g

    def test_recolored_moves_the_maps(self):
        g = parse_code(TABLE_CODES[0])
        h = recolored(g, (1, 0, 2, 3))
        assert h.inv[0] == g.inv[1] and h.inv[1] == g.inv[0]

    def test_invalid_inputs(self):
        g = parse_code("AAA")
        with pytest.raises(ValueError):
            relabeled(g, [0, 0])
        with pytest.raises(TypeError):
            relabeled(g, [1.0, 0.0])
        with pytest.raises(ValueError):
            recolored(g, [0, 1, 2, 2])

    def test_recolored_refuses_float_colors(self):
        # 0.0 sorts like 0, so only index() at the check catches it
        g = parse_code("AAA")
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            recolored(g, [0.0, 1, 2, 3])


class TestFromBlocks:
    @pytest.mark.parametrize(
        "blocks, bad",
        [
            ([[5], [1], [1]], 1),
            ([[2, 1], [1, 2], [3, 1]], 3),
            ([[0], [1], [1]], 1),
            ([[1, 2], [1, 1], [2, 1]], 2),
            ([[1, 2], [1], [2, 1]], 2),
            ([[], [], []], 1),
        ],
    )
    def test_bad_block_is_named(self, blocks, bad):
        with pytest.raises(ValueError, match="^block %d " % bad):
            ColoredGraph.from_blocks(blocks)

    @pytest.mark.parametrize("count", [0, 2, 4])
    def test_block_count(self, count):
        with pytest.raises(ValueError, match="expected 3 blocks"):
            ColoredGraph.from_blocks([[1]] * count)

    def test_float_entry_is_type_error(self):
        with pytest.raises(TypeError):
            ColoredGraph.from_blocks([[1.0], [1], [1]])


class TestTrustedBuilds:
    """``from_blocks``, ``relabeled`` and ``recolored`` wrap their maps
    unchecked: each result must equal the validated build of the same maps."""

    def test_from_blocks(self):
        rng = random.Random(61)
        for p in list(range(1, 9)) * 5 + [20, 50]:
            blocks = [rng.sample(range(1, p + 1), p) for _ in range(3)]
            g = ColoredGraph.from_blocks(blocks)
            assert g == ColoredGraph(_block_maps(blocks))
            assert g.order == 2 * p

    @staticmethod
    def graphs():
        rng = random.Random(53)
        out = [parse_code(code) for code in ALL_BUNDLED_CODES[::4]]
        out.append(ColoredGraph(NON_BIPARTITE_INVS))
        out += [random_colored_graph(rng, n) for n in (2, 6, 10, 14)]
        return out

    def test_relabeled(self):
        rng = random.Random(59)
        for g in self.graphs():
            for _ in range(5):
                h = relabeled(g, random_vertex_permutation(rng, g.order))
                assert h == ColoredGraph(h.inv)

    def test_recolored_by_all_24_permutations(self):
        for g in self.graphs():
            for sigma in permutations(COLORS):
                h = recolored(g, sigma)
                assert h == ColoredGraph(h.inv)


class TestIsomorphismAgainstFormerSearch:
    """``are_isomorphic`` keeps no injectivity check; the former search,
    which did, must give the same verdict on every pair."""

    @staticmethod
    def agree(graphs):
        verdicts = set()
        for i, g in enumerate(graphs):
            for h in graphs[i:]:
                verdict = are_isomorphic(g, h)
                assert verdict == reference_are_isomorphic(g, h)
                assert verdict == are_isomorphic(h, g)
                verdicts.add(verdict)
        return verdicts

    def test_census_classes(self):
        small = [parse_code(code) for n in (2, 4, 6) for code in enumerate_gems(n)]
        assert self.agree(small) == {False, True}
        rng = random.Random(61)
        sample = rng.sample([parse_code(code) for code in enumerate_gems(8)], 20)
        sample += [relabeled(g, random_vertex_permutation(rng, 8)) for g in sample[:5]]
        assert self.agree(sample) == {False, True}

    def test_random_non_bipartite_graphs(self):
        rng = random.Random(67)
        verdicts = set()
        # order 2 has one graph, which is bipartite
        for n in range(4, 13, 2):
            graphs = []
            while len(graphs) < 4:
                g = random_colored_graph(rng, n)
                if is_connected(g) and not is_bipartite(g):
                    graphs.append(g)
            for g in graphs[:2]:
                graphs.append(relabeled(g, random_vertex_permutation(rng, n)))
                graphs.append(recolored(g, random_color_permutation(rng)))
            verdicts |= self.agree(graphs)
        assert verdicts == {False, True}

    @pytest.mark.parametrize("code", COVERING_BASE_CODES)
    def test_derived_graphs(self, code):
        rng = random.Random(71)
        base = parse_code(code)
        graphs = []
        for n in range(2, 6):
            for va in find_admissible_cyclic_coverings(base, n, limit=3):
                total, _ = derived_graph(va)
                perm = random_vertex_permutation(rng, total.order)
                graphs += [total, relabeled(total, perm)]
        assert self.agree(graphs) == {False, True}


class TestIsomorphism:
    def test_reflexive(self):
        for code in ALL_BUNDLED_CODES[:5]:
            g = parse_code(code)
            assert are_isomorphic(g, g)

    def test_invariant_under_relabel_and_recolor(self):
        rng = random.Random(29)
        for code in (TABLE_CODES[0], TABLE_CODES[17], ALL_BUNDLED_CODES[-1]):
            g = parse_code(code)
            for _ in range(3):
                h = relabeled(g, random_vertex_permutation(rng, g.order))
                h = recolored(h, random_color_permutation(rng))
                assert are_isomorphic(g, h)

    def test_different_orders_never_isomorphic(self):
        assert not are_isomorphic(parse_code("AAA"), parse_code("BAABBA"))

    def test_distinct_bases_not_isomorphic(self):
        g1 = parse_code(ALL_BUNDLED_CODES[-3])
        g2 = parse_code(ALL_BUNDLED_CODES[-2])
        assert not are_isomorphic(g1, g2)

    def test_non_bipartite_graphs_supported(self):
        rng = random.Random(31)
        g = ColoredGraph(NON_BIPARTITE_INVS)
        h = relabeled(g, random_vertex_permutation(rng, g.order))
        assert are_isomorphic(g, h)

    def test_requires_connected(self):
        with pytest.raises(NotConnectedError):
            are_isomorphic(parse_code("ABABAB"), parse_code("ABABAB"))


class TestCanonicalCode:
    def test_order_two(self):
        assert canonical_code(parse_code("AAA")) == "AAA"

    def test_idempotent_on_bundled_codes(self):
        for code in ALL_BUNDLED_CODES:
            canon = canonical_code(parse_code(code))
            assert canonical_code(parse_code(canon)) == canon

    def test_canonical_never_sorts_above_input(self):
        # the canonical code is minimal, so it never exceeds the input code
        for code in ALL_BUNDLED_CODES[:6]:
            assert canonical_code(parse_code(code)) <= code

    def test_stability_under_relabeling_and_recoloring(self):
        rng = random.Random(37)
        for code in (TABLE_CODES[0], TABLE_CODES[20], ALL_BUNDLED_CODES[-1]):
            g = parse_code(code)
            canon = canonical_code(g)
            for _ in range(25):
                h = relabeled(g, random_vertex_permutation(rng, g.order))
                h = recolored(h, random_color_permutation(rng))
                assert canonical_code(h) == canon

    def test_equality_agrees_with_isomorphism(self):
        from gemkit import enumerate_gems

        entries = [parse_code(code) for code in enumerate_gems(6)]
        for i, g in enumerate(entries):
            for h in entries[i + 1 :]:
                assert not are_isomorphic(g, h)
                assert canonical_code(g) != canonical_code(h)
