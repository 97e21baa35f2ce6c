"""The per-graph structure record: how often the structure layer sweeps and
walks, the non-tree edges it keeps, and that no caller can change it."""

import random

import pytest

from gemkit import (
    COLOR_PAIRS,
    COLORS,
    COVERING_BASE_CODES,
    ColoredGraph,
    bicolored_cycles,
    bipartition,
    canonical_code,
    derived_graph,
    find_admissible_cyclic_coverings,
    invariant_report,
    is_admissible,
    is_bipartite,
    is_connected,
    parse_code,
)
from gemkit import graphs, topology
from helpers import (
    TABLE_CODES,
    bfs_tree,
    random_bipartite_graph,
    random_colored_graph,
)


@pytest.fixture
def spy(monkeypatch):
    """Counts the calls of the component sweep and of the cycle walker,
    wherever the package looks them up."""
    counts = {"_components": 0, "_cycles": 0}
    for name in counts:
        real = getattr(graphs, name)

        def counted(*args, _real=real, _name=name):
            counts[_name] += 1
            return _real(*args)

        for mod in (graphs, topology):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted)
    return counts


def reset(counts):
    for name in counts:
        counts[name] = 0


class TestTraversalCounts:
    @pytest.mark.parametrize("code", TABLE_CODES)
    def test_invariant_report_sweeps_five_times_and_walks_six(self, spy, code):
        g = parse_code(code)
        reset(spy)
        invariant_report(g, name="row", code=code)
        # one sweep for the record and one per residue colour; one walk per
        # colour pair
        assert spy["_components"] <= 5
        assert spy["_cycles"] == 6

    def test_cover_record_sweeps_five_times_and_walks_six(self, spy):
        # the record is built once, whichever call comes first, and reused
        for code in COVERING_BASE_CODES:
            base = parse_code(code)
            (va,) = find_admissible_cyclic_coverings(base, 20, limit=1)
            for calls in ((invariant_report, canonical_code), (canonical_code, invariant_report)):
                total, cm = derived_graph(va)
                reset(spy)
                for call in calls:
                    call(total)
                assert is_admissible(cm)
                assert spy["_components"] <= 5
                assert spy["_cycles"] == 6

    def test_canonical_code_sweeps_once_and_walks_six(self, spy):
        g = parse_code(TABLE_CODES[0])
        reset(spy)
        canonical_code(g)
        assert spy == {"_components": 1, "_cycles": 6}


def disjoint_union(g, h):
    n = g.order
    return ColoredGraph([g.inv[c] + tuple(n + w for w in h.inv[c]) for c in COLORS])


class TestFreeDarts:
    def test_free_darts_are_the_edges_off_the_breadth_first_tree(self):
        rng = random.Random(4401)
        kinds = set()
        for trial in range(600):
            pick = trial % 3
            if pick == 0:
                g = random_bipartite_graph(rng, rng.randint(1, 20))
            elif pick == 1:
                g = random_colored_graph(rng, 2 * rng.randint(1, 20))
            else:
                g = disjoint_union(
                    random_colored_graph(rng, 2 * rng.randint(1, 8)),
                    random_bipartite_graph(rng, rng.randint(1, 8)),
                )
            kinds.add((is_connected(g), is_bipartite(g)))
            tree = bfs_tree(g)
            side = bipartition(g)
            # tail on side 0 when bipartite, else the lower endpoint
            want = tuple(
                (w if side and side[u] else u, c)
                for c, u, w in g.edges()
                if (c, u, w) not in tree
            )
            assert graphs._structure(g).free == want
        assert kinds == {(True, True), (True, False), (False, True), (False, False)}


class TestRecordIsImmutable:
    def test_mutating_returned_cycles_changes_no_later_call(self):
        g = parse_code(TABLE_CODES[0])
        for pair in COLOR_PAIRS:
            first = bicolored_cycles(g, pair)
            expected = list(first)
            first.clear()
            assert bicolored_cycles(g, pair) == expected

    def test_record_holds_only_immutable_values(self):
        for code in TABLE_CODES[:3] + COVERING_BASE_CODES:
            g = parse_code(code)
            invariant_report(g)
            rec = graphs._structure(g)
            hash(rec)  # a list or dict anywhere inside would raise
            assert isinstance(rec.free, tuple)
            assert len(rec.cycles) == len(COLOR_PAIRS)
