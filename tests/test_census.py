"""Census generator, classification, file format, probes, bundled table."""

import io
import json
from fractions import Fraction
from itertools import combinations, permutations

import pytest

import gemkit.census as census_mod
import helpers
from gemkit import (
    COLOR_PAIRS,
    CapExceededError,
    ColoredGraph,
    HomologyGroup,
    TABLE1,
    bicolored_cycles,
    boundary_profile,
    build_census,
    canonical_code,
    classify,
    enumerate_gems,
    first_homology,
    is_bipartite,
    is_closed,
    is_connected,
    minimality_probe,
    parse_code,
    verify_table1,
)
from gemkit.census import ENUMERATION_CAP, write_census
from gemkit.data import Table1Row
from gemkit.graphs import beats_entries
from helpers import (
    ORDER8_Z2_CODE,
    automorphism_count,
    census_start_count,
    kernel_tries,
    naive_census,
    reference_enumerate_gems,
    table1_census_clashes,
    table1_signatures,
)


@pytest.fixture(scope="module")
def census_leaves():
    """``run(order)`` gives the census codes of one order and every
    ``(graph, ceiling)`` leaf the generator handed to ``beats_entries``;
    ``run(order, reference=True)`` gives the same for the former generator."""
    runs = {}

    def run(order, reference=False):
        if (order, reference) not in runs:
            module = helpers if reference else census_mod
            generate = reference_enumerate_gems if reference else enumerate_gems
            real = module.beats_entries
            leaves = []

            def spy(g, ceiling):
                leaves.append((g, list(ceiling)))
                return real(g, ceiling)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(module, "beats_entries", spy)
                codes = list(generate(order))
            runs[order, reference] = codes, leaves
        return runs[order, reference]

    return run


class TestEnumerate:
    def test_order_two(self):
        assert list(enumerate_gems(2)) == ["AAA"]

    def test_order_four_frozen(self):
        assert sorted(enumerate_gems(4)) == [
            "ABABBA",
            "ABBABA",
        ]

    def test_order_six_frozen(self):
        assert sorted(enumerate_gems(6)) == [
            "ABCABCBCA",
            "ABCACBBAC",
            "ABCACBBCA",
            "ABCBCABCA",
            "ABCBCACAB",
            "ACBBACBCA",
            "ACBBACCBA",
        ]

    def test_order_eight_count(self):
        assert sum(1 for _ in enumerate_gems(8)) == 47

    def test_entries_are_connected_bipartite_and_self_canonical(self):
        for order in (2, 4, 6):
            for code in enumerate_gems(order):
                assert isinstance(code, str)
                g = parse_code(code)
                assert g.order == order
                assert is_connected(g) and is_bipartite(g)
                assert canonical_code(g) == code

    def test_matches_naive_bucketing(self):
        for order in (2, 4):
            assert set(enumerate_gems(order)) == naive_census(
                order
            )

    def test_input_validation(self):
        for bad in (0, -2, 3):
            with pytest.raises(ValueError):
                list(enumerate_gems(bad))

    @pytest.mark.parametrize("order", [2, 4, 6, 8])
    def test_trusted_leaves_equal_validated_build(self, census_leaves, order):
        # the proof for the leaf graphs built without re-validation
        _, leaves = census_leaves(order)
        assert leaves
        p = order // 2
        for g, ceiling in leaves:
            blocks = [ceiling[b * p : (b + 1) * p] for b in range(3)]
            assert g == ColoredGraph.from_blocks(blocks)
            assert g.order == order

    @pytest.mark.parametrize(
        "order, leaf_count", [(2, 1), (4, 3), (6, 29), (8, 503), (10, 13157)]
    )
    def test_leaf_count_is_orbit_sum(self, census_leaves, order, leaf_count):
        # each class leaves the former generator one leaf per automorphism
        # orbit of the starts it keeps, so a dropped or duplicated class
        # breaks the sum
        codes, leaves = census_leaves(order, reference=True)
        total = Fraction(0)
        for code in codes:
            g = parse_code(code)
            total += Fraction(census_start_count(g), automorphism_count(g))
        assert total == len(leaves) == leaf_count

    @pytest.mark.parametrize(
        "order, leaf_count", [(2, 1), (4, 3), (6, 29), (8, 391), (10, 7754)]
    )
    def test_prefix_rule_leaf_count(self, census_leaves, order, leaf_count):
        assert len(census_leaves(order)[1]) == leaf_count

    @pytest.mark.parametrize("order, try_count", [(2, 48), (4, 84), (6, 321), (8, 2334)])
    def test_leaf_test_tries_the_leafs_own_traversal_last(
        self, census_leaves, order, try_count
    ):
        # a leaf's own traversal (identity, start 0) reproduces its code, the
        # ceiling, so it never wins: a beaten leaf wins before reaching it,
        # and a kept leaf runs it last of all its tries
        codes, leaves = census_leaves(order)
        kept = 0
        with kernel_tries() as calls:
            for g, ceiling in leaves:
                beaten = beats_entries(g, ceiling)
                taken = calls[-1]
                own = [
                    k
                    for k, (*maps, s) in enumerate(taken)
                    if s == 0 and all(m is c for m, c in zip(maps, g.inv))
                ]
                assert own == ([] if beaten else [len(taken) - 1]), ceiling
                kept += not beaten
        assert len(calls) == len(leaves) and kept == len(codes)
        assert sum(map(len, calls)) == try_count

    @pytest.mark.parametrize("order", [2, 4, 6, 8, 10])
    def test_leaves_and_classes_match_former_generator(self, census_leaves, order):
        # the in-place search hands the kernel the former search's leaves in
        # the same order, less some that the kernel beats, and yields the
        # former codes in the same order
        codes, leaves = census_leaves(order)
        want, want_leaves = census_leaves(order, reference=True)
        kept = iter([(g.inv, ceiling) for g, ceiling in leaves] + [None])
        leaf = next(kept)
        for g, ceiling in want_leaves:
            if (g.inv, ceiling) == leaf:
                leaf = next(kept)
            else:
                assert beats_entries(g, ceiling), ceiling
        assert leaf is None
        assert codes == want

    @pytest.mark.parametrize("order, expected", [(8, 2), (10, 3)])
    def test_classes_without_double_edge_match_brute_force(
        self, census_leaves, order, expected
    ):
        # every triple of blocks with no fixed point (no double edge with
        # color 0) and no agreeing pair (none between colors 1-3)
        def apart(a, b):
            return all(x != y for x, y in zip(a, b))

        p = order // 2
        identity = tuple(range(1, p + 1))
        free = [b for b in permutations(identity) if apart(b, identity)]
        seen = set()
        for b1 in free:
            for b2 in (b for b in free if apart(b1, b)):
                for b3 in free:
                    if apart(b1, b3) and apart(b2, b3):
                        g = ColoredGraph.from_blocks((b1, b2, b3))
                        if is_connected(g):
                            seen.add(canonical_code(g))
        codes, _ = census_leaves(order)
        assert seen == {code for code in codes if code.startswith("B")}
        assert len(seen) == expected

    @pytest.mark.parametrize(
        "order, expected", [(2, 0), (4, 0), (6, 0), (8, 4), (10, 56)]
    )
    def test_leaves_starting_with_two_have_no_double_edge(
        self, census_leaves, order, expected
    ):
        # the double-edge rule, which the forced last row applies too
        _, leaves = census_leaves(order)
        twos = [g for g, ceiling in leaves if ceiling[0] == 2]
        for g in twos:
            assert all(
                len(cycle) > 2 for pair in COLOR_PAIRS for cycle in bicolored_cycles(g, pair)
            ), g.inv
        assert len(twos) == expected


class TestBuildCensus:
    def test_sorted_and_classified(self):
        codes = build_census(6)
        assert codes == sorted(codes)
        for code in codes:
            report = classify(code)
            assert report["code"] == code
            assert report["order"] == 6

    def test_classify_single_entry(self):
        assert classify("AAA")["closed"] is True

    def test_order_six_invariant_signatures(self):
        # five closed entries with trivial homology, one solid-torus-like
        # entry and one with two torus boundary components
        signatures = sorted(
            (
                r["closed"],
                len(r["boundary"]),
                r["h1"]["rank"],
                tuple(r["h1"]["torsion"]),
            )
            for r in map(classify, build_census(6))
        )
        assert signatures == [
            (False, 1, 1, ()),
            (False, 2, 2, ()),
            (True, 0, 0, ()),
            (True, 0, 0, ()),
            (True, 0, 0, ()),
            (True, 0, 0, ()),
            (True, 0, 0, ()),
        ]

    def test_cap_enforced(self):
        with pytest.raises(CapExceededError):
            build_census(ENUMERATION_CAP + 2)


class TestWriteCensus:
    def test_format(self):
        codes = build_census(4)
        buf = io.StringIO()
        write_census(buf, codes, 4)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "#gemkit-census v1"
        assert lines[1] == "#order=4"
        assert lines[2] == "#opts=bipartite,connected"
        assert len(lines) == 3 + len(codes)
        for line, want in zip(lines[3:], codes):
            code, payload = line.split("\t", 1)
            assert code == want
            assert json.loads(payload) == classify(want)


def closed_with_h1(h1):
    return lambda g: is_closed(g) and first_homology(g) == h1


class TestMinimalityProbe:
    def test_simplest_closed_case_is_order_two(self):
        assert minimality_probe(6, closed_with_h1(HomologyGroup(0))) == 2

    def test_z2_first_appears_at_order_eight(self):
        assert minimality_probe(6, closed_with_h1(HomologyGroup(0, (2,)))) is None
        assert minimality_probe(8, closed_with_h1(HomologyGroup(0, (2,)))) == 8

    def test_single_boundary_component_at_order_six(self):
        assert minimality_probe(8, lambda g: len(boundary_profile(g)) == 1) == 6

        def two_tori(g):
            profile = boundary_profile(g)
            return len(profile) == 2 and profile.all_torus

        assert minimality_probe(8, two_tori) == 6

    def test_cap_enforced(self):
        calls = []
        with pytest.raises(CapExceededError, match="order %d exceeds" % (ENUMERATION_CAP + 2)):
            minimality_probe(ENUMERATION_CAP + 2, calls.append)
        assert calls == []

    def test_stops_at_its_first_match(self):
        results = []

        def spy(g):
            results.append(len(boundary_profile(g)) == 1)
            return results[-1]

        assert minimality_probe(10, spy) == 6
        assert results.count(True) == 1 and results[-1]

    def test_no_non_torus_boundary_up_to_order_eight(self):
        assert minimality_probe(8, lambda g: not boundary_profile(g).all_torus) is None
        for order in range(2, 9, 2):
            for code in enumerate_gems(order):
                assert boundary_profile(parse_code(code)).all_torus


class TestVerifyTable1:
    def test_bundled_rows_all_pass(self):
        report = verify_table1()
        assert len(report.rows) == 34
        assert report.distinct_canonical
        assert report.ok
        for check in report.rows:
            assert check.ok, "%s: %s" % (check.name, check.problems)
            assert check.problems == ()

    def test_unparseable_row_reported(self):
        report = verify_table1([Table1Row("bad", "AB", 1, None, True)])
        assert not report.ok
        assert "parse" in report.rows[0].problems[0]

    def test_wrong_boundary_count_reported(self):
        row = TABLE1[0]._replace(boundary_count=3)
        report = verify_table1([row])
        assert not report.ok
        assert any("boundary" in p for p in report.rows[0].problems)

    def test_torsion_blocks_link_claims(self):
        # mislabeling a torsion row as a link complement must fail
        by_name = {r.name: r for r in TABLE1}
        row = by_name["14^3_2"]._replace(link_complement=True)
        report = verify_table1([row])
        assert not report.ok
        assert any("H1" in p for p in report.rows[0].problems)

    @pytest.mark.parametrize(
        "code, problem",
        [
            ("DABCFEFEABDCCDEFAB", "order 12 != 14"),
            ("ABCDEFGABCDEFGABCDEFG", "not connected"),
            # the boundary is one genus-2 surface
            ("BGEDCFAABFDEGCFGCBDAE", "boundary contains a non-torus component"),
        ],
    )
    def test_bad_graph_reported(self, code, problem):
        report = verify_table1([Table1Row("bad", code, 1, None, False)])
        assert not report.ok
        assert problem in report.rows[0].problems

    def test_duplicate_codes_flagged(self):
        report = verify_table1([TABLE1[0], TABLE1[0]._replace(name="copy")])
        assert not report.distinct_canonical
        assert not report.ok


class TestTable1CoverSignature:
    """The homology of the Z_2 and Z_3 covers separates the rows' manifolds
    where H1 and the boundary profile do not (the CI workflow runs the
    census part at order 12)."""

    def test_rows_sharing_invariants_are_separated(self):
        rows = table1_signatures()
        pairs = [(a, b) for a, b in combinations(rows, 2) if a[1] == b[1]]
        assert len(pairs) == 156
        assert [(a[0], b[0]) for a, b in pairs if a[2] == b[2]] == []

    def test_no_smaller_class_matches_a_row(self):
        clashes = [table1_census_clashes(order) for order in range(2, 11, 2)]
        assert clashes == [(0, []), (0, []), (1, []), (11, []), (174, [])]
