"""Acceptance suite: seven end-to-end criteria, one test each.

``pytest -v`` shows one PASSED/FAILED line per criterion, and every
criterion that passes also records an explicit ``ACCEPTANCE <n> ... PASS``
verdict that the terminal summary prints in its own section (a failing
criterion surfaces as the test's failure instead of a verdict line).
Criteria with a stated time budget assert the elapsed wall-clock time too.
"""

import random
import time

from gemkit import (
    COLOR_PAIRS,
    COLORS,
    COVERING_BASE_CODES,
    COVERING_BASE_TETRAHEDRA,
    ComplexityBounds,
    HomologyGroup,
    TABLE1,
    bicolored_cycles,
    bipartition,
    boundary_profile,
    canonical_code,
    complexity_bounds_report,
    derived_graph,
    emit_code,
    enumerate_gems,
    first_homology,
    holonomy,
    identity_labeling,
    is_admissible,
    is_closed,
    is_connected,
    minimality_probe,
    parse_code,
    recolored,
    relabeled,
    residues,
    smith_normal_form,
    verify_covering,
)
from helpers import (
    ALL_BUNDLED_CODES,
    exact_determinant,
    naive_census,
    random_color_permutation,
    random_vertex_permutation,
    rational_rank,
)


def announce(log, number, label, elapsed=None, budget=None):
    timing = ""
    if elapsed is not None:
        timing = "  [%.2fs" % elapsed
        timing += " < %ds]" % budget if budget else "]"
    log("ACCEPTANCE %d %s: PASS%s" % (number, label, timing))


def test_criterion_1_bundled_table_corpus(acceptance_log):
    start = time.perf_counter()
    assert len(TABLE1) == 34
    canonicals = []
    for row in TABLE1:
        g = parse_code(row.code)
        assert g.order == 14
        assert is_connected(g)
        assert bipartition(g) is not None
        profile = boundary_profile(g)
        assert len(profile) == row.boundary_count
        assert all(s.is_torus for s in profile.components)
        canonicals.append(canonical_code(g))
    assert len(set(canonicals)) == 34
    elapsed = time.perf_counter() - start
    assert elapsed < 5
    announce(acceptance_log, 1, "bundled table: 34 codes, k-torus boundaries, distinct", elapsed, 5)


def test_criterion_2_link_complement_homology(acceptance_log):
    start = time.perf_counter()
    link_rows = [row for row in TABLE1 if row.link_complement]
    assert len(link_rows) == 30
    for row in link_rows:
        h1 = first_homology(parse_code(row.code))
        assert h1 == HomologyGroup(row.boundary_count), (
            "%s: expected free of rank %d, got %s"
            % (row.name, row.boundary_count, h1)
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 5
    announce(acceptance_log, 2, "30 link complements: H1 free of rank k", elapsed, 5)


def test_criterion_3_covering_family(acceptance_log):
    from gemkit import find_admissible_cyclic_coverings

    start = time.perf_counter()
    for code in COVERING_BASE_CODES:
        base = parse_code(code)
        for n in range(1, 6):
            found = find_admissible_cyclic_coverings(base, n, limit=1)
            assert found, "no degree-%d covering of %s" % (n, code)
            total, cm = derived_graph(found[0])
            assert total.order == 12 * n
            assert is_connected(total)
            assert verify_covering(cm) == n
            assert is_admissible(cm)
            assert boundary_profile(total).all_torus
            bounds = complexity_bounds_report(base, COVERING_BASE_TETRAHEDRA, n)
            assert bounds == ComplexityBounds(10 * n, 12 * n)
    elapsed = time.perf_counter() - start
    assert elapsed < 30
    announce(acceptance_log, 3, "3 bases x degrees 1..5: admissible covers, bounds (10n,12n)", elapsed, 30)


def test_criterion_4_smallest_z2_entry(acceptance_log):
    start = time.perf_counter()
    target = HomologyGroup(0, (2,))

    def closed_z2(g):
        return is_closed(g) and first_homology(g) == target

    assert minimality_probe(6, closed_z2) is None
    assert minimality_probe(8, closed_z2) == 8
    elapsed = time.perf_counter() - start
    assert elapsed < 600
    announce(acceptance_log, 4, "closed H1=Z/2 absent through order 6, present at 8", elapsed, 600)


def test_criterion_5_census_matches_naive_oracle(acceptance_log):
    start = time.perf_counter()
    for order in (2, 4, 6):
        generated = set(enumerate_gems(order))
        assert generated == naive_census(order)
    assert len(naive_census(2)) == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    announce(acceptance_log, 5, "pruned census equals naive bucketing at orders 2, 4, 6", elapsed, 60)


def test_criterion_6_smith_normal_form_suite(acceptance_log):
    start = time.perf_counter()
    rng = random.Random(2024)
    for _ in range(1000):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 4)
        mat = [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(nrows)]
        factors, rank = smith_normal_form(mat)
        assert rank == rational_rank(mat)
        assert all(d > 0 for d in factors)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0
        if nrows == ncols and rank == nrows:
            product = 1
            for d in factors:
                product *= d
            assert product == abs(exact_determinant(mat))
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    announce(acceptance_log, 6, "1000 random matrices: SNF vs det/rank oracles", elapsed, 10)


def test_criterion_7_structural_properties(acceptance_log):
    # round-trip codec on every bundled code
    for code in ALL_BUNDLED_CODES:
        g = parse_code(code)
        assert emit_code(g, identity_labeling(g.order)) == code

    # cycle and residue partition properties on every bundled code
    for code in ALL_BUNDLED_CODES:
        g = parse_code(code)
        for pair in COLOR_PAIRS:
            cycles = bicolored_cycles(g, pair)
            seen = sorted(v for cyc in cycles for v in cyc.vertices)
            assert seen == list(range(g.order))
            assert all(len(cyc) % 2 == 0 for cyc in cycles)
        for missing in COLORS:
            rs = residues(g, missing)
            seen = sorted(v for r in rs for v in r.vertices)
            assert seen == list(range(g.order))

    # canonical-code stability: 1000 random relabelings per table graph
    rng = random.Random(1234)
    for row in TABLE1:
        g = parse_code(row.code)
        canon = canonical_code(g)
        for _ in range(1000):
            h = relabeled(g, random_vertex_permutation(rng, g.order))
            assert canonical_code(h) == canon
        # color permutations are part of the isomorphism notion too
        h = recolored(g, random_color_permutation(rng))
        assert canonical_code(h) == canon

    # admissible coverings multiply cycle counts by n, preserving lengths
    from gemkit import find_admissible_cyclic_coverings

    for code in COVERING_BASE_CODES:
        base = parse_code(code)
        for n in (2, 3):
            (va,) = find_admissible_cyclic_coverings(base, n, limit=1)
            total, cm = derived_graph(va)
            assert is_admissible(cm)
            for pair in COLOR_PAIRS:
                base_cycles = bicolored_cycles(base, pair)
                total_cycles = bicolored_cycles(total, pair)
                assert len(total_cycles) == n * len(base_cycles)
                assert sorted(len(c) for c in total_cycles) == sorted(
                    len(c) for c in base_cycles for _ in range(n)
                )
                assert all(holonomy(va, cyc) == 0 for cyc in base_cycles)

    announce(acceptance_log, 7, "codec round-trips, partitions, canonical stability, covers")
