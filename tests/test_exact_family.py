"""The paper's exact-value family: a six-regular base and its cyclic covers.

A bipartite six-regular graph with torus boundary triangulates a hyperbolic
manifold by regular ideal tetrahedra, one per vertex, so no triangulation
has fewer tetrahedra and its graph complexity equals its order.  A voltage
with zero holonomy on a bicolored cycle lifts it to cycles of the same
length, so every admissible cover stays six-regular, and the bounds of
``complexity_bounds_report`` meet at 12n for the covers of the one
six-regular class of order 12.
"""

import pytest

from gemkit import (
    ComplexityBounds,
    HomologyGroup,
    boundary_profile,
    canonical_code,
    complexity_bounds_report,
    derived_graph,
    enumerate_gems,
    find_admissible_cyclic_coverings,
    first_homology,
    is_six_regular,
    parse_code,
)

# the only six-regular class of the order-12 census, found by the census
# itself (none exists at orders 6, 8 or 10)
SIX_REGULAR_CODE = "BCAEFDCDEFABDAFBCE"

COVER_COUNTS = {2: 15, 3: 80, 4: 240, 5: 624}


@pytest.fixture(scope="module")
def base():
    return parse_code(SIX_REGULAR_CODE)


def test_base_invariants(base):
    assert canonical_code(base) == SIX_REGULAR_CODE
    assert base.order == 12
    assert is_six_regular(base)
    profile = boundary_profile(base)
    assert len(profile) == 4 and profile.all_torus
    assert first_homology(base) == HomologyGroup(4)


@pytest.mark.parametrize("n", sorted(COVER_COUNTS))
def test_covers_stay_six_regular(base, n):
    found = find_admissible_cyclic_coverings(base, n, limit=None)
    assert len(found) == COVER_COUNTS[n]
    for va in found:
        total, _ = derived_graph(va)
        assert total.order == 12 * n
        assert is_six_regular(total)
        assert boundary_profile(total).all_torus


@pytest.mark.parametrize("n", sorted(COVER_COUNTS))
def test_bounds_meet(base, n):
    bounds = complexity_bounds_report(base, base.order, n)
    assert bounds == ComplexityBounds(12 * n, 12 * n)


@pytest.mark.parametrize("order", [2, 4, 6, 8, 10])
def test_no_smaller_six_regular_class(order):
    assert not any(is_six_regular(parse_code(code)) for code in enumerate_gems(order))
