"""Property-based checks over random permutation triples (hypothesis).

A triple of permutations of ``1..p`` is exactly the three code blocks of a
bipartite graph with ``p`` vertex pairs, so drawing triples covers every
such graph.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gemkit import (
    ColoredGraph,
    are_isomorphic,
    canonical_code,
    emit_code,
    identity_labeling,
    is_connected,
    parse_code,
    recolored,
    relabeled,
)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


def triples(p):
    block = st.permutations(range(1, p + 1))
    return st.tuples(block, block, block)


pair_counts = st.integers(min_value=1, max_value=8)
color_permutations = st.permutations(range(4))


def letter_code(blocks):
    return "".join(chr(ord("A") + j - 1) for block in blocks for j in block)


@st.composite
def connected_graphs(draw, p=None):
    p = draw(pair_counts) if p is None else p
    g = ColoredGraph.from_blocks(draw(triples(p)))
    assume(is_connected(g))
    return g


@st.composite
def renamed(draw, g):
    perm = draw(st.permutations(range(g.order)))
    return recolored(relabeled(g, perm), draw(color_permutations))


@SETTINGS
@given(pair_counts.flatmap(triples))
def test_parse_emit_round_trip(blocks):
    code = letter_code(blocks)
    g = parse_code(code)
    assert g == ColoredGraph.from_blocks(blocks)
    labels = identity_labeling(g.order)
    assert emit_code(g, labels) == code
    numeric = ",".join(str(j) for block in blocks for j in block)
    assert parse_code(numeric) == g


@SETTINGS
@given(st.data())
def test_canonical_code_invariant_under_renaming(data):
    g = data.draw(connected_graphs())
    h = data.draw(renamed(g))
    assert canonical_code(h) == canonical_code(g)


@SETTINGS
@given(st.data())
def test_isomorphism_agrees_with_canonical_equality(data):
    g = data.draw(connected_graphs())
    if data.draw(st.booleans()):
        h = data.draw(renamed(g))
    else:
        h = data.draw(connected_graphs(g.order // 2))
    assert are_isomorphic(g, h) == (canonical_code(g) == canonical_code(h))
