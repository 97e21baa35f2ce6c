"""Code-string codec: parsing, emission, labelings, and the error taxonomy."""

import inspect
import random

import pytest

from gemkit import (
    BadCharError,
    BadLengthError,
    ColoredGraph,
    GemError,
    InvalidLabelingError,
    NotBipartiteError,
    NotConnectedError,
    NotInvolutionError,
    are_isomorphic,
    bipartition,
    canonical_code,
    emit_code,
    identity_labeling,
    is_connected,
    parse_code,
    relabeled,
)
from gemkit.graphs import MAX_LETTER_PAIRS, _serialize_entries
from helpers import (
    ALL_BUNDLED_CODES,
    NON_BIPARTITE_INVS,
    TABLE_CODES,
    random_vertex_permutation,
    reference_emit_code,
)

#: A valid numeric code with ten vertex pairs: every block is 1,2,...,10.
NUMERIC_P10 = ",".join(map(str, list(range(1, 11)) * 3))


class TestParse:
    def test_order_two_graph(self):
        g = parse_code("AAA")
        assert g.order == 2
        for c in range(4):
            assert g.inv[c] == (1, 0)

    def test_vertex_pair_layout(self):
        # -i sits at index i-1, +i at index p+i-1, color 0 joins the two
        g = parse_code(TABLE_CODES[0])
        assert g.order == 14
        p = 7
        for i in range(p):
            assert g.inv[0][i] == p + i

    def test_block_indexing_explicit(self):
        g = parse_code("BAABBA")  # blocks: BA, AB, BA
        p = 2
        assert g.inv[1][0] == p + 1  # -1 --color1-- +2
        assert g.inv[1][1] == p + 0  # -2 --color1-- +1
        assert g.inv[2][0] == p + 0  # -1 --color2-- +1
        assert g.inv[3][0] == p + 1

    def test_numeric_and_letter_forms_agree(self):
        assert parse_code("2,1,1,2,2,1") == parse_code("BAABBA")

    def test_numeric_whitespace_tolerated(self):
        assert parse_code(" 2 ,1, 1,2 ,2,1 ") == parse_code("BAABBA")

    def test_bundled_codes_parse_connected_bipartite(self):
        for code in ALL_BUNDLED_CODES:
            g = parse_code(code)
            assert g.order == len(code) * 2 // 3
            assert is_connected(g)
            assert bipartition(g) is not None

    def test_disconnected_code_parses(self):
        g = parse_code("ABABAB")
        assert g.order == 4
        assert not is_connected(g)

    def test_small_letters_lexically_legal_structurally_rejected(self):
        # small letters name negative-class neighbors and are part of the
        # alphabet, but a block entry pairing -i with -j leaves the
        # positive partners unmatched, so such codes never decode: the
        # failure is an involution error, not a character error
        for text in ("baABBA", "-2,-1,1,2,2,1"):
            with pytest.raises(NotInvolutionError):
                parse_code(text)


def code_blocks(text):
    """The three 1-based blocks a well-formed code string spells."""
    if "," in text:
        entries = [int(t) for t in text.split(",")]
    else:
        entries = [ord(ch) - ord("A") + 1 for ch in text]
    p = len(entries) // 3
    return [entries[b * p : (b + 1) * p] for b in range(3)]


class TestTrustedParse:
    # parse_code builds its graph without re-validating the involutions;
    # this is the proof that the graph is the validated constructor's
    def test_bundled_codes_equal_validated_build(self):
        for code in ALL_BUNDLED_CODES:
            assert parse_code(code).inv == ColoredGraph.from_blocks(code_blocks(code)).inv

    @pytest.mark.parametrize("numeric", [False, True])
    def test_random_codes_equal_validated_build(self, numeric):
        rng = random.Random(61 + numeric)
        for p in range(1, 31 if numeric else 27):
            for _ in range(5):
                blocks = []
                for _ in range(3):
                    b = list(range(1, p + 1))
                    rng.shuffle(b)
                    blocks.append(b)
                entries = blocks[0] + blocks[1] + blocks[2]
                if numeric:
                    text = ",".join(map(str, entries))
                else:
                    text = "".join(chr(ord("A") + j - 1) for j in entries)
                g = parse_code(text)
                assert g.order == 2 * p
                assert g.inv == ColoredGraph.from_blocks(blocks).inv


class TestParseErrors:
    @pytest.mark.parametrize(
        "text", ["", "AB", "ABCD", "A" * 81, None, 42]
    )
    def test_bad_length(self, text):
        with pytest.raises(BadLengthError):
            parse_code(text)

    @pytest.mark.parametrize(
        "text",
        [
            "ABD",  # D names pair 4 of only 1 available
            "A1A",  # digit in letter form
            "A,B,C",  # non-integer tokens in numeric form
            "0,1,1",  # entry 0 is not a label
            "4,1,1",  # numeric entry out of range
            NUMERIC_P10.replace("10", "1_0", 1),  # int() would read 10
            NUMERIC_P10.replace("3", "\u0663", 1),  # Arabic-Indic digit three
            "+1,1,1",  # only a minus sign may lead
            "9" * 5000 + ",1,1",  # more digits than int() may convert
        ],
    )
    def test_bad_char(self, text):
        with pytest.raises(BadCharError):
            parse_code(text)

    @pytest.mark.parametrize(
        "text",
        [
            "aaa",  # pairs -1 with itself
            "-1,1,1",  # same self-pairing, numeric form
            "AABBAB",  # first block repeats A: not a permutation
            "ABAABA",  # second block repeats A
        ],
    )
    def test_not_involution(self, text):
        with pytest.raises(NotInvolutionError):
            parse_code(text)

    @pytest.mark.parametrize(
        "text, block",
        [
            ("AABBAB", 1),  # repeated entry
            ("ABAABA", 2),
            ("ABbaBA", 2),  # negative entries
            ("1,2,2,1,-1,2", 3),
        ],
    )
    def test_involution_errors_name_the_block(self, text, block):
        with pytest.raises(NotInvolutionError, match="^block %d " % block):
            parse_code(text)


class TestEmit:
    def test_identity_round_trip_on_bundled_codes(self):
        for code in ALL_BUNDLED_CODES:
            g = parse_code(code)
            assert emit_code(g, identity_labeling(g.order)) == code

    def test_identity_labeling_layout(self):
        assert identity_labeling(4) == (-1, -2, 1, 2)

    @pytest.mark.parametrize("order", [3, 0, -2])
    def test_identity_labeling_needs_a_positive_even_order(self, order):
        with pytest.raises(ValueError, match="positive even integer"):
            identity_labeling(order)

    def test_numpy_integer_labels(self):
        # labels are read through __index__, as relabeled reads its permutation
        numpy = pytest.importorskip("numpy")
        for code in ALL_BUNDLED_CODES:
            g = parse_code(code)
            labels = [numpy.int64(x) for x in identity_labeling(g.order)]
            assert emit_code(g, labels) == code

    def test_relabeled_emission_is_isomorphic_not_equal(self):
        code = ALL_BUNDLED_CODES[-1]
        g = parse_code(code)
        p = g.order // 2
        labels = list(identity_labeling(g.order))
        # exchange the two vertex pairs labeled 1 and 2, keeping 0-pairing
        labels[0], labels[1] = -2, -1
        labels[p], labels[p + 1] = 2, 1
        other = emit_code(g, labels)
        assert other != code
        h = parse_code(other)
        assert are_isomorphic(g, h)
        assert canonical_code(g) == canonical_code(h)

    def test_small_numeric_code_emits_letters(self):
        # parse_code reads the numeric form at any size; emission writes
        # letters whenever they suffice
        g = parse_code("1,1,1")
        assert g == parse_code("AAA")
        assert emit_code(g, identity_labeling(2)) == "AAA"

    @pytest.mark.parametrize("p", [MAX_LETTER_PAIRS, MAX_LETTER_PAIRS + 1])
    def test_letter_limit(self, p):
        # letters up to MAX_LETTER_PAIRS vertex pairs, numbers above
        g = ColoredGraph.from_blocks([list(range(1, p + 1))] * 3)
        code = emit_code(g, identity_labeling(g.order))
        entries = list(range(1, p + 1)) * 3
        if p <= MAX_LETTER_PAIRS:
            assert code == "".join(chr(ord("A") + j - 1) for j in entries)
        else:
            assert code == ",".join(map(str, entries))
        assert parse_code(code) == g

    def test_emission_takes_only_a_graph_and_a_labeling(self):
        # no switch forces one form
        assert list(inspect.signature(emit_code).parameters) == ["g", "labels"]
        assert list(inspect.signature(_serialize_entries).parameters) == ["entries"]

    def test_numeric_emission_of_a_disconnected_graph(self):
        from gemkit import VoltageAssignment, derived_graph

        base = parse_code("AAA")
        big, _ = derived_graph(VoltageAssignment(base, 27, [[0] * 4] * 2))
        assert big.order == 54 and not is_connected(big)
        # emission only needs bipartiteness
        labels = list(identity_labeling(big.order))
        code = emit_code(big, labels)
        assert "," in code
        assert parse_code(code) == big
        # a bad labeling is still reported at this size
        labels[0] = labels[1]
        with pytest.raises(InvalidLabelingError):
            emit_code(big, labels)

    def test_numeric_round_trip_large_order(self):
        # above 26 vertex pairs only the numeric form exists
        from gemkit import derived_graph, find_admissible_cyclic_coverings

        base = parse_code(ALL_BUNDLED_CODES[-1])
        va = find_admissible_cyclic_coverings(base, 5, limit=1)[0]
        big, _ = derived_graph(va)
        assert big.order == 60
        code = canonical_code(big)
        assert "," in code
        again = parse_code(code)
        assert canonical_code(again) == code


class TestEmitErrors:
    def setup_method(self):
        self.g = parse_code("BAABBA")
        self.identity = identity_labeling(4)

    @pytest.mark.parametrize("labels", [(-1, -2, 1, 2), (-1, -1, 1, 2)])
    def test_non_bipartite_graph_has_no_code(self, labels):
        # reported before anything is wrong with the labeling
        with pytest.raises(NotBipartiteError):
            emit_code(ColoredGraph(NON_BIPARTITE_INVS), labels)

    def test_wrong_length(self):
        with pytest.raises(InvalidLabelingError):
            emit_code(self.g, (-1, 1))

    @pytest.mark.parametrize(
        "labels",
        [
            (-1, -2, 1, 3),  # 3 out of range for p=2
            (-1, -2, 1, 0),  # zero is not a label
            (-1, -1, 1, 2),  # -1 used twice
            (-1, -2, 1, 1),  # +1 used twice
            (-1, -2, 1, 2.0),  # not an integer
        ],
    )
    def test_not_a_bijection(self, labels):
        with pytest.raises(InvalidLabelingError):
            emit_code(self.g, labels)

    def test_negative_labels_must_share_a_class(self):
        with pytest.raises(InvalidLabelingError):
            emit_code(self.g, (-1, 2, -2, 1))

    def test_zero_pairing_enforced(self):
        # negatives untouched but +1/+2 exchanged: -1's partner is now +2
        with pytest.raises(InvalidLabelingError):
            emit_code(self.g, (-1, -2, 2, 1))


class TestCanonicalCodeRequirements:
    def test_disconnected_rejected(self):
        with pytest.raises(NotConnectedError):
            canonical_code(parse_code("ABABAB"))

    def test_non_bipartite_rejected(self):
        with pytest.raises(NotBipartiteError):
            canonical_code(ColoredGraph(NON_BIPARTITE_INVS))


def component_roots(g):
    """Each vertex's component, named by a vertex of it (depth-first)."""
    root = [-1] * g.order
    for r in range(g.order):
        if root[r] < 0:
            root[r] = r
            stack = [r]
            while stack:
                v = stack.pop()
                for m in g.inv:
                    if root[m[v]] < 0:
                        root[m[v]] = r
                        stack.append(m[v])
    return root


def random_emit_graph(rng, p, split):
    """A bipartite order-2p graph with scrambled vertices; with ``split`` it
    is the disjoint union of two graphs of ``split`` and ``p - split`` pairs."""
    blocks = [[], [], []]
    for offset, size in ((0, split), (split, p - split)):
        for block in blocks:
            part = list(range(offset + 1, offset + size + 1))
            rng.shuffle(part)
            block += part
    g = ColoredGraph.from_blocks(blocks)
    return relabeled(g, random_vertex_permutation(rng, g.order))


def random_valid_labeling(rng, g):
    """Random names for the color-0 pairs; each component independently
    chooses which bipartition class carries the negative labels."""
    side = bipartition(g)
    root = component_roots(g)
    negative_side = {r: rng.randrange(2) for r in set(root)}
    p = g.order // 2
    names = iter(rng.sample(range(1, p + 1), p))
    labels = [0] * g.order
    for v in range(g.order):
        if side[v] == negative_side[root[v]]:
            i = next(names)
            labels[v] = -i
            labels[g.inv[0][v]] = i
    return labels


def broken_labelings(rng, labels):
    """Invalid variants of a valid labeling: a zero, a label out of range, a
    repeated negative or positive label, and a color-0 mismatch."""
    p = len(labels) // 2
    out = []
    k = rng.randrange(len(labels))
    out.append(labels[:k] + [0] + labels[k + 1 :])
    out.append(labels[:k] + [rng.choice((-1, 1)) * (p + 1)] + labels[k + 1 :])
    if p >= 2:
        for sign in (-1, 1):
            a, b = rng.sample([v for v, lab in enumerate(labels) if lab * sign > 0], 2)
            repeated = list(labels)
            repeated[b] = labels[a]
            out.append(repeated)
        a, b = rng.sample([v for v, lab in enumerate(labels) if lab > 0], 2)
        mismatched = list(labels)
        mismatched[a], mismatched[b] = labels[b], labels[a]
        out.append(mismatched)
    return out


def emit_outcome(emit, g, labels):
    """The code, or the class of the error raised."""
    try:
        return emit(g, labels)
    except GemError as exc:
        return type(exc)


class TestEmitOracle:
    """emit_code against the former rule-by-rule emitter."""

    def test_agrees_with_reference(self):
        rng = random.Random(2024)
        differ = 0
        for trial in range(1500):
            p = rng.randint(1, 8)
            split = rng.randint(1, p - 1) if p >= 2 and trial % 2 else p
            g = random_emit_graph(rng, p, split)
            connected = is_connected(g)
            valid = random_valid_labeling(rng, g)
            for labels in [valid] + broken_labelings(rng, valid):
                ref = emit_outcome(reference_emit_code, g, labels)
                new = emit_outcome(emit_code, g, labels)
                if labels is valid:
                    assert isinstance(new, str)
                if isinstance(new, str):
                    perm = [-lab - 1 if lab < 0 else p + lab - 1 for lab in labels]
                    assert parse_code(new) == relabeled(g, perm)
                if new != ref:
                    assert not connected
                    assert ref is InvalidLabelingError
                    differ += 1
        # disconnected graphs whose components swap classes do occur
        assert differ > 0

    def test_disconnected_class_swap_accepted(self):
        g = parse_code("ABABAB")
        labels = [-1, 2, 1, -2]
        with pytest.raises(InvalidLabelingError):
            reference_emit_code(g, labels)
        code = emit_code(g, labels)
        assert code == "ABABAB"
        assert parse_code(code) == relabeled(g, [0, 3, 2, 1])
