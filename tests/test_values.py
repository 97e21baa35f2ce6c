"""The value classes' contract: equality, hash, repr, immutability, pickle
and copy; and the CLI's start-up, which imports no class-building
machinery."""

import copy
import os
import pickle
import subprocess
import sys

import pytest

from gemkit import (
    BicoloredCycle,
    BoundaryProfile,
    ComplexityBounds,
    HomologyGroup,
    Residue,
    SurfaceType,
    parse_code,
)
from gemkit.census import RowCheck, Table1Report

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

GRAPH = parse_code("AAA")
TORUS = SurfaceType(True, 0)
ROW = RowCheck("14^2_1", ())

# (make, the same value built again, a value differing in one field, its repr)
CASES = {
    "BicoloredCycle": (
        lambda: BicoloredCycle((0, 1), (0, 1)),
        lambda: BicoloredCycle((0, 2), (0, 1)),
        "BicoloredCycle(colors=(0, 1), vertices=(0, 1))",
    ),
    "Residue": (
        lambda: Residue(GRAPH, 3, (0, 1)),
        lambda: Residue(GRAPH, 2, (0, 1)),
        "Residue(graph=ColoredGraph(order=2), missing_color=3, vertices=(0, 1))",
    ),
    "SurfaceType": (
        lambda: SurfaceType(True, 0),
        lambda: SurfaceType(False, 0),
        "SurfaceType(orientable=True, euler=0)",
    ),
    "BoundaryProfile": (
        lambda: BoundaryProfile((TORUS, TORUS)),
        lambda: BoundaryProfile((TORUS,)),
        "BoundaryProfile(components=(SurfaceType(orientable=True, euler=0),"
        " SurfaceType(orientable=True, euler=0)))",
    ),
    "HomologyGroup": (
        lambda: HomologyGroup(2, (2,)),
        lambda: HomologyGroup(2, (3,)),
        "HomologyGroup(rank=2, torsion=(2,))",
    ),
    "ComplexityBounds": (
        lambda: ComplexityBounds(10, 12),
        lambda: ComplexityBounds(10, 13),
        "ComplexityBounds(lower=10, upper=12)",
    ),
    "RowCheck": (
        lambda: RowCheck("14^2_1", ("not connected",)),
        lambda: RowCheck("14^2_1", ()),
        "RowCheck(name='14^2_1', problems=('not connected',))",
    ),
    "Table1Report": (
        lambda: Table1Report((ROW,), True),
        lambda: Table1Report((ROW,), False),
        "Table1Report(rows=(RowCheck(name='14^2_1', problems=()),),"
        " distinct_canonical=True)",
    ),
}

NAMES = sorted(CASES)

# the public fields, in constructor order
FIELDS = {
    "BicoloredCycle": ("colors", "vertices"),
    "Residue": ("graph", "missing_color", "vertices"),
    "SurfaceType": ("orientable", "euler"),
    "BoundaryProfile": ("components",),
    "HomologyGroup": ("rank", "torsion"),
    "ComplexityBounds": ("lower", "upper"),
    "RowCheck": ("name", "problems"),
    "Table1Report": ("rows", "distinct_canonical"),
}


# each value class with a sequence field, built from lists: it stores
# tuples, so it equals and hashes like the tuple-built value of CASES
FROM_LISTS = {
    "BicoloredCycle": lambda: BicoloredCycle([0, 1], [0, 1]),
    "Residue": lambda: Residue(GRAPH, 3, [0, 1]),
    "BoundaryProfile": lambda: BoundaryProfile([TORUS, TORUS]),
    "RowCheck": lambda: RowCheck("14^2_1", ["not connected"]),
    "Table1Report": lambda: Table1Report([ROW], True),
}


@pytest.mark.parametrize("name", NAMES)
def test_equal_values_are_equal_and_hash_alike(name):
    make, _, _ = CASES[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", NAMES)
def test_another_field_or_class_is_unequal(name):
    make, other, _ = CASES[name]
    a = make()
    assert a != other() and not a == other()
    # another class, even one holding the same fields, is never equal
    fields = tuple(getattr(a, f) for f in FIELDS[name])
    assert a.__eq__(fields) is NotImplemented
    assert a != fields
    for other_name in NAMES:
        if other_name != name:
            assert a != CASES[other_name][0]()


@pytest.mark.parametrize("name", sorted(FROM_LISTS))
def test_sequence_fields_given_as_lists_are_stored_as_tuples(name):
    a, b = FROM_LISTS[name](), CASES[name][0]()
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert not any(isinstance(getattr(a, f), list) for f in FIELDS[name])


@pytest.mark.parametrize("name", NAMES)
def test_repr(name):
    make, _, want = CASES[name]
    assert repr(make()) == want


@pytest.mark.parametrize("name", NAMES)
def test_fields_are_read_only(name):
    a = CASES[name][0]()
    for field in FIELDS[name]:
        value = getattr(a, field)
        with pytest.raises(AttributeError):
            setattr(a, field, value)
        with pytest.raises(AttributeError):
            delattr(a, field)
        assert getattr(a, field) is value
    with pytest.raises(AttributeError):
        a.extra = 1


@pytest.mark.parametrize("name", NAMES)
def test_pickle_and_copy_give_equal_objects(name):
    a = CASES[name][0]()
    for b in (
        pickle.loads(pickle.dumps(a)),
        copy.copy(a),
        copy.deepcopy(a),
    ):
        assert type(b) is type(a) and b == a and repr(b) == repr(a)


def test_constructors_keep_their_checks_and_defaults():
    assert HomologyGroup(3) == HomologyGroup(3, ())
    assert HomologyGroup(1, [2, 4]).torsion == (2, 4)
    with pytest.raises(ValueError, match="divisibility chain"):
        HomologyGroup(0, (2, 3))
    with pytest.raises(ValueError, match="non-negative"):
        HomologyGroup(-1)
    with pytest.raises(TypeError):
        HomologyGroup(1.0)
    with pytest.raises(ValueError, match="even Euler"):
        SurfaceType(True, 1)
    with pytest.raises(ValueError, match="> 2"):
        SurfaceType(False, 3)
    # a truthy "no" would make a torus; 1 would print as orientable=1
    for orientable in ("no", 1, 0, None):
        with pytest.raises(TypeError, match="True or False"):
            SurfaceType(orientable, 0)
    # a row passes exactly when it has no problems
    assert RowCheck("14^2_1", ()).ok
    assert not RowCheck("14^2_1", ("not connected",)).ok


def test_cli_start_up_imports_no_class_machinery():
    # modules that site loads before the snippet runs do not count
    snippet = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import gemkit.cli\n"
        "gemkit.cli.build_parser()\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", snippet], env=env, capture_output=True, text=True, check=True
    ).stdout
    added = set(out.split())
    assert "gemkit.cli" in added
    assert not added & {"dataclasses", "inspect"}
