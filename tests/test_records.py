"""Value semantics of the four immutable records: equality, hashing,
immutability, repr, construction and validation messages."""

import copy
import pickle

import pytest

from orbit_entropy.dynkin import Diagram
from orbit_entropy.oracle import OrbitStabilizerReport
from orbit_entropy.report import IdentityReport
from orbit_entropy.symplectic import FlagType

ORBIT_FIELDS = dict(
    orbit_size=15,
    stabilizer_size=48,
    group_size=720,
    expected_orbit=15,
    expected_stabilizer=48,
    expected_group=720,
)

# (record, an equal record built separately, an unequal record, its repr)
CASES = [
    (Diagram("A", 5), Diagram(family="A", rank=5), Diagram("B", 5),
     "Diagram(family='A', rank=5)"),
    (FlagType((1, 2), 3, 2), FlagType([1, 2], n=3, q=2), FlagType((2, 1), 3, 2),
     "FlagType(increments=(1, 2), n=3, q=2)"),
    (IdentityReport(6, 6), IdentityReport(lhs=6, rhs=6), IdentityReport(6, 7),
     "IdentityReport(lhs=6, rhs=6)"),
    (
        OrbitStabilizerReport(**ORBIT_FIELDS),
        OrbitStabilizerReport(*ORBIT_FIELDS.values()),
        OrbitStabilizerReport(**{**ORBIT_FIELDS, "orbit_size": 14}),
        "OrbitStabilizerReport(orbit_size=15, stabilizer_size=48, group_size=720, "
        "expected_orbit=15, expected_stabilizer=48, expected_group=720)",
    ),
]
IDS = [type(c[0]).__name__ for c in CASES]


@pytest.mark.parametrize("record,equal,unequal,text", CASES, ids=IDS)
def test_equality_and_hash(record, equal, unequal, text):
    assert record == equal and not record != equal
    assert hash(record) == hash(equal)
    assert record != unequal and not record == unequal
    assert len({record, equal, unequal}) == 2
    assert record != text


@pytest.mark.parametrize("record,equal,unequal,text", CASES, ids=IDS)
def test_repr(record, equal, unequal, text):
    assert repr(record) == text


@pytest.mark.parametrize("record,equal,unequal,text", CASES, ids=IDS)
def test_assignment_raises(record, equal, unequal, text):
    field = text[text.index("(") + 1:text.index("=")]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) == before


@pytest.mark.parametrize("record,equal,unequal,text", CASES, ids=IDS)
def test_copy_and_pickle_keep_the_value(record, equal, unequal, text):
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_fields_are_readable_by_name():
    d = Diagram(rank=3, family="D")
    assert (d.family, d.rank) == ("D", 3)
    r = OrbitStabilizerReport(**ORBIT_FIELDS)
    assert r.expected_group == 720 and r.holds
    assert not OrbitStabilizerReport(**{**ORBIT_FIELDS, "group_size": 1,
                                        "expected_group": 1}).holds
    report = IdentityReport(lhs=10, rhs=7)
    assert (report.lhs, report.rhs, report.residual, report.holds) == (10, 7, 3, False)


def test_flag_type_coerces_increments_to_an_int_tuple():
    ft = FlagType([1, 2], 3, 2)
    assert ft.increments == (1, 2)
    assert type(ft.increments) is tuple
    assert FlagType(iter([True, 2.0]), 3, 2).increments == (1, 2)
    assert all(type(m) is int for m in FlagType([True, 2.0], 3, 2).increments)
    assert FlagType([1, 2], 3, 2) == FlagType((1, 2), 3, 2)


@pytest.mark.parametrize(
    "args,message",
    [
        (("X", 3), "unknown family 'X'"),
        (("A", 0), "rank must be at least 1"),
        (("X", 0), "unknown family 'X'"),
        (("D", 1), "family D requires rank >= 2"),
        (("D", 0), "rank must be at least 1"),
    ],
)
def test_diagram_messages(args, message):
    with pytest.raises(ValueError) as exc:
        Diagram(*args)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "args,message",
    [
        (((1,), 2, 1), "field size q must be at least 2"),
        (((1,), 0, 2), "half-dimension n must be positive"),
        (((0, 1), 2, 2), "flag increments must be positive"),
        (((-1,), 2, 2), "flag increments must be positive"),
        (((2, 1), 2, 2), "total isotropic dimension cannot exceed n"),
        # the field size is checked first, then n, then the increments
        (((0,), 0, 1), "field size q must be at least 2"),
        (((0,), 0, 2), "half-dimension n must be positive"),
        (((0, 5), 2, 2), "flag increments must be positive"),
    ],
)
def test_flag_type_messages(args, message):
    with pytest.raises(ValueError) as exc:
        FlagType(*args)
    assert str(exc.value) == message


def test_flag_type_rejects_non_integer_increments():
    with pytest.raises(ValueError):
        FlagType(("a",), 2, 2)
    with pytest.raises(TypeError):
        FlagType(None, 2, 2)
