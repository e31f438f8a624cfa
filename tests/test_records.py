"""Value semantics of the seven immutable values on the one Record base:
equality, hashing, immutability, repr, copy and pickle, construction and
validation messages."""

import copy
import importlib
import inspect
import math
import pickle
import pkgutil
from fractions import Fraction

import pytest

import orbit_entropy
from orbit_entropy.dynkin import Diagram, remove_nodes
from orbit_entropy.entropy import CoarseMap, ProbVec, conditional, pushforward
from orbit_entropy.exact import IntPolynomial, Record, cyclotomic_product
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

# (value, an equal value built separately, an unequal value, its repr, the
# name of a field)
CASES = [
    (Diagram("A", 5), Diagram(family="A", rank=5), Diagram("B", 5),
     "Diagram(family='A', rank=5)", "family"),
    (FlagType((1, 2), 3, 2), FlagType([1, 2], n=3, q=2), FlagType((2, 1), 3, 2),
     "FlagType(increments=(1, 2), n=3, q=2)", "increments"),
    (IdentityReport(6, 6), IdentityReport(lhs=6, rhs=6), IdentityReport(6, 7),
     "IdentityReport(lhs=6, rhs=6)", "lhs"),
    (
        OrbitStabilizerReport(**ORBIT_FIELDS),
        OrbitStabilizerReport(*ORBIT_FIELDS.values()),
        OrbitStabilizerReport(**{**ORBIT_FIELDS, "orbit_size": 14}),
        "OrbitStabilizerReport(orbit_size=15, stabilizer_size=48, group_size=720, "
        "expected_orbit=15, expected_stabilizer=48, expected_group=720)",
        "orbit_size",
    ),
    (ProbVec(("1/2", "1/4", "1/4")), ProbVec([Fraction(1, 2), "1/4", Fraction(2, 8)]),
     ProbVec(("1/4", "1/4", "1/2")), "ProbVec(1/2, 1/4, 1/4)", "probs"),
    (CoarseMap((2, 1)), CoarseMap([2, 1]), CoarseMap((1, 2)),
     "CoarseMap((2, 1))", "blocks"),
    (IntPolynomial((1, 2, 1)), IntPolynomial([1, 2, 1, 0, 0]), IntPolynomial((1, 2)),
     "IntPolynomial((1, 2, 1))", "coeffs"),
]
IDS = [type(c[0]).__name__ for c in CASES]
PARAMS = "record,equal,unequal,text,field"


@pytest.mark.parametrize(PARAMS, CASES, ids=IDS)
def test_equality_and_hash(record, equal, unequal, text, field):
    assert record == equal and not record != equal
    assert hash(record) == hash(equal)
    assert record != unequal and not record == unequal
    assert len({record, equal, unequal}) == 2
    assert record != text


@pytest.mark.parametrize(PARAMS, CASES, ids=IDS)
def test_repr(record, equal, unequal, text, field):
    assert repr(record) == text


@pytest.mark.parametrize(PARAMS, CASES, ids=IDS)
def test_assignment_raises(record, equal, unequal, text, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) == before


@pytest.mark.parametrize(PARAMS, CASES, ids=IDS)
def test_copy_and_pickle_keep_the_value(record, equal, unequal, text, field):
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


# the records that only store their fields: one value built by position,
# by name and both ways (copy and pickle are in CASES)
FIELD_ONLY_CASES = [
    (IdentityReport(6, 7), IdentityReport(rhs=7, lhs=6), IdentityReport(6, rhs=7)),
    (
        OrbitStabilizerReport(*ORBIT_FIELDS.values()),
        OrbitStabilizerReport(**ORBIT_FIELDS),
        OrbitStabilizerReport(15, 48, 720, expected_group=720, expected_orbit=15,
                              expected_stabilizer=48),
    ),
]
FIELD_ONLY_IDS = ["IdentityReport", "OrbitStabilizerReport"]


@pytest.mark.parametrize("positional,named,mixed", FIELD_ONLY_CASES, ids=FIELD_ONLY_IDS)
def test_field_only_records_take_fields_by_position_or_name(positional, named, mixed):
    assert positional == named == mixed


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: IdentityReport(6), id="IdentityReport-too-few"),
        pytest.param(lambda: IdentityReport(rhs=7), id="IdentityReport-too-few-named"),
        pytest.param(lambda: IdentityReport(), id="IdentityReport-none"),
        pytest.param(lambda: IdentityReport(6, 7, 8), id="IdentityReport-too-many"),
        pytest.param(lambda: IdentityReport(6, 7, sign=1), id="IdentityReport-unknown"),
        pytest.param(lambda: IdentityReport(6, rhs=7, lhs=6),
                     id="IdentityReport-duplicate"),
        pytest.param(lambda: OrbitStabilizerReport(*list(ORBIT_FIELDS.values())[:5]),
                     id="OrbitStabilizerReport-too-few"),
        pytest.param(lambda: OrbitStabilizerReport(*ORBIT_FIELDS.values(), 720),
                     id="OrbitStabilizerReport-too-many"),
        pytest.param(lambda: OrbitStabilizerReport(**ORBIT_FIELDS, holds=True),
                     id="OrbitStabilizerReport-unknown"),
        pytest.param(lambda: OrbitStabilizerReport(15, **ORBIT_FIELDS),
                     id="OrbitStabilizerReport-duplicate"),
    ],
)
def test_field_only_records_reject_bad_arguments(build):
    with pytest.raises(TypeError):
        build()


def test_int_polynomial_strips_trailing_zeros_before_comparing():
    assert IntPolynomial((1, 2, 0)) == IntPolynomial((1, 2))
    assert hash(IntPolynomial((1, 2, 0))) == hash(IntPolynomial((1, 2)))


def test_every_slotted_class_is_a_record():
    # one value idiom: a class that declares fields in __slots__ gets its
    # immutability, equality, hash and pickling from Record
    slotted = []
    for info in pkgutil.iter_modules(orbit_entropy.__path__):
        module = importlib.import_module(f"orbit_entropy.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and cls.__dict__.get("__slots__"):
                slotted.append(cls)
                assert issubclass(cls, Record), cls.__qualname__
    assert {cls.__name__ for cls in slotted} >= set(IDS)


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


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: CoarseMap((2.7, 1)), "block sizes must be integers"),
        (lambda: CoarseMap((Fraction(5, 2), 1)), "block sizes must be integers"),
        (lambda: FlagType([1.9], 3, 2), "flag increments must be integers"),
        (lambda: remove_nodes(Diagram("A", 3), [1.5]), "removed nodes must be integers"),
    ],
    ids=("CoarseMap-float", "CoarseMap-Fraction", "FlagType-float", "remove_nodes-float"),
)
def test_non_integral_sizes_are_rejected(build, message):
    # int() would truncate these to (2, 1), (1,) and a cut at node 1
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_integral_sizes_of_other_types_coerce():
    assert CoarseMap((True, 2.0, Fraction(3))).blocks == (1, 2, 3)
    assert all(type(b) is int for b in CoarseMap((True, 2.0)).blocks)
    assert remove_nodes(Diagram("A", 3), [2.0]) == remove_nodes(Diagram("A", 3), [2])


# scalar sizes and field sizes follow the rule of the sequences: the gate
# each already passes takes True and 2.0 as ints and rejects 2.5.  The
# table's last rows check the other input rules: sizes out of range and a
# coarse map of the wrong size.
HALF = ProbVec(("1/2", "1/2"))


@pytest.mark.parametrize(
    "build,message",
    [
        # a non-integral q has one message, whichever entry point refuses
        # it; the rows whose message changed keep their earlier ids
        pytest.param(lambda: orbit_entropy.sp_order(2, 2.5), "field size q must be an integer",
                     id="<lambda>-sizes and q must be integers0"),
        pytest.param(lambda: orbit_entropy.sp_order(1.5, 2), "sizes must be integers",
                     id="<lambda>-sizes and q must be integers1"),
        pytest.param(lambda: orbit_entropy.gl_order(2, 2.5), "field size q must be an integer",
                     id="<lambda>-sizes and q must be integers2"),
        pytest.param(lambda: orbit_entropy.unipotent_radical_order(1, 2, 2.5), "field size q must be an integer",
                     id="<lambda>-sizes and q must be integers3"),
        pytest.param(lambda: orbit_entropy.ig_count(1, 2, 2.5), "field size q must be an integer",
                     id="<lambda>-sizes and q must be integers4"),
        pytest.param(lambda: FlagType((1,), 2, 2.5), "field size q must be an integer",
                     id="<lambda>-sizes and q must be integers5"),
        pytest.param(lambda: FlagType((1,), 2.5, 2), "sizes must be integers",
                     id="<lambda>-sizes and q must be integers6"),
        pytest.param(lambda: orbit_entropy.sp_quotient_closed(4, HALF, 2.5), "field size q must be an integer",
                     id="<lambda>-sizes and q must be integers7"),
        (lambda: orbit_entropy.q_multinomial(4, (2.5, 1.5), 2), "parts must be integers"),
        pytest.param(lambda: orbit_entropy.q_multinomial(4, (2, 2), 2.5), "field size q must be an integer",
                     id="<lambda>-field sizes must be integers"),
        (lambda: orbit_entropy.multinomial(4, (2.5, 1.5)), "parts must be integers"),
        pytest.param(lambda: orbit_entropy.q_factorial(2, 2.5), "field size q must be an integer",
                     id="<lambda>-k and q must be integers"),
        (lambda: Diagram("B", 2.5), "ranks must be integers"),
        (lambda: orbit_entropy.group_order("A", 2.5), "ranks must be integers"),
        (lambda: orbit_entropy.poincare_quotient("A", 3, [("A", 1.5)]),
         "ranks must be integers"),
        (lambda: orbit_entropy.orbit_count("B", 4.5, HALF), "lengths must be integers"),
        (lambda: HALF.scaled_counts(Fraction(9, 2)), "lengths must be integers"),
        (lambda: pushforward(HALF, CoarseMap((1, 2))),
         "coarse map covers 3 entries, vector has 2"),
        (lambda: conditional(HALF, CoarseMap((1, 2)), 1),
         "coarse map covers 3 entries, vector has 2"),
        (lambda: orbit_entropy.q_factorial(-1, 2), "q_factorial requires k >= 0"),
        (lambda: orbit_entropy.q_factorial(2, 1), "field size q must be at least 2"),
        (lambda: orbit_entropy.gl_order(-1, 2), "m must be nonnegative"),
        (lambda: orbit_entropy.sp_order(-1, 2), "n must be nonnegative"),
        (lambda: orbit_entropy.unipotent_radical_order(3, 2, 2), "need 0 <= s <= n"),
        # each rule has one message, whichever entry point states it; the
        # oracle's rows in test_oracle's test_oracle_rejects_fractional_scalars
        # take the same inputs.  Named ids keep the ids above unique.
        pytest.param(lambda: orbit_entropy.ig_count(3, 2, 2), "need 0 <= s <= n",
                     id="ig_count-s-above-n"),
        pytest.param(lambda: FlagType((1, 0), 2, 2), "flag increments must be positive",
                     id="FlagType-zero-increment"),
        pytest.param(lambda: cyclotomic_product([0, 1], 1),
                     "field size q must be at least 2", id="cyclotomic_product-q1"),
        pytest.param(lambda: orbit_entropy.q_multinomial(2, (1, 1), 1),
                     "field size q must be at least 2", id="q_multinomial-q1"),
        pytest.param(lambda: orbit_entropy.gl_order(2, 1),
                     "field size q must be at least 2", id="gl_order-q1"),
        pytest.param(lambda: orbit_entropy.sp_order(2, 1),
                     "field size q must be at least 2", id="sp_order-q1"),
        pytest.param(lambda: FlagType((1,), 2, 1),
                     "field size q must be at least 2", id="FlagType-q1"),
        # ±inf and NaN are no integers either, and no probabilities
        pytest.param(lambda: orbit_entropy.ig_count(1, 2, math.inf),
                     "field size q must be an integer", id="ig_count-q-inf"),
        pytest.param(lambda: orbit_entropy.sp_order(2, math.nan),
                     "field size q must be an integer", id="sp_order-q-nan"),
        pytest.param(lambda: orbit_entropy.q_multinomial(2, (1, 1), -math.inf),
                     "field size q must be an integer", id="q_multinomial-q-minus-inf"),
        pytest.param(lambda: CoarseMap([math.inf]), "block sizes must be integers",
                     id="CoarseMap-inf"),
        pytest.param(lambda: Diagram("A", math.inf), "ranks must be integers",
                     id="Diagram-inf"),
        pytest.param(lambda: HALF.scaled_counts(math.inf), "lengths must be integers",
                     id="scaled_counts-inf"),
        pytest.param(lambda: orbit_entropy.multinomial(2, [math.nan]), "parts must be integers",
                     id="multinomial-nan"),
        pytest.param(lambda: cyclotomic_product([0, -math.inf], 2),
                     "exponents must be integers", id="cyclotomic_product-exponent-minus-inf"),
        pytest.param(lambda: ProbVec([math.inf]), "probabilities must be finite numbers",
                     id="ProbVec-inf"),
        pytest.param(lambda: ProbVec([math.nan]), "probabilities must be finite numbers",
                     id="ProbVec-nan"),
    ],
)
def test_non_integral_scalars_are_rejected(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "call,want",
    [
        (lambda: orbit_entropy.sp_order(2.0, True + 1), orbit_entropy.sp_order(2, 2)),
        (lambda: orbit_entropy.gl_order(2, 2.0), 6),
        (lambda: orbit_entropy.unipotent_radical_order(1.0, 2, 2.0), 8),
        (lambda: orbit_entropy.ig_count(1, 2, 2.0), 15),
        (lambda: orbit_entropy.sp_quotient_closed(4.0, HALF, 2),
         orbit_entropy.sp_quotient_closed(4, HALF, 2)),
        (lambda: orbit_entropy.q_multinomial(4.0, (2.0, 2), 2.0), 35),
        (lambda: orbit_entropy.multinomial(4.0, (2, 2.0)), 6),
        (lambda: orbit_entropy.q_factorial(2.0, 2.0), 3),
        (lambda: orbit_entropy.group_order("A", 2.0), 6),
        (lambda: orbit_entropy.orbit_count("B", 4.0, HALF), 12),
        (lambda: HALF.scaled_counts(4.0), (2, 2)),
    ],
)
def test_integral_scalars_of_other_types_coerce(call, want):
    got = call()
    assert got == want
    assert all(type(v) is int for v in (got if isinstance(got, tuple) else (got,)))


def test_integral_scalar_fields_are_stored_as_ints():
    ft = FlagType((1,), 2.0, 2.0)
    assert (ft.n, ft.q) == (2, 2) and type(ft.n) is int and type(ft.q) is int
    assert orbit_entropy.isotropic_flag_count(ft) == 15
    d = Diagram("B", 2.0)
    assert d == Diagram("B", 2) and type(d.rank) is int
