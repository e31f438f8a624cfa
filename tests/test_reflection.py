"""Orbit cardinalities under distribution-shaped stabilizers, their length
generating polynomials, and the coarse-graining identities."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from orbit_entropy import exact, reflection
from orbit_entropy.cli import _positive_compositions
from orbit_entropy.dynkin import flag_factors, group_order
from orbit_entropy.entropy import CoarseMap, ProbVec, reflective
from orbit_entropy.exact import IntPolynomial, exact_div, multinomial
from orbit_entropy.reflection import (
    _index,
    coarsening_cardinality_check,
    coarsening_poincare_check,
    normalized_log_orbit,
    orbit_count,
    orbit_poincare,
)

HALF = ProbVec(("1/2", "1/2"))
SKEW = ProbVec(("1/4", "1/4", "1/2"))


def test_orbit_count_known_values():
    assert orbit_count("A", 4, HALF) == 6
    assert orbit_count("B", 8, HALF) == 560
    assert orbit_count("B", 5, ProbVec(("1",))) == 1
    assert orbit_count("A", 1, ProbVec(("1",))) == 1


def test_chain_family_counts_are_multinomials():
    for n in (2, 6, 12, 24, 40):
        for dist in (HALF, SKEW, ProbVec(("1/6", "1/3", "1/2"))):
            if n % dist.denominator:
                continue
            counts = dist.scaled_counts(n)
            assert orbit_count("A", n, dist) == multinomial(n, counts)


def test_doubled_families_agree():
    for n in (4, 8, 12):
        assert orbit_count("B", n, HALF) == orbit_count("C", n, HALF)
        assert orbit_count("B", n, SKEW) == orbit_count("C", n, SKEW)


def test_fork_count_vs_doubled_count():
    # last scaled count 1: the fork group is half the size but the stabilizer
    # matches, so the orbit doubles; last scaled count >= 2: the stabilizer
    # also halves and the counts agree exactly
    for n in (4, 6, 8, 16):
        singles = ProbVec((Fraction(n - 1, n), Fraction(1, n)))
        assert orbit_count("B", n, singles) == 2 * orbit_count("D", n, singles)
    for n in (4, 8, 16):
        assert orbit_count("B", n, HALF) == orbit_count("D", n, HALF)
        assert orbit_count("B", n, SKEW) == orbit_count("D", n, SKEW)


def test_orbit_poincare_known_coefficients():
    assert orbit_poincare("A", 4, HALF).coeffs == (1, 1, 2, 1, 1)
    assert orbit_poincare("B", 5, ProbVec(("1",))) == IntPolynomial.one()


@st.composite
def family_and_distribution(draw):
    family = draw(st.sampled_from(("A", "B", "C", "D")))
    weights = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    d = sum(weights)
    mult = draw(st.integers(1, max(1, 24 // d)))
    n = d * mult
    dist = ProbVec(Fraction(w, d) for w in weights)
    return family, n, dist


@given(family_and_distribution())
@settings(max_examples=150, deadline=None)
def test_orbit_poincare_counts_orbit(case):
    family, n, dist = case
    poly = orbit_poincare(family, n, dist)
    assert poly(1) == orbit_count(family, n, dist)
    assert all(c >= 0 for c in poly.coeffs)


def test_normalized_log_orbit_values():
    assert normalized_log_orbit("B", 8, HALF) == pytest.approx(
        math.log(560) / 8, abs=1e-15
    )
    assert normalized_log_orbit("B", 6, ProbVec(("1",))) == 0.0


def test_normalized_log_orbit_error_shrinks():
    from orbit_entropy.entropy import reflective

    limit = reflective(HALF)
    errors = [
        abs(normalized_log_orbit("B", n, HALF) - limit) for n in (8, 16, 32, 64)
    ]
    assert errors == sorted(errors, reverse=True)


def test_coarsening_checks_on_worked_example():
    dist = ProbVec(("1/6", "2/6", "3/6"))
    cmap = CoarseMap((2, 1))
    card = coarsening_cardinality_check("A", 6, dist, cmap)
    assert card.holds
    assert card.lhs == 60
    poly = coarsening_poincare_check("A", 6, dist, cmap)
    assert poly.holds
    assert poly.lhs(1) == 60


@st.composite
def coarsening_case(draw):
    family, n, dist = draw(family_and_distribution())
    k = len(dist.probs)
    if k > 1:
        cuts = draw(st.sets(st.integers(1, k - 1), max_size=k - 1))
    else:
        cuts = set()
    bounds = [0, *sorted(cuts), k]
    cmap = CoarseMap(tuple(b - a for a, b in zip(bounds, bounds[1:])))
    return family, n, dist, cmap


@given(coarsening_case())
@settings(max_examples=150, deadline=None)
def test_coarsening_cardinality_identity(case):
    family, n, dist, cmap = case
    report = coarsening_cardinality_check(family, n, dist, cmap)
    assert report.holds, (family, n, dist.probs, cmap.blocks, report)


@given(coarsening_case())
@settings(max_examples=100, deadline=None)
def test_coarsening_poincare_identity(case):
    family, n, dist, cmap = case
    report = coarsening_poincare_check(family, n, dist, cmap)
    assert report.holds, (family, n, dist.probs, cmap.blocks)
    assert report.residual.is_zero


def test_orbit_count_rejects_non_integral_split():
    with pytest.raises(ValueError):
        orbit_count("B", 5, HALF)


@given(coarsening_case())
@example(("D", 8, ProbVec(("1/2", "1/4", "1/4")), CoarseMap((2, 1))))
@example(("D", 3, ProbVec(("1/3", "2/3")), CoarseMap((1, 1))))
@settings(max_examples=100, deadline=None)
def test_cardinality_is_the_poincare_grading_at_one(case):
    # |W/W_P| is the length generating function of W^P at t = 1, so the two
    # gradings of the coarsening identity carry the same values; the lhs of
    # each is the count the library prints, D with a last part of 2 included
    family, n, dist, cmap = case
    card = coarsening_cardinality_check(family, n, dist, cmap)
    poly = coarsening_poincare_check(family, n, dist, cmap)
    assert card.lhs == poly.lhs(1)
    assert card.rhs == poly.rhs(1)
    assert card.lhs == orbit_count(family, n, dist)
    assert poly.lhs == orbit_poincare(family, n, dist)


@pytest.mark.parametrize(
    "call",
    [
        lambda: orbit_count("E", 1, ProbVec(("1",))),
        lambda: orbit_poincare("Q", 1, ProbVec(("1",))),
        lambda: normalized_log_orbit("E", 1, ProbVec(("1",))),
        lambda: coarsening_cardinality_check("E", 1, ProbVec(("1",)), CoarseMap((1,))),
        lambda: coarsening_poincare_check("E", 1, ProbVec(("1",)), CoarseMap((1,))),
    ],
    ids=("count", "poincare", "log", "cardinality-check", "poincare-check"),
)
def test_unknown_family_is_refused_at_n_one(call):
    # the rank-0 group at n = 1 is trivial, whatever the family is called
    with pytest.raises(ValueError, match="unknown family"):
        call()


def _index_by_division(family, rank, factors):
    parabolic = math.prod(group_order(f, r) for f, r in factors)
    return exact_div(group_order(family, rank), parabolic)


@pytest.mark.parametrize("family", ("A", "B", "C", "D"))
def test_index_matches_the_division_on_flag_factors(family):
    # the factorial formula on the flag shape against the division of the
    # degree table's orders on flag_factors: every composition up to
    # n = 12, and every one into at most 4 parts up to n = 30 (all
    # compositions up to 30 would be 2^29 of them)
    for n in range(2, 31):
        for counts in _positive_compositions(n, n if n <= 12 else 4):
            assert _index(family, counts) == _index_by_division(
                family, n - 1, flag_factors(family, counts)
            ), (n, counts)


def test_index_rejects_bad_factor_lists():
    # the one input the shape formula validates itself; the counts come
    # checked from ProbVec.scaled_counts
    with pytest.raises(ValueError, match="unknown family 'E'"):
        _index("E", (3, 3))


# --- normalized_log_orbit from certified bounds -----------------------------

# distributions in the manner of the benchmark's small sweep, defined at
# every multiple of 12, and the one of its scalar-large converge op
SWEEP = tuple(
    ProbVec(d.split(","))
    for d in ("1/2,1/2", "1/3,2/3", "1/4,3/4", "1/4,1/4,1/2", "1/3,1/3,1/3",
              "1/6,1/3,1/2", "5/12,1/4,1/3")
)
LARGE = ProbVec(("1/8", "3/8", "1/2"))


def _spy_on_bounds(monkeypatch):
    # the results of exact._log_from_ln, one per count taken from bounds
    results = []
    log_from_ln = exact._log_from_ln

    def spy(*bounds):
        results.append(log_from_ln(*bounds))
        return results[-1]

    monkeypatch.setattr(exact, "_log_from_ln", spy)
    return results


@pytest.mark.parametrize(
    "family, n, dist",
    [(f, n, d) for f in "ABCD" for d in SWEEP for n in (48, 1536, 12288)]
    + [("B", n, d) for d in (LARGE, ProbVec(("3/8", "1/8", "1/2"))) for n in (4096, 16384, 65536)],
)
def test_normalized_log_orbit_from_bounds_is_the_exact_float(family, n, dist, monkeypatch):
    # n = 48 and 1536 give counts of at most 3,500 bits, n = 12288 of at
    # least 9,900: both sides of the crossover
    results = _spy_on_bounds(monkeypatch)
    value = normalized_log_orbit(family, n, dist)
    count = orbit_count(family, n, dist)
    assert value == math.log(count) / n
    if count.bit_length() > exact._LOG_BOUND_BITS + 64:
        assert results and None not in results
    elif count.bit_length() < exact._LOG_BOUND_BITS - 64:
        assert results == []


def test_normalized_log_orbit_builds_no_count_above_the_crossover(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the index was built")

    monkeypatch.setattr(reflection, "multinomial", forbidden)
    # the last count has 1.4 million bits: no Decimal may be built of it
    for n in (16384, 65536, 2**20):
        assert abs(normalized_log_orbit("B", n, LARGE) - reflective(LARGE)) < 1e-3


def test_normalized_log_orbit_falls_back_to_the_count_on_a_wide_bound(monkeypatch):
    results = _spy_on_bounds(monkeypatch)
    coarse = exact._LOG_CONTEXT.copy()
    coarse.prec = 12
    monkeypatch.setattr(exact, "_LOG_CONTEXT", coarse)
    value = normalized_log_orbit("B", 16384, LARGE)
    assert results == [None]
    assert value == math.log(orbit_count("B", 16384, LARGE)) / 16384


def _raised(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize(
    "n, dist",
    [(16385, LARGE), (16380, LARGE), (2.5, LARGE), (2**14, ProbVec(("1/3", "2/3")))],
)
def test_bad_input_raises_alike_on_both_sides_of_the_crossover(n, dist, monkeypatch):
    seen = {_raised(lambda: orbit_count("B", n, dist))}
    for bits in (0, math.inf):
        monkeypatch.setattr(exact, "_LOG_BOUND_BITS", bits)
        seen.add(_raised(lambda: normalized_log_orbit("B", n, dist)))
    assert len(seen) == 1


@pytest.mark.parametrize("n", (48, 16384))
def test_factors_that_do_not_fit_raise_alike_on_both_sides(n, monkeypatch):
    # a family with no degree table, below and above the crossover
    seen = {_raised(lambda: orbit_count("E", n, LARGE))}
    for bits in (0, math.inf):
        monkeypatch.setattr(exact, "_LOG_BOUND_BITS", bits)
        seen.add(_raised(lambda: normalized_log_orbit("E", n, LARGE)))
    assert seen == {(ValueError, "unknown family 'E'")}
