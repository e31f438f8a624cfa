"""Distribution plumbing and the four entropy functionals, including the
exactness of the rational chain-rule residual."""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from orbit_entropy.entropy import (
    CoarseMap,
    ProbVec,
    conditional,
    pushforward,
    reflective,
    reflective_chain_residual,
    shannon,
    shannon_chain_residual,
    symplectic_chain_residual,
    symplectic_entropy,
    tsallis2,
)

HALF = ProbVec(("1/2", "1/2"))
SKEW = ProbVec(("1/2", "1/4", "1/4"))
POINT = ProbVec(("1",))


def test_probvec_accepts_fraction_strings():
    assert HALF.probs == (Fraction(1, 2), Fraction(1, 2))


def test_probvec_rejects_bad_vectors():
    with pytest.raises(ValueError):
        ProbVec(())
    with pytest.raises(ValueError):
        ProbVec(("1/2", "1/3"))
    with pytest.raises(ValueError):
        ProbVec(("1/2", "0", "1/2"))
    with pytest.raises(ValueError):
        ProbVec(("3/2", "-1/2"))


def test_probvec_denominator_is_lcm():
    assert ProbVec(("1/6", "1/3", "1/2")).denominator == 6
    assert POINT.denominator == 1


def test_scaled_counts():
    assert SKEW.scaled_counts(8) == (4, 2, 2)
    assert SKEW.scaled_counts(4) == (2, 1, 1)
    with pytest.raises(ValueError):
        SKEW.scaled_counts(2)
    with pytest.raises(ValueError):
        SKEW.scaled_counts(0)


def test_coarse_map_shape():
    cmap = CoarseMap((2, 1))
    assert cmap.m == 2
    assert cmap.domain_size == 3
    with pytest.raises(ValueError):
        CoarseMap((2, 0))
    with pytest.raises(ValueError):
        CoarseMap(())


def test_pushforward_values():
    assert pushforward(SKEW, CoarseMap((2, 1))).probs == (
        Fraction(3, 4),
        Fraction(1, 4),
    )
    assert pushforward(SKEW, CoarseMap((3,))).probs == (Fraction(1),)


def test_conditional_values():
    cmap = CoarseMap((2, 1))
    assert conditional(SKEW, cmap, 1).probs == (Fraction(2, 3), Fraction(1, 3))
    assert conditional(SKEW, cmap, 2).probs == (Fraction(1),)
    with pytest.raises(ValueError):
        conditional(SKEW, cmap, 3)
    with pytest.raises(ValueError):
        conditional(SKEW, cmap, 0)


def test_shannon_known_values():
    assert shannon(HALF) == pytest.approx(math.log(2), abs=1e-14)
    assert shannon(SKEW) == pytest.approx(1.5 * math.log(2), abs=1e-14)
    assert shannon(POINT) == 0.0


def test_shannon_uniform_is_log_k():
    for k in (2, 10, 100, 1000, 10000):
        uniform = ProbVec([Fraction(1, k)] * k)
        assert abs(shannon(uniform) - math.log(k)) < 1e-12


def test_tsallis2_exact():
    assert tsallis2(HALF) == Fraction(1, 2)
    assert tsallis2(SKEW) == Fraction(5, 8)
    assert tsallis2(POINT) == 0


def test_reflective_known_values():
    assert reflective(HALF) == pytest.approx(1.5 * math.log(2), abs=1e-14)
    assert reflective(POINT) == 0.0


def test_reflective_depends_on_last_entry():
    a = ProbVec(("1/4", "3/4"))
    b = ProbVec(("3/4", "1/4"))
    assert shannon(a) == pytest.approx(shannon(b), abs=1e-14)
    gap = reflective(b) - reflective(a)
    assert gap == pytest.approx(Fraction(1, 2) * math.log(2), abs=1e-12)


def test_symplectic_entropy_exact():
    assert symplectic_entropy(HALF) == Fraction(5, 8)
    assert symplectic_entropy(ProbVec(("1/3", "1/3", "1/3"))) == Fraction(7, 9)
    assert symplectic_entropy(SKEW) == Fraction(5, 16) + Fraction(1 - Fraction(1, 16), 2)
    assert symplectic_entropy(POINT) == 0


def test_chain_residuals_on_the_worked_example():
    cmap = CoarseMap((2, 1))
    assert abs(shannon_chain_residual(SKEW, cmap)) < 1e-12
    assert abs(reflective_chain_residual(SKEW, cmap)) < 1e-12
    assert symplectic_chain_residual(SKEW, cmap) == 0


def test_chain_residuals_match_the_pinned_grid():
    # 210 seeded (P, coarse map) pairs of 1 to 7 parts, with one-part blocks
    # and the one-block map among them, recorded before the three residuals
    # shared one body: the float residuals must agree bit for bit, the
    # signed zeros included, and the rational one exactly
    grid = Path(__file__).parent / "golden" / "entropy_chain_residuals.jsonl"
    rows = [json.loads(line) for line in grid.read_text().splitlines()]
    assert len(rows) == 210
    for row in rows:
        dist, cmap = ProbVec(row["dist"]), CoarseMap(row["blocks"])
        shannon_r = shannon_chain_residual(dist, cmap)
        reflective_r = reflective_chain_residual(dist, cmap)
        symplectic_r = symplectic_chain_residual(dist, cmap)
        assert type(shannon_r) is float and type(reflective_r) is float
        assert type(symplectic_r) is Fraction
        assert shannon_r.hex() == row["shannon"], row
        assert reflective_r.hex() == row["reflective"], row
        assert symplectic_r == Fraction(row["symplectic"]), row


@st.composite
def dist_and_map(draw):
    weights = draw(st.lists(st.integers(1, 12), min_size=1, max_size=6))
    total = sum(weights)
    dist = ProbVec(Fraction(w, total) for w in weights)
    k = len(weights)
    if k > 1:
        cuts = draw(st.sets(st.integers(1, k - 1), max_size=k - 1))
    else:
        cuts = set()
    bounds = [0, *sorted(cuts), k]
    return dist, CoarseMap(tuple(b - a for a, b in zip(bounds, bounds[1:])))


@given(dist_and_map())
@settings(max_examples=300)
def test_shannon_chain_residual_vanishes(case):
    dist, cmap = case
    assert abs(shannon_chain_residual(dist, cmap)) < 1e-10


@given(dist_and_map())
@settings(max_examples=300)
def test_reflective_chain_residual_vanishes(case):
    dist, cmap = case
    assert abs(reflective_chain_residual(dist, cmap)) < 1e-10


@given(dist_and_map())
@settings(max_examples=300)
def test_symplectic_chain_residual_is_exactly_zero(case):
    dist, cmap = case
    residual = symplectic_chain_residual(dist, cmap)
    assert isinstance(residual, Fraction)
    assert residual == 0


@given(dist_and_map())
def test_pushforward_total_mass(case):
    dist, cmap = case
    assert sum(pushforward(dist, cmap).probs) == 1


@given(dist_and_map())
def test_conditionals_reassemble_the_distribution(case):
    dist, cmap = case
    coarse = pushforward(dist, cmap)
    rebuilt = []
    for j in range(1, cmap.m + 1):
        rebuilt.extend(coarse.probs[j - 1] * p for p in conditional(dist, cmap, j).probs)
    assert tuple(rebuilt) == dist.probs


@given(dist_and_map())
def test_pushforward_respects_composition(case):
    # the one-block outer map after any inner map is the one-block map
    dist, inner = case
    direct = pushforward(dist, CoarseMap((len(dist),)))
    staged = pushforward(pushforward(dist, inner), CoarseMap((inner.m,)))
    assert direct.probs == staged.probs


@given(dist_and_map())
def test_reflective_dominates_shannon(case):
    dist, _ = case
    assert reflective(dist) >= shannon(dist) - 1e-15
    if dist.probs[-1] == 1:
        assert reflective(dist) == shannon(dist)


@given(dist_and_map())
def test_symplectic_dominates_half_tsallis(case):
    dist, _ = case
    assert symplectic_entropy(dist) >= tsallis2(dist) / 2
    if dist.probs[-1] == 1:
        assert symplectic_entropy(dist) == tsallis2(dist) / 2
