"""Diagram combinatorics: node removal, component typing, group orders,
and the length generating polynomials."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbit_entropy.cli import _positive_compositions
from orbit_entropy.dynkin import (
    Diagram,
    _bracket_quotient,
    flag_factors,
    group_order,
    parabolic_for_distribution,
    poincare_closed,
    poincare_parabolic,
    poincare_quotient,
    remove_nodes,
    surviving_components,
)
from orbit_entropy.entropy import ProbVec
from orbit_entropy.exact import InexactDivisionError, IntPolynomial


def test_group_order_table():
    for r in range(1, 9):
        assert group_order("A", r) == math.factorial(r + 1)
        assert group_order("B", r) == 2 ** r * math.factorial(r)
        assert group_order("C", r) == 2 ** r * math.factorial(r)
    for r in range(2, 9):
        assert group_order("D", r) == 2 ** (r - 1) * math.factorial(r)


def test_group_order_degenerate_rank_one_d():
    # rank-1 tail of the fork family collapses to the trivial group
    assert group_order("D", 1) == 1


def test_group_order_rejects_unknown_family():
    with pytest.raises(ValueError):
        group_order("E", 6)


def test_diagram_validation():
    with pytest.raises(ValueError):
        Diagram("X", 3)
    with pytest.raises(ValueError):
        Diagram("A", 0)
    with pytest.raises(ValueError):
        Diagram("D", 1)
    assert Diagram("D", 2).rank == 2


def test_chain_removals():
    assert remove_nodes(Diagram("A", 5), ()) == [("A", 5)]
    assert remove_nodes(Diagram("A", 5), (3,)) == [("A", 2), ("A", 2)]
    assert remove_nodes(Diagram("A", 5), (1, 5)) == [("A", 3)]
    assert remove_nodes(Diagram("A", 3), (1, 2, 3)) == []


def test_doubled_family_removals_keep_the_tail_family():
    assert remove_nodes(Diagram("B", 3), (1,)) == [("B", 2)]
    assert remove_nodes(Diagram("B", 3), (3,)) == [("A", 2)]
    assert remove_nodes(Diagram("B", 3), (2,)) == [("A", 1), ("B", 1)]
    assert remove_nodes(Diagram("C", 5), (2,)) == [("A", 1), ("C", 3)]
    assert remove_nodes(Diagram("B", 5), (2,)) == [("A", 1), ("B", 3)]


def test_fork_removals():
    # deleting one fork tip leaves a plain chain
    assert remove_nodes(Diagram("D", 4), (3,)) == [("A", 3)]
    assert remove_nodes(Diagram("D", 4), (4,)) == [("A", 3)]
    assert remove_nodes(Diagram("D", 4), (1,)) == [("D", 3)]
    assert remove_nodes(Diagram("D", 4), (2,)) == [("A", 1), ("A", 1), ("A", 1)]
    assert remove_nodes(Diagram("D", 5), (2,)) == [("A", 1), ("D", 3)]
    assert remove_nodes(Diagram("D", 5), (4,)) == [("A", 4)]


def test_rank_two_fork_is_edgeless():
    assert remove_nodes(Diagram("D", 2), ()) == [("A", 1), ("A", 1)]
    assert group_order("D", 2) == 4


def test_surviving_components_report_node_sets():
    comps = surviving_components(Diagram("D", 4), (2,))
    assert comps == [((1,), "A"), ((3,), "A"), ((4,), "A")]
    comps = surviving_components(Diagram("B", 5), (2,))
    assert comps == [((1,), "A"), ((3, 4, 5), "B")]


def test_remove_nodes_rejects_bad_input():
    with pytest.raises(ValueError):
        remove_nodes(Diagram("A", 4), (0,))
    with pytest.raises(ValueError):
        remove_nodes(Diagram("A", 4), (5,))
    with pytest.raises(ValueError):
        remove_nodes(Diagram("A", 4), (2, 2))


@st.composite
def diagram_and_nested_removals(draw):
    family = draw(st.sampled_from(("A", "B", "C", "D")))
    rank = draw(st.integers(2 if family == "D" else 1, 9))
    nodes = list(range(1, rank + 1))
    big = draw(st.lists(st.sampled_from(nodes), unique=True, max_size=rank))
    small = draw(st.lists(st.sampled_from(big), unique=True) if big else st.just([]))
    return Diagram(family, rank), sorted(small), sorted(big)


@given(diagram_and_nested_removals())
@settings(max_examples=200)
def test_nested_removal_composes(case):
    """Removing I, then the relabelled leftovers of J from each survivor,
    matches removing J in one pass."""
    diagram, small, big = case
    direct = sorted(remove_nodes(diagram, big))
    staged = []
    leftovers = set(big) - set(small)
    for nodes, family in surviving_components(diagram, small):
        local = [nodes.index(v) + 1 for v in sorted(leftovers & set(nodes))]
        staged.extend(remove_nodes(Diagram(family, len(nodes)), local))
    assert sorted(staged) == direct


def test_poincare_closed_small_cases():
    assert poincare_closed("A", 1).coeffs == (1, 1)
    assert poincare_closed("A", 2).coeffs == (1, 2, 2, 1)
    assert poincare_closed("B", 2).coeffs == (1, 2, 2, 2, 1)
    assert poincare_closed("D", 2).coeffs == (1, 2, 1)


def test_low_rank_coincidences():
    # the rank-3 fork diagram is the same chain as the rank-3 unmarked one
    assert poincare_closed("D", 3) == poincare_closed("A", 3)
    assert poincare_closed("B", 1) == poincare_closed("A", 1)


def test_poincare_closed_evaluates_to_group_order():
    for family in ("A", "B", "C", "D"):
        for rank in range(2 if family == "D" else 1, 11):
            assert poincare_closed(family, rank)(1) == group_order(family, rank)


def _ref_poincare_parabolic(factors):
    # the earlier route: the product of the cached closed forms
    out = IntPolynomial.one()
    for fam, rank in factors:
        out = out * poincare_closed(fam, rank)
    return out


def test_poincare_parabolic_is_product():
    factors = [("A", 2), ("B", 2)]
    expected = poincare_closed("A", 2) * poincare_closed("B", 2)
    assert poincare_parabolic(factors) == expected
    assert poincare_parabolic([]) == IntPolynomial.one()
    # flag_factors' (D, 1) tail has order 1 and polynomial 1
    assert poincare_parabolic([("A", 2), ("D", 1)]) == poincare_closed("A", 2)
    for family in ("A", "B", "C", "D"):
        for rank in range(2 if family == "D" else 1, 7):
            for k in range(rank + 1):
                for removed in itertools.combinations(range(1, rank + 1), k):
                    factors = remove_nodes(Diagram(family, rank), removed)
                    assert poincare_parabolic(factors) == _ref_poincare_parabolic(
                        factors
                    ), (family, rank, removed)


@st.composite
def diagram_and_removal(draw):
    family = draw(st.sampled_from(("A", "B", "C", "D")))
    rank = draw(st.integers(2 if family == "D" else 1, 9))
    removed = draw(
        st.lists(st.sampled_from(range(1, rank + 1)), unique=True, max_size=rank)
    )
    return Diagram(family, rank), sorted(removed)


@given(diagram_and_removal())
@settings(max_examples=150)
def test_poincare_quotient_times_parabolic_is_closed(case):
    diagram, removed = case
    factors = remove_nodes(diagram, removed)
    quot = poincare_quotient(diagram.family, diagram.rank, factors)
    assert quot * poincare_parabolic(factors) == poincare_closed(
        diagram.family, diagram.rank
    )


@given(diagram_and_removal())
@settings(max_examples=150)
def test_poincare_quotient_is_palindromic(case):
    # coset growth polynomials of these quotients are symmetric in degree
    diagram, removed = case
    quot = poincare_quotient(
        diagram.family, diagram.rank, remove_nodes(diagram, removed)
    )
    assert quot.coeffs == quot.coeffs[::-1]


@given(diagram_and_removal())
@settings(max_examples=100)
def test_poincare_quotient_value_at_one_is_index(case):
    diagram, removed = case
    factors = remove_nodes(diagram, removed)
    quot = poincare_quotient(diagram.family, diagram.rank, factors)
    parabolic = math.prod(group_order(f, r) for f, r in factors)
    assert quot(1) * parabolic == group_order(diagram.family, diagram.rank)


@pytest.mark.parametrize(
    "factors", ([("E", 2)], [("A", 0)], [("A", -3)], [("X", 1)]), ids=repr
)
def test_both_gradings_reject_the_same_factors(factors):
    # the length-graded quotient checks each factor's family and rank
    with pytest.raises(ValueError):
        poincare_quotient("A", 5, factors)


def test_poincare_closed_cache_is_bounded():
    maxsize = poincare_closed.cache_info().maxsize
    # a full oracle-verify uses 11 entries; all of them stay cached
    assert maxsize is not None and maxsize >= 11
    for rank in range(1, 41):
        poincare_closed("B", rank)
    assert poincare_closed.cache_info().currsize <= maxsize


def test_parabolic_for_distribution_chain():
    diagram, cuts, factors = parabolic_for_distribution(
        "A", 6, ProbVec(("1/6", "2/6", "3/6"))
    )
    assert diagram == Diagram("A", 5)
    assert cuts == (1, 3)
    assert factors == [("A", 1), ("A", 2)]


def test_parabolic_for_distribution_doubled_tail():
    diagram, cuts, factors = parabolic_for_distribution("B", 8, ProbVec(("1/2", "1/2")))
    assert diagram == Diagram("B", 7)
    assert cuts == (4,)
    assert factors == [("A", 3), ("B", 3)]


def test_parabolic_for_distribution_keeps_degenerate_fork_tail():
    # a final block of size 2 leaves a rank-1 tail carrying the fork label;
    # its order is 1, so it never changes a count, but the label is kept
    _, cuts, factors = parabolic_for_distribution("D", 4, ProbVec(("1/2", "1/2")))
    assert cuts == (2,)
    assert factors == [("A", 1), ("D", 1)]


def test_parabolic_for_distribution_point_mass():
    diagram, cuts, factors = parabolic_for_distribution("B", 5, ProbVec(("1",)))
    assert cuts == ()
    assert factors == [("B", 4)]


def test_parabolic_for_distribution_requires_integral_split():
    with pytest.raises(ValueError):
        parabolic_for_distribution("A", 4, ProbVec((Fraction(1, 3), Fraction(2, 3))))


def test_parabolic_for_distribution_orders_multiply_correctly():
    # sanity on a case small enough to do by hand: scaled counts (2,2) on the
    # rank-3 ambient diagram cut at node 2, leaving two rank-1 factors
    _, _, factors = parabolic_for_distribution("B", 4, ProbVec(("1/2", "1/2")))
    assert factors == [("A", 1), ("B", 1)]
    assert math.prod(group_order(f, r) for f, r in factors) == 2 * 2


def test_flag_factors_match_the_diagram_graph():
    # the graph is the reference for the counts -> factors rule; the one
    # departure is the documented (D, 1) tail when the last part is 2
    # (D needs n >= 3 for a diagram of rank n - 1 >= 2)
    flags = departures = 0
    for family in ("A", "B", "C", "D"):
        for n in range(3 if family == "D" else 2, 11):
            for counts in _positive_compositions(n, n):
                cuts = list(itertools.accumulate(counts[:-1]))
                graph = poincare_parabolic(remove_nodes(Diagram(family, n - 1), cuts))
                flag = poincare_parabolic(flag_factors(family, counts))
                tail = family == "D" and counts[-1] == 2
                assert (flag != graph) == tail, (family, counts)
                flags += 1
                departures += tail
    assert (flags, departures) == (4086, 255)


# Reference: the bracket-by-bracket arithmetic the series quotient replaced.
# The group polynomial is built one bracket at a time, then divided by each
# parabolic bracket, and every division is re-verified by multiplying back.


def _ref_bracket_sizes(family, rank):
    if family == "A":
        return tuple(range(2, rank + 2))
    if family in ("B", "C"):
        return tuple(2 * i for i in range(1, rank + 1))
    return (rank,) + tuple(2 * i for i in range(1, rank))


def _ref_adjacency(diagram):
    m = diagram.rank
    adj = {i: [] for i in range(1, m + 1)}
    if diagram.family == "D":
        edges = [(i, i + 1) for i in range(1, m - 1)]
        if m >= 3:
            edges.append((m - 2, m))
    else:
        edges = [(i, i + 1) for i in range(1, m)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def _ref_components(diagram, removed):
    # a stack walk over the adjacency lists, then the family labels
    rm = set(removed)
    adj = _ref_adjacency(diagram)
    seen = set()
    comps = []
    for start in range(1, diagram.rank + 1):
        if start in rm or start in seen:
            continue
        stack, comp = [start], []
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if w not in rm and w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    comps.sort(key=lambda c: c[0])
    m, family = diagram.rank, diagram.family
    out = []
    for comp in comps:
        if family in ("B", "C"):
            fam = family if m in comp else "A"
        elif family == "D":
            fam = "D" if (m in comp and m - 1 in comp) else "A"
        else:
            fam = "A"
        out.append((comp, fam))
    return out


def test_surviving_components_match_the_graph_walk():
    cases = 0
    for family in ("A", "B", "C", "D"):
        for rank in range(2 if family == "D" else 1, 9):
            diagram = Diagram(family, rank)
            for size in range(rank + 1):
                for removed in itertools.combinations(range(1, rank + 1), size):
                    assert surviving_components(diagram, removed) == _ref_components(
                        diagram, removed
                    ), (family, rank, removed)
                    cases += 1
    assert cases == 4 * 510 - 2


def _ref_times_bracket(coeffs, j):
    out = []
    acc = 0
    n = len(coeffs)
    for i in range(n + j - 1):
        if i < n:
            acc += coeffs[i]
        if i - j >= 0:
            acc -= coeffs[i - j]
        out.append(acc)
    return out


def _ref_div_bracket(coeffs, j):
    if len(coeffs) < j:
        raise InexactDivisionError("bracket degree exceeds dividend degree")
    quot = [0] * (len(coeffs) - j + 1)
    window = 0
    for i in range(len(quot)):
        qi = coeffs[i] - window
        quot[i] = qi
        window += qi
        if i - j + 1 >= 0:
            window -= quot[i - j + 1]
    if _ref_times_bracket(quot, j) != coeffs:
        raise InexactDivisionError("nonzero remainder in bracket division")
    return quot


def _ref_closed(family, rank):
    coeffs = [1]
    for j in _ref_bracket_sizes(family, rank):
        coeffs = _ref_times_bracket(coeffs, j)
    return IntPolynomial(coeffs)


def _ref_quotient(family, rank, factors):
    coeffs = list(_ref_closed(family, rank).coeffs)
    for fam, r in factors:
        for j in _ref_bracket_sizes(fam, r):
            if j > 1:
                coeffs = _ref_div_bracket(coeffs, j)
    return IntPolynomial(coeffs)


FAMILY_RANKS = [
    (family, rank)
    for family in ("A", "B", "C", "D")
    for rank in range(2 if family == "D" else 1, 11)
]


@pytest.mark.parametrize("family,rank", FAMILY_RANKS)
def test_series_quotient_matches_bracket_division(family, rank):
    poincare_closed.cache_clear()
    assert poincare_closed(family, rank) == _ref_closed(family, rank)
    diagram = Diagram(family, rank)
    for size in range(rank + 1):
        for removed in itertools.combinations(range(1, rank + 1), size):
            factors = remove_nodes(diagram, removed)
            assert poincare_quotient(family, rank, factors) == _ref_quotient(
                family, rank, factors
            )


@pytest.mark.parametrize(
    "family,rank,factors",
    [
        ("B", 3, [("A", 1)] * 4),
        ("A", 4, [("A", 2), ("A", 2)]),
        ("A", 2, [("B", 2)]),
        ("A", 3, [("A", 1)] * 3),
        ("D", 4, [("A", 1)] * 5),
    ],
)
def test_non_divisible_quotient_raises(family, rank, factors):
    with pytest.raises(InexactDivisionError):
        _ref_quotient(family, rank, factors)
    with pytest.raises(InexactDivisionError):
        poincare_quotient(family, rank, factors)


@pytest.mark.parametrize(
    "numer,denom",
    [
        # each passes every end check but the one named
        ((4, 6, 6, 9), (8, 2, 3)),  # palindromy
        ((3, 8, 6, 1, 5), (9, 5, 2, 4)),  # no terms between D and deg C / 2
        ((5, 7, 9), (9, 2, 2, 7)),  # the value at t = 1
    ],
)
def test_every_end_check_is_needed(numer, denom):
    with pytest.raises(InexactDivisionError):
        _bracket_quotient(numer, denom)


@pytest.mark.parametrize(
    "numer,denom",
    [
        # D > deg C / 2 and C(1) / P(1) = sum of the slots with their
        # mirrors; only the overlap D - M..M, M = deg C // 2, is not
        # palindromic.  deg C is 14 (M = 7, D = 9) and 15 (M = 7, D = 9).
        ((10, 6), (4, 3)),
        ((9, 8), (2, 6)),
    ],
)
def test_the_mirrored_overlap_is_checked(numer, denom):
    with pytest.raises(InexactDivisionError, match="nonzero remainder"):
        _bracket_quotient(numer, denom)


def test_an_exact_quotient_with_a_negative_coefficient_raises():
    # [4][6] / ([2]^2 [3]) = Phi_4 Phi_6 = 1 - t + 2t^2 - t^3 + t^4 passes
    # the other end checks
    with pytest.raises(InexactDivisionError, match="negative coefficient"):
        _bracket_quotient((4, 6), (2, 2, 3))


def _ref_bracket_quotient(numer, denom):
    # C / P one bracket at a time, or None where a division leaves a
    # remainder
    coeffs = [1]
    for a in numer:
        coeffs = _ref_times_bracket(coeffs, a)
    try:
        for b in denom:
            coeffs = _ref_div_bracket(coeffs, b)
    except InexactDivisionError:
        return None
    return coeffs


def test_half_degree_quotient_matches_bracket_division():
    # the series is carried to deg C // 2 only; every shape of
    # (deg C odd or even, D above or at most deg C // 2) must agree with
    # the division, and a remainder or a negative coefficient must raise
    rng = random.Random(19)
    shapes, negative = Counter(), 0
    for _ in range(4000):
        numer = [rng.randint(1, 12) for _ in range(rng.randint(1, 6))]
        denom = [rng.randint(1, 12) for _ in range(rng.randint(0, 5))]
        want = _ref_bracket_quotient(numer, denom)
        if want is None or min(want) < 0:
            negative += want is not None
            with pytest.raises(InexactDivisionError):
                _bracket_quotient(numer, denom)
            continue
        assert _bracket_quotient(numer, denom) == IntPolynomial(want)
        top = sum(a - 1 for a in numer)
        shapes[top % 2, len(want) - 1 > top // 2] += 1
    assert negative and len(shapes) == 4 and min(shapes.values()) >= 20, shapes
