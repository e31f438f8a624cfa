"""Dynkin diagrams of the four classical families and their node-removal
arithmetic.

Nodes are numbered 1..rank.  Families A, B, C are chains with the double
bond of B/C between the last two nodes.  Family D is the chain 1..rank-1
together with node rank attached to node rank-2, so both fork tips sit at
the two highest indices and tip rank-1 is not adjacent to tip rank.
Removing nodes therefore splits B/C chains by segments but splits D by
graph components; the component holding both fork tips keeps family D,
every other component is a plain chain of type A.

The module also owns the format every count is proved in, a ``Quotient``:
the degree lists of a group and a subgroup, read off one degree table.  A
length polynomial of W/W_P (``_weyl_quotient``) and a count |G(F_q)/P|
(``_flag_quotient``) are both such a pair; ``_bracket_quotient`` divides
one out as a polynomial, and verify proves counts from them.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from collections.abc import Iterable, Sequence
from functools import lru_cache

from .entropy import ProbVec
from .exact import InexactDivisionError, IntPolynomial, Record, _integral

__all__ = [
    "FAMILIES",
    "Diagram",
    "flag_factors",
    "group_order",
    "parabolic_for_distribution",
    "poincare_closed",
    "poincare_parabolic",
    "poincare_quotient",
    "remove_nodes",
    "surviving_components",
]

FAMILIES = ("A", "B", "C", "D")

# (family, rank) pairs; rank-0 factors are never materialized
ParabolicType = list[tuple[str, int]]


class Diagram(Record):
    __slots__ = ("family", "rank")

    family: str
    rank: int

    def __init__(self, family: str, rank: int) -> None:
        rank = _check_rank(family, rank)
        if family == "D" and rank < 2:
            raise ValueError("family D requires rank >= 2")
        self._set_fields(family, rank)


def _check_family(family: str) -> None:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")


def _check_rank(family: str, rank: int) -> int:
    # the rank as an int, by the rule of exact._integral
    _check_family(family)
    (rank,) = _integral((rank,), "ranks")
    if rank < 1:
        raise ValueError("rank must be at least 1")
    return rank


def _check_removal(rank: int, removed: Iterable[int]) -> set[int]:
    # the removed nodes as a set of ints, each in 1..rank and named once
    nodes = sorted(_integral(removed, "removed nodes"))
    for r in nodes:
        if not 1 <= r <= rank:
            raise ValueError(f"node {r} outside 1..{rank}")
    if len(set(nodes)) != len(nodes):
        raise ValueError("removal set has repeated nodes")
    return set(nodes)


def surviving_components(
    diagram: Diagram, removed: Iterable[int]
) -> list[tuple[tuple[int, ...], str]]:
    """Connected components of the surviving nodes, ordered by lowest
    index, each labeled with the family of the group it generates."""
    family, m = diagram.family, diagram.rank
    dead = _check_removal(m, removed)
    # every node but the first has one edge to a lower node, its parent:
    # v - 1, except D's tip m, whose parent is m - 2; so one ascending pass
    # gives each surviving node the lowest node of its component as root
    root: dict[int, int] = {}
    comps: dict[int, list[int]] = {}
    for v in range(1, m + 1):
        if v not in dead:
            r = root[v] = root.get(v - 2 if family == "D" and v == m else v - 1, v)
            comps.setdefault(r, []).append(v)
    # the component holding node m keeps the family; for D it must also
    # hold the other tip m - 1
    last = root.get(m)
    if family == "D" and root.get(m - 1) != last:
        last = None
    return [(tuple(nodes), family if r == last else "A") for r, nodes in comps.items()]


def remove_nodes(diagram: Diagram, removed: Iterable[int]) -> ParabolicType:
    """Factor list (family, rank) of the parabolic left by deleting nodes."""
    return [(fam, len(nodes)) for nodes, fam in surviving_components(diagram, removed)]


def group_order(family: str, rank: int) -> int:
    """Order of the reflection group, the product of its degrees:
    (rank+1)!, 2^rank rank!, or 2^{rank-1} rank! for A, B/C, or D.

    Rank 1 is accepted for every family so that degenerate tail factors
    keep the uniform closed forms; the D value at rank 1 is 1.
    """
    return math.prod(_sizes([(family, rank)]))


def _bracket_sizes(family: str, rank: int) -> tuple[int, ...]:
    # the degrees of the family's reflection group, the package's one
    # degree table: the bracket sizes of its length generating function,
    # with product the group order (Humphreys 1990, ch. 3), and the
    # degrees of the groups of Lie type in the Quotient builders below
    if family == "A":
        return tuple(range(2, rank + 2))
    if family in ("B", "C"):
        return tuple(2 * i for i in range(1, rank + 1))
    return (rank,) + tuple(2 * i for i in range(1, rank))


def _sizes(factors: Sequence[tuple[str, int]]) -> list[int]:
    # the bracket sizes of a factor list, for group_order and _weyl_quotient
    return [j for fam, r in factors for j in _bracket_sizes(fam, _check_rank(fam, r))]


# (js, ks), the count prod(x^j - 1 for j in js) / prod(x^k - 1 for k in ks)
Quotient = tuple[list[int], list[int]]


def _weyl_quotient(group: ParabolicType, parabolic: ParabolicType) -> Quotient:
    # the length polynomial of one factor list over another: [a]_t is
    # (t^a - 1) / (t - 1), so each bracket size sits on its own side and
    # a degree 1 on the other
    js, ks = _sizes(group), _sizes(parabolic)
    return js + [1] * len(ks), ks + [1] * len(js)


def _gl_degrees(m: int) -> list[int]:
    # those of SL_m, of type A_{m-1}, and the degree 1 of the centre
    return [1, *_bracket_sizes("A", m - 1)] if m else []


def _parabolic_quotient(degrees: Sequence[int], blocks: Sequence[int], rest=()) -> Quotient:
    # G's degrees over the Levi degrees of P: GL_m per m in blocks, then rest
    return [*degrees], [j for m in blocks for j in _gl_degrees(m)] + [*rest]


def _flag_quotient(blocks: Sequence[int], n: int) -> Quotient:
    rest = _bracket_sizes("C", n - sum(blocks))
    return _parabolic_quotient(_bracket_sizes("C", n), blocks, rest)


def _bracket_quotient(js: Sequence[int], ks: Sequence[int]) -> IntPolynomial:
    """The polynomial prod (t^j - 1) / prod (t^k - 1) of a Quotient (js, ks).
    For lists of equal length it is C / P with C = prod [a]_t over js and
    P = prod [b]_t over ks, [j]_t = 1 + t + ... + t^{j-1}; unequal lengths
    raise InexactDivisionError, since the end checks prove only C / P.

    After cancelling shared degrees, C / P is the power series
    prod (1 - t^a) / prod (1 - t^b) over the degrees a and b left, carried
    exactly to degree M = floor(deg C / 2) in a list of ints.  Multiplying by
    1 - t^a subtracts the list shifted by a, and dividing by 1 - t^b takes
    running sums along each residue class mod b; each is one pass of
    map or itertools.accumulate.  A divisor 1 - t^b paired with a factor
    1 - t^a, b | a, leaves the polynomial 1 + t^b + ... + t^{a-b}, so the
    pairs go first and the list grows from one entry rather than starting
    at full length.  The factors 1 - t^a and divisors 1 - t^b left over
    follow.

    The result Q has the series' coefficients 0..min(M, D), with
    D = deg C - deg P, and coefficient i > M equal to coefficient D - i,
    the value palindromy gives it.  One condition proves Q * P = C:
    D >= 0, no series terms between D and M, and Q palindromic of degree
    D (which compares the overlap D - M..M when D > M).  The series is
    exact, so then Q * P agrees with C modulo t^{M+1}, and both sides are
    palindromic of degree deg C, so they agree everywhere.  A result that
    fails the condition raises InexactDivisionError; so does an exact
    quotient with a negative coefficient, which no parabolic quotient has.
    """
    if len(js) != len(ks):
        raise InexactDivisionError("degree lists of a quotient differ in length")
    tops, bottoms = Counter(js), Counter(ks)
    shared = tops & bottoms
    tops, bottoms = tops - shared, bottoms - shared
    top_degree = sum((a - 1) * k for a, k in tops.items())
    degree = top_degree - sum((b - 1) * k for b, k in bottoms.items())
    reach = top_degree // 2
    numerators = sorted(tops.elements())
    divisors = sorted(bottoms.elements(), reverse=True)
    series = [1]

    def times(a: int) -> None:
        # series * (1 - t^a), at the series' length
        series[a:] = map(operator.sub, series[a:], series)

    def over(b: int) -> None:
        # series / (1 - t^b), at the series' length
        for r in range(min(b, len(series))):
            series[r::b] = itertools.accumulate(series[r::b])

    unpaired = []
    for b in divisors:
        a = next((a for a in numerators if a % b == 0), None)
        if a is None:
            unpaired.append(b)
            continue
        numerators.remove(a)
        # times 1 + t^b + ... + t^{a-b}, which has a - b more terms
        series += [0] * min(a - b, reach + 1 - len(series))
        over(b)
        times(a)
    series += [0] * (reach + 1 - len(series))
    for a in numerators:
        times(a)
    for b in unpaired:
        over(b)
    coeffs = series[: degree + 1]
    coeffs += coeffs[: degree + 1 - len(coeffs)][::-1]
    if degree < 0 or any(series[degree + 1 :]) or coeffs != coeffs[::-1]:
        raise InexactDivisionError("nonzero remainder in bracket division")
    if min(coeffs) < 0:
        raise InexactDivisionError("bracket quotient has a negative coefficient")
    return IntPolynomial(coeffs)


# oracle-verify asks for 11 distinct entries, each once, so it makes no
# hits; the bound is for long rank sweeps in one process, which it keeps
# from holding every coefficient list they ever built.  perfbench reads
# cache_info and calls cache_clear.
@lru_cache(maxsize=32)
def poincare_closed(family: str, rank: int) -> IntPolynomial:
    """Length generating function of the full group, as a product of
    gauss brackets; evaluates to group_order at t = 1."""
    return poincare_quotient(family, rank, ())


def poincare_parabolic(factors: Sequence[tuple[str, int]]) -> IntPolynomial:
    return _bracket_quotient(*_weyl_quotient(factors, ()))


def poincare_quotient(
    family: str, rank: int, factors: Sequence[tuple[str, int]]
) -> IntPolynomial:
    """poincare_closed(family, rank) divided by the parabolic product, as
    one checked bracket quotient.  Each factor's family and rank are
    checked as the group's are."""
    return _bracket_quotient(*_weyl_quotient([(family, rank)], factors))


def flag_factors(family: str, counts: Sequence[int]) -> ParabolicType:
    """Factor list [A(c_1 - 1), ..., A(c_{k-1} - 1), family(c_k - 1)] of
    the stabilizer for the scaled counts c = n*P, rank-0 factors dropped.

    It equals remove_nodes on the rank n-1 diagram cut at the partial sums
    of c, except for family D with c_k = 2: the list keeps a (D, 1) tail
    of order 1 and Poincare polynomial 1, the last block's own group,
    where the fork geometry would join the surviving tip to the block
    before it in one type-A component.  The degree-table side reads it:
    orbit_poincare and the chain-rule proof, not reflection's count.
    """
    *head, last = counts
    factors: ParabolicType = [("A", c - 1) for c in head if c >= 2]
    if last >= 2:
        factors.append((family, last - 1))
    return factors


def parabolic_for_distribution(
    family: str, n: int, dist: ProbVec
) -> tuple[Diagram, tuple[int, ...], ParabolicType]:
    """Diagram of rank n-1, the removal set cut at the partial sums of
    n*P, and the flag_factors of n*P."""
    counts = dist.scaled_counts(n)
    diagram = Diagram(family, n - 1)
    cuts = tuple(itertools.accumulate(counts[:-1]))
    return diagram, cuts, flag_factors(family, counts)
