"""Dynkin diagrams of the four classical families and their node-removal
arithmetic.

Nodes are numbered 1..rank.  Families A, B, C are chains with the double
bond of B/C between the last two nodes.  Family D is the chain 1..rank-1
together with node rank attached to node rank-2, so both fork tips sit at
the two highest indices and tip rank-1 is not adjacent to tip rank.
Removing nodes therefore splits B/C chains by segments but splits D by
graph components; the component holding both fork tips keeps family D,
every other component is a plain chain of type A.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache
from typing import Iterable, Sequence

from .entropy import ProbVec
from .exact import InexactDivisionError, IntPolynomial, exact_div
from .report import Record

__all__ = [
    "FAMILIES",
    "Diagram",
    "flag_factors",
    "group_order",
    "parabolic_for_distribution",
    "parabolic_order",
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
        _check_rank(family, rank)
        if family == "D" and rank < 2:
            raise ValueError("family D requires rank >= 2")
        self._set_fields(family, rank)


def _check_rank(family: str, rank: int) -> None:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if rank < 1:
        raise ValueError("rank must be at least 1")


def _adjacency(diagram: Diagram) -> dict[int, list[int]]:
    m = diagram.rank
    adj: dict[int, list[int]] = {i: [] for i in range(1, m + 1)}
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


def _normalize_removed(diagram: Diagram, removed: Iterable[int]) -> tuple[int, ...]:
    rm = tuple(sorted(int(r) for r in removed))
    for r in rm:
        if not 1 <= r <= diagram.rank:
            raise ValueError(f"node {r} outside 1..{diagram.rank}")
    if len(set(rm)) != len(rm):
        raise ValueError("removal set has repeated nodes")
    return rm


def surviving_components(
    diagram: Diagram, removed: Iterable[int]
) -> list[tuple[tuple[int, ...], str]]:
    """Connected components of the surviving nodes, ordered by lowest
    index, each labeled with the family of the group it generates."""
    rm = set(_normalize_removed(diagram, removed))
    alive = [i for i in range(1, diagram.rank + 1) if i not in rm]
    adj = _adjacency(diagram)
    seen: set[int] = set()
    comps: list[tuple[int, ...]] = []
    for start in alive:
        if start in seen:
            continue
        stack = [start]
        comp = []
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
    m = diagram.rank
    out = []
    for comp in comps:
        if diagram.family in ("B", "C"):
            fam = diagram.family if m in comp else "A"
        elif diagram.family == "D":
            fam = "D" if (m in comp and m - 1 in comp) else "A"
        else:
            fam = "A"
        out.append((comp, fam))
    return out


def remove_nodes(diagram: Diagram, removed: Iterable[int]) -> ParabolicType:
    """Factor list (family, rank) of the parabolic left by deleting nodes."""
    return [(fam, len(nodes)) for nodes, fam in surviving_components(diagram, removed)]


def group_order(family: str, rank: int) -> int:
    """Order of the reflection group: (rank+1)!, 2^rank rank!, or
    2^{rank-1} rank! for A, B/C, or D.

    Rank 1 is accepted for every family so that degenerate tail factors
    keep the uniform closed forms; the D value at rank 1 is 1.
    """
    _check_rank(family, rank)
    if family == "A":
        return math.factorial(rank + 1)
    if family in ("B", "C"):
        return (1 << rank) * math.factorial(rank)
    return (1 << (rank - 1)) * math.factorial(rank)


def parabolic_order(factors: Sequence[tuple[str, int]]) -> int:
    out = 1
    for fam, rank in factors:
        out *= group_order(fam, rank)
    return out


def _bracket_sizes(family: str, rank: int) -> tuple[int, ...]:
    # degrees of the bracket factors in the closed-form length generating
    # function of each family
    if family == "A":
        return tuple(range(2, rank + 2))
    if family in ("B", "C"):
        return tuple(2 * i for i in range(1, rank + 1))
    return (rank,) + tuple(2 * i for i in range(1, rank))


def _bracket_quotient(numer: Sequence[int], denom: Sequence[int]) -> IntPolynomial:
    """The polynomial C / P with C = prod [a]_t over numer and P = prod
    [b]_t over denom, where [j]_t = 1 + t + ... + t^{j-1}.

    After cancelling shared sizes, C / P is the power series
    prod (1 - t^a) / prod (1 - t^b) * (1 - t)^{#b - #a}, carried to degree
    M in one int whose w-byte slot i holds coefficient i.  A divisor
    1 - t^b paired with a factor 1 - t^a, b | a, leaves the polynomial
    1 + t^b + ... + t^{a-b}, multiplied in by shifts and additions.  The
    pairs go first, so the int grows from one slot rather than starting at
    full length.  A factor 1 - t^a left over is then a shift and a
    subtraction; a divisor 1 - t^b left over multiplies by the factors
    1 + t^{b 2^i} with b 2^i <= M.

    With 2^{8w} > C(1), every coefficient of Q * P and of C lies in
    [0, C(1)], so slot arithmetic modulo t^{M+1} settles their
    coefficients 0..M exactly.  Hence a result Q with no terms above
    D = deg C - deg P, palindromic (so of degree exactly D, since its
    constant term is 1), with Q(1) = C(1) / P(1) and M >= deg C / 2
    satisfies Q * P = C: both sides are palindromic of degree deg C.  Any
    other result raises InexactDivisionError; so does an exact quotient
    with a negative coefficient, which no parabolic quotient has.
    """
    tops = Counter(a for a in numer if a > 1)
    bottoms = Counter(b for b in denom if b > 1)
    shared = tops & bottoms
    tops, bottoms = tops - shared, bottoms - shared
    top_degree = sum((a - 1) * k for a, k in tops.items())
    degree = top_degree - sum((b - 1) * k for b, k in bottoms.items())
    if degree < 0:
        raise InexactDivisionError("bracket degree exceeds dividend degree")
    top_value = math.prod(a**k for a, k in tops.items())
    width = (top_value.bit_length() + 7) // 8
    slot = 8 * width
    reach = max(degree, top_degree // 2)
    mask = (1 << slot * (reach + 1)) - 1
    # (1 - t)^{#b - #a} enters as extra factors of size 1
    excess = tops.total() - bottoms.total()
    numerators = sorted(itertools.chain(tops.elements(), itertools.repeat(1, -excess)))
    divisors = sorted(
        itertools.chain(bottoms.elements(), itertools.repeat(1, excess)), reverse=True
    )
    series = 1
    unpaired = []
    for b in divisors:
        a = next((a for a in numerators if a % b == 0), None)
        if a is None:
            unpaired.append(b)
            continue
        numerators.remove(a)
        # times 1 + T + ... + T^{c-1} with T = t^b, c = a / b, built from
        # the bits of c: [2n] = [n](1 + T^n) and [2n+1] = 1 + T[2n]
        shift = slot * b
        out, n = series, 1
        for bit in bin(a // b)[3:]:
            out += out << shift * n
            n *= 2
            if bit == "1":
                out = series + (out << shift)
                n += 1
        series = out & mask
    for a in numerators:
        if a <= reach:
            series = (series - (series << slot * a)) & mask
    for b in unpaired:
        step = b
        while step <= reach:
            series = (series + (series << slot * step)) & mask
            step *= 2
    if series >> slot * (degree + 1):
        raise InexactDivisionError("bracket quotient is not a polynomial")
    raw = series.to_bytes(width * (reach + 1), "little")
    coeffs = [
        int.from_bytes(raw[i : i + width], "little")
        for i in range(0, width * (degree + 1), width)
    ]
    bottom_value = math.prod(b**k for b, k in bottoms.items())
    if coeffs != coeffs[::-1] or sum(coeffs) != exact_div(top_value, bottom_value):
        raise InexactDivisionError("nonzero remainder in bracket division")
    return IntPolynomial(coeffs)


# a full oracle-verify needs 11 entries; the bound keeps long rank sweeps
# from holding every coefficient list they ever built
@lru_cache(maxsize=32)
def poincare_closed(family: str, rank: int) -> IntPolynomial:
    """Length generating function of the full group, as a product of
    gauss brackets; evaluates to group_order at t = 1."""
    _check_rank(family, rank)
    return _bracket_quotient(_bracket_sizes(family, rank), ())


def poincare_parabolic(factors: Sequence[tuple[str, int]]) -> IntPolynomial:
    out = IntPolynomial.one()
    for fam, rank in factors:
        out = out * poincare_closed(fam, rank)
    return out


def poincare_quotient(
    family: str, rank: int, factors: Sequence[tuple[str, int]]
) -> IntPolynomial:
    """poincare_closed(family, rank) divided by the parabolic product, as
    one checked bracket quotient.  Factors are validated as in
    parabolic_order, so both gradings accept the same lists."""
    _check_rank(family, rank)
    for fam, r in factors:
        _check_rank(fam, r)
    denom = [j for fam, r in factors for j in _bracket_sizes(fam, r)]
    return _bracket_quotient(_bracket_sizes(family, rank), denom)


def flag_factors(family: str, counts: Sequence[int]) -> ParabolicType:
    """Factor list [A(c_1 - 1), ..., A(c_{k-1} - 1), family(c_k - 1)] of
    the stabilizer for the scaled counts c = n*P, rank-0 factors dropped.

    It equals remove_nodes on the rank n-1 diagram cut at the partial sums
    of c, except for family D with c_k = 2: the list keeps a (D, 1) tail
    of order 1 and Poincare polynomial 1, preserving the uniform closed
    form, where the fork geometry would join the surviving tip to the
    block before it in one type-A component.
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
