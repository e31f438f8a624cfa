"""Orbit cardinalities of reflection groups acting on flags cut out by a
rational probability vector, their length-graded refinements, and the
coarse-graining identities both satisfy.

The quotient |W|/|W_P| is always an exact integer and its normalized
logarithm approaches the reflective entropy of P as n grows through the
admissible set N_P.
"""

from __future__ import annotations

import math

from .dynkin import (
    Diagram,
    ParabolicType,
    group_order,
    parabolic_for_distribution,
    parabolic_order,
    poincare_quotient,
    remove_nodes,
    surviving_components,
)
from .entropy import CoarseMap, ProbVec, pushforward
from .exact import IntPolynomial, exact_div
from .report import IdentityReport

__all__ = [
    "orbit_count",
    "orbit_poincare",
    "normalized_log_orbit",
    "coarsening_cardinality_check",
    "coarsening_poincare_check",
]


def _index(family: str, rank: int, factors: ParabolicType) -> int:
    # the length generating function at t = 1, without building it
    return exact_div(group_order(family, rank), parabolic_order(factors))


def _orbit(family: str, n: int, dist: ProbVec, quotient, one):
    if n == 1:
        dist.scaled_counts(1)
        return one
    _, _, factors = parabolic_for_distribution(family, n, dist)
    return quotient(family, n - 1, factors)


def orbit_count(family: str, n: int, dist: ProbVec) -> int:
    """|W|/|W_P| for the rank n-1 group of the family, with W_P the
    parabolic dictated by the scaled distribution n*P."""
    return _orbit(family, n, dist, _index, 1)


def orbit_poincare(family: str, n: int, dist: ProbVec) -> IntPolynomial:
    """Length generating function of the quotient, by exact polynomial
    division; evaluates to orbit_count at t = 1."""
    return _orbit(family, n, dist, poincare_quotient, IntPolynomial.one())


def normalized_log_orbit(family: str, n: int, dist: ProbVec) -> float:
    # math.log splits a big int into mantissa and exponent, so counts far
    # beyond float range keep full double precision
    return math.log(orbit_count(family, n, dist)) / n


def _coarsening_check(
    family: str, n: int, dist: ProbVec, cmap: CoarseMap, quotient
) -> IdentityReport:
    """Both sides of the identity relating the fine quotient to the coarse
    quotient times per-component subquotients, in the grading of
    ``quotient``: the index for cardinalities, poincare_quotient for
    length generating functions.

    Components are taken from the diagram graph itself; a coarse
    component shared with the fine removal (same index set) contributes
    nothing and is skipped.
    """
    coarse = pushforward(dist, cmap)
    diagram, fine_cuts, _ = parabolic_for_distribution(family, n, dist)
    _, coarse_cuts, _ = parabolic_for_distribution(family, n, coarse)
    if not set(coarse_cuts) <= set(fine_cuts):
        raise ValueError("coarse removal set is not nested inside the fine one")
    lhs = quotient(family, diagram.rank, remove_nodes(diagram, fine_cuts))
    rhs = quotient(family, diagram.rank, remove_nodes(diagram, coarse_cuts))
    shared = {nodes for nodes, _ in surviving_components(diagram, fine_cuts)}
    extra = set(fine_cuts) - set(coarse_cuts)
    for nodes, fam in surviving_components(diagram, coarse_cuts):
        if nodes in shared:
            continue
        pos = {v: i + 1 for i, v in enumerate(nodes)}
        local = tuple(pos[c] for c in sorted(extra & set(nodes)))
        sub = Diagram(fam, len(nodes))
        rhs *= quotient(fam, len(nodes), remove_nodes(sub, local))
    return IdentityReport(lhs, rhs)


def coarsening_cardinality_check(
    family: str, n: int, dist: ProbVec, cmap: CoarseMap
) -> IdentityReport:
    """The coarsening identity for the orbit cardinalities."""
    return _coarsening_check(family, n, dist, cmap, _index)


def coarsening_poincare_check(
    family: str, n: int, dist: ProbVec, cmap: CoarseMap
) -> IdentityReport:
    """Same identity one level up, for the length generating functions;
    the report carries the two polynomials and their difference."""
    return _coarsening_check(family, n, dist, cmap, poincare_quotient)
