"""Orbit cardinalities of reflection groups acting on flags cut out by a
rational probability vector, their length-graded refinements, and the
coarse-graining identities both satisfy.

The quotient |W|/|W_P| is always an exact integer and its normalized
logarithm approaches the reflective entropy of P as n grows through the
admissible set N_P.
"""

from __future__ import annotations

import math
from functools import partial

from .dynkin import ParabolicType, _check_rank, _sizes, flag_factors, poincare_quotient
from .entropy import CoarseMap, ProbVec
from .exact import (
    InexactDivisionError,
    IntPolynomial,
    _ln_factorial_ratio,
    _log_count,
    multinomial,
)
from .report import IdentityReport, _proved_chain_rule

__all__ = [
    "orbit_count",
    "orbit_poincare",
    "normalized_log_orbit",
    "coarsening_cardinality_check",
    "coarsening_poincare_check",
]


def _index_terms(
    family: str, rank: int, factors: ParabolicType
) -> tuple[int, list[int], int]:
    # (m, parts, twos) with |W|/|W_P| = m! / prod(p! for p in parts) * 2^twos:
    # |W| = m! 2^twos with m = rank + 1 for A and m = rank, twos = rank
    # (rank - 1 for D) otherwise; an A_r factor is (r + 1)!, a B/C_r factor
    # r! 2^r and a D_r factor r! 2^{r-1}.  Both the count and its log start
    # here, so both validate the same way.
    rank = _check_rank(family, rank)
    m = rank + 1 if family == "A" else rank
    twos = 0 if family == "A" else rank - (family == "D")
    parts = []
    for fam, r in factors:
        r = _check_rank(fam, r)
        if fam == "A":
            parts.append(r + 1)
        else:
            parts.append(r)
            twos -= r - (fam == "D")
    if sum(parts) > m or twos < 0:
        raise InexactDivisionError(f"factors {factors} do not fit in {family}{rank}")
    return m, parts, twos


def _index(family: str, rank: int, factors: ParabolicType) -> int:
    # the length generating function at t = 1, without building it or
    # dividing: the multinomial of m over the parts and the rest (the
    # rank-0 blocks), times rest! and the 2s left over
    m, parts, twos = _index_terms(family, rank, factors)
    rest = m - sum(parts)
    return multinomial(m, parts + [rest]) * math.factorial(rest) << twos


def _log_index(family: str, rank: int, factors: ParabolicType) -> float:
    # math.log(_index(...)); from exact._LOG_BOUND_BITS on, by Stirling
    # bounds on the ln k! terms, without building the index
    m, parts, twos = _index_terms(family, rank, factors)
    try:
        ln_estimate = math.lgamma(m + 1) - sum(math.lgamma(p + 1) for p in parts)
    except OverflowError:
        raise ValueError("rank too large: the float estimate of ln |W/W_P| overflows") from None
    bits = ln_estimate / math.log(2) + twos
    return _log_count(
        bits,
        partial(_ln_factorial_ratio, m, parts, twos),
        partial(_index, family, rank, factors),
    )


def _orbit(family: str, n: int, dist: ProbVec, quotient, one):
    counts = dist.scaled_counts(n)
    if n == 1:
        return one
    return quotient(family, n - 1, flag_factors(family, counts))


def orbit_count(family: str, n: int, dist: ProbVec) -> int:
    """|W|/|W_P| for the rank n-1 group of the family, with W_P the
    parabolic dictated by the scaled distribution n*P."""
    return _orbit(family, n, dist, _index, 1)


def orbit_poincare(family: str, n: int, dist: ProbVec) -> IntPolynomial:
    """Length generating function of the quotient, by exact polynomial
    division; evaluates to orbit_count at t = 1."""
    return _orbit(family, n, dist, poincare_quotient, IntPolynomial.one())


def normalized_log_orbit(family: str, n: int, dist: ProbVec) -> float:
    """math.log(orbit_count(family, n, dist)) / n, the same float bit for bit.

    math.log splits a big int into mantissa and exponent, so counts far
    beyond float range keep full double precision.  From an estimated
    exact._LOG_BOUND_BITS bits on, the log comes from a certified bound on
    ln |W/W_P| = ln m! - sum ln p_i! + twos ln 2 instead: the Stirling series
    with its remainder bounded, in 60-digit decimal arithmetic.  The float
    is the one math.log returns for the count, or the count is built when
    the bound cannot fix it.  ValueError refuses an n whose count is too
    large to build there, or whose float estimate of the log overflows.
    """
    return _orbit(family, n, dist, _log_index, 0.0) / n


def _bracket_orders(family: str, rank: int, factors: ParabolicType):
    # poincare_quotient's two bracket-size lists as a verify.Quotient:
    # [a]_t = (t^a - 1) / (t - 1), so each size sits on its own side and
    # a degree 1 on the other
    group, parabolic = _sizes([(family, rank)]), _sizes(factors)
    return group + [1] * len(parabolic), parabolic + [1] * len(group)


def _grading(count, family: str):
    # a count of the family and the bracket sizes that prove its chain rule
    return (
        partial(count, family),
        partial(_orbit, family, quotient=_bracket_orders, one=([], [])),
    )


def coarsening_cardinality_check(
    family: str, n: int, dist: ProbVec, cmap: CoarseMap
) -> IdentityReport:
    """The coarsening identity for the orbit cardinalities: interior
    blocks contribute type-A subquotients, the last block one of the
    family itself.  It is proved as the identity of the length generating
    functions below, which it is at t = 1, so only lhs is counted."""
    return _proved_chain_rule(
        _grading(orbit_count, family), _grading(orbit_count, "A"), n, dist, cmap
    )


def coarsening_poincare_check(
    family: str, n: int, dist: ProbVec, cmap: CoarseMap
) -> IdentityReport:
    """Same identity one level up, for the length generating functions;
    the report carries the two polynomials and their difference.  Each
    side's bracket sizes prove it, so only lhs is divided out; the right
    side is built and multiplied out, as report.chain_rule_check does,
    only if that proof fails."""
    return _proved_chain_rule(
        _grading(orbit_poincare, family), _grading(orbit_poincare, "A"), n, dist, cmap
    )
