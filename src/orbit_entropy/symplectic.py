"""Exact orders of general linear and symplectic groups over F_q, counts
of isotropic subspaces and isotropic flags, and the chain identity the
flag counts satisfy under coarse-graining.

The counting layer accepts any integer q >= 2; only the brute-force
enumerations elsewhere insist on an actual prime field.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .entropy import CoarseMap, ProbVec
from .exact import (
    cyclotomic_product,
    product,
    q_factorial,
    q_multinomial,
    q_multinomial_exponents,
)
from .report import IdentityReport, Record, chain_rule_check
from .verify import check_flag_count

__all__ = [
    "FlagType",
    "gl_order",
    "sp_order",
    "unipotent_radical_order",
    "ig_count",
    "isotropic_flag_count",
    "sp_quotient_closed",
    "normalized_logq_quotient",
    "symplectic_chain_identity_check",
]


def _check_q(q: int) -> None:
    if q < 2:
        raise ValueError("field size q must be at least 2")


def _plus_one_tail(lo: int, hi: int, exponents: list[int]) -> None:
    # adds the exponents of the product of (q^j + 1) for lo < j <= hi:
    # q^j + 1 = (q^2j - 1) / (q^j - 1) is the product of Phi_d(q) over the
    # d that divide 2j but not j, the even d with j an odd multiple of d/2
    for d in range(2, 2 * hi + 1, 2):
        h = d // 2
        exponents[d] += hi // h - lo // h - (hi // d - lo // d)


def _flag_count(blocks: Sequence[int], n: int, q: int) -> int:
    # isotropic flags with these increments in a 2n-dimensional space: the
    # q-multinomial of (blocks, r) times the product of (q^j + 1) for
    # r < j <= n, r = n - sum(blocks), as one exponent vector over Phi_d(q),
    # d <= 2n, evaluated once and checked by verify.check_flag_count
    r = n - sum(blocks)
    exponents = q_multinomial_exponents(n, (*blocks, r)) + [0] * n
    _plus_one_tail(r, n, exponents)
    value = cyclotomic_product(exponents, q)
    check_flag_count(blocks, n, q, exponents, value)
    return value


def gl_order(m: int, q: int) -> int:
    """Order of GL_m(F_q); 1 when m = 0."""
    _check_q(q)
    if m < 0:
        raise ValueError("m must be nonnegative")
    return q ** (m * (m - 1) // 2) * q_factorial(m, q)


def sp_order(n: int, q: int) -> int:
    """Order of the symplectic group of a 2n-dimensional space over F_q;
    n = 0 gives 1 so tail factors of factorizations stay uniform."""
    _check_q(q)
    if n < 0:
        raise ValueError("n must be nonnegative")
    return q ** (n * n) * product(q ** (2 * i) - 1 for i in range(1, n + 1))


def unipotent_radical_order(s: int, n: int, q: int) -> int:
    """q^{s(s+1)/2 + 2s(n-s)}: the kernel of the stabilizer of an
    s-dimensional isotropic subspace acting on its associated graded."""
    _check_q(q)
    if not 0 <= s <= n:
        raise ValueError("need 0 <= s <= n")
    return q ** (s * (s + 1) // 2 + 2 * s * (n - s))


def ig_count(s: int, n: int, q: int) -> int:
    """Number of s-dimensional totally isotropic subspaces of a
    2n-dimensional symplectic space over F_q."""
    _check_q(q)
    if not 0 <= s <= n:
        raise ValueError("need 0 <= s <= n")
    return _flag_count((s,), n, q)


class FlagType(Record):
    """Shape of an isotropic flag: dimension increments, ambient
    half-dimension, field size.  Zero increments are rejected; delete
    them upstream, where doing so visibly changes the distribution."""

    __slots__ = ("increments", "n", "q")

    increments: tuple[int, ...]
    n: int
    q: int

    def __init__(self, increments: Iterable[int], n: int, q: int) -> None:
        increments = tuple(int(m) for m in increments)
        _check_q(q)
        if n < 1:
            raise ValueError("half-dimension n must be positive")
        if any(m < 1 for m in increments):
            raise ValueError("flag increments must be positive")
        if sum(increments) > n:
            raise ValueError("total isotropic dimension cannot exceed n")
        self._set_fields(increments, n, q)


def isotropic_flag_count(ft: FlagType) -> int:
    """Number of isotropic flags of the given shape: subspace count for
    the total dimension times the q-multinomial of the increments."""
    return _flag_count(ft.increments, ft.n, ft.q)


def sp_quotient_closed(n: int, dist: ProbVec, q: int) -> int:
    """|Sp/P| for the parabolic attached to the scaled distribution n*P:
    the q-multinomial of all parts times the tail product of (q^j + 1)
    for j from n*p_k + 1 to n: the number of isotropic flags of shape
    (n*p_1, ..., n*p_{k-1})."""
    _check_q(q)
    return _flag_count(dist.scaled_counts(n)[:-1], n, q)


def normalized_logq_quotient(n: int, dist: ProbVec, q: int) -> float:
    # growth is superexponential, rate n^2, hence the normalization
    count = sp_quotient_closed(n, dist, q)
    return math.log(count) / (n * n * math.log(q))


def symplectic_chain_identity_check(
    n: int, dist: ProbVec, cmap: CoarseMap, q: int
) -> IdentityReport:
    """Exact integer identity: the fine quotient equals the coarse
    quotient times the q-multinomial of each interior block times the
    last block's own quotient, whose tail supplies the product of
    (q^j + 1) for j from n*p_k + 1 to n*q_m."""
    return chain_rule_check(
        lambda m, d: sp_quotient_closed(m, d, q),
        lambda m, d: q_multinomial(m, d.scaled_counts(m), q),
        n, dist, cmap,
    )
