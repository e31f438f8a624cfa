"""Exact orders of general linear and symplectic groups over F_q, counts
of isotropic subspaces and isotropic flags, and the chain identity the
flag counts satisfy under coarse-graining.

The counting layer accepts any integer q >= 2; only the brute-force
enumerations elsewhere insist on an actual prime field.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from functools import partial

from .dynkin import _bracket_sizes
from .entropy import CoarseMap, ProbVec
from .exact import (
    Record,
    _field_sizes,
    _integral,
    _ln_degree_ratio,
    _log_count,
    cyclotomic_product,
    q_multinomial,
)
from .report import IdentityReport, _proved_chain_rule
from .verify import (
    _flag_quotient,
    _gl_degrees,
    _order,
    _parabolic_quotient,
    _positive_roots,
    _prove_exponents,
    check_count,
)

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


def _check_gl_rank(m: int) -> None:
    if m < 0:
        raise ValueError("m must be nonnegative")


def _check_subspace(s: int, n: int) -> None:
    if not 0 <= s <= n:
        raise ValueError("need 0 <= s <= n")


def _check_flag_shape(increments: Iterable[int], n: int) -> tuple[int, ...]:
    # the increments as ints, each positive, their total at most n
    increments = _integral(increments, "flag increments")
    if any(m < 1 for m in increments):
        raise ValueError("flag increments must be positive")
    if sum(increments) > n:
        raise ValueError("total isotropic dimension cannot exceed n")
    return increments


def _c_multiples(k: int, d: int) -> int:
    # how many of 2, 4, ..., 2k the integer d divides
    return k // (d // math.gcd(d, 2))


def _flag_exponents(blocks: Sequence[int], n: int) -> list[int]:
    # e_d of Phi_d(q), 0 <= d <= 2n, in the flag count |Sp_n| / |P|: the
    # product of q^j - 1 over the degrees j of Sp_n, 2, 4, ..., 2n, over
    # that of the Levi of P, 1, ..., m per block and 2, 4, ..., 2r with
    # r = n - sum(blocks); q^j - 1 is prod Phi_d(q) over d | j
    r = n - sum(blocks)
    return [0] + [
        _c_multiples(n, d) - sum(m // d for m in blocks) - _c_multiples(r, d)
        for d in range(1, 2 * n + 1)
    ]


def _flag_count(blocks: Sequence[int], n: int, q: int) -> int:
    # the exponent vector, evaluated once and checked by verify.check_count
    exponents = _flag_exponents(blocks, n)
    value = cyclotomic_product(exponents, q)
    check_count(_flag_quotient(blocks, n), q, exponents, value)
    return value


def _log_flag_count(blocks: Sequence[int], n: int, q: int) -> float:
    # math.log(_flag_count(blocks, n, q)).  The exponent vector is proved
    # against the quotient's degree lists first, on both paths.  From
    # exact._LOG_BOUND_BITS on, the log is bounded over those lists; only
    # the product and its residue check are skipped.
    quotient = _flag_quotient(blocks, n)
    _prove_exponents(quotient, _flag_exponents(blocks, n))
    bits = (sum(quotient[0]) - sum(quotient[1])) * math.log2(q)
    ln_count = partial(_ln_degree_ratio, *quotient, q)
    return _log_count(bits, ln_count, partial(_flag_count, blocks, n, q))


def _group_order(degrees: Sequence[int], q: int) -> int:
    # q^N prod(q^j - 1): the order over F_q of the split group with these degrees
    return q ** _positive_roots(degrees) * _order(degrees, q)


def gl_order(m: int, q: int) -> int:
    """Order of GL_m(F_q); 1 when m = 0."""
    q, m = _field_sizes(q, m)
    _check_gl_rank(m)
    return _group_order(_gl_degrees(m), q)


def sp_order(n: int, q: int) -> int:
    """Order of the symplectic group of a 2n-dimensional space over F_q;
    n = 0 gives 1 so tail factors of factorizations stay uniform."""
    q, n = _field_sizes(q, n)
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _group_order(_bracket_sizes("C", n), q)


def unipotent_radical_order(s: int, n: int, q: int) -> int:
    """q^{s(s+1)/2 + 2s(n-s)}: the kernel of the stabilizer of an
    s-dimensional isotropic subspace acting on its associated graded."""
    q, s, n = _field_sizes(q, s, n)
    _check_subspace(s, n)
    group, levi = _flag_quotient((s,), n)
    return q ** (_positive_roots(group) - _positive_roots(levi))


def ig_count(s: int, n: int, q: int) -> int:
    """Number of s-dimensional totally isotropic subspaces of a
    2n-dimensional symplectic space over F_q."""
    q, s, n = _field_sizes(q, s, n)
    _check_subspace(s, n)
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
        q, n = _field_sizes(q, n)
        if n < 1:
            raise ValueError("half-dimension n must be positive")
        self._set_fields(_check_flag_shape(increments, n), n, q)


def isotropic_flag_count(ft: FlagType) -> int:
    """Number of isotropic flags of the given shape: subspace count for
    the total dimension times the q-multinomial of the increments."""
    return _flag_count(ft.increments, ft.n, ft.q)


def sp_quotient_closed(n: int, dist: ProbVec, q: int) -> int:
    """|Sp/P| for the parabolic attached to the scaled distribution n*P:
    the q-multinomial of all parts times the tail product of (q^j + 1)
    for j from n*p_k + 1 to n: the number of isotropic flags of shape
    (n*p_1, ..., n*p_{k-1})."""
    q, n = _field_sizes(q, n)
    return _flag_count(dist.scaled_counts(n)[:-1], n, q)


def normalized_logq_quotient(n: int, dist: ProbVec, q: int) -> float:
    """math.log(sp_quotient_closed(n, dist, q)) / (n^2 ln q), the same float
    bit for bit; growth is superexponential, rate n^2, hence the
    normalization.

    The count's exponent vector is first proved against the degree lists
    of Sp_n and of the Levi factor (verify's step 1).  From an estimated
    exact._LOG_BOUND_BITS bits on, the count is not built: the log comes
    from a certified bound on D ln q + sum ln(1 - q^-a) - sum ln(1 - q^-b)
    over those lists, in 60-digit decimal arithmetic.  The float is the
    one math.log returns for the count, or the count is built when the
    bound cannot fix it.
    """
    q, n = _field_sizes(q, n)
    return _log_flag_count(dist.scaled_counts(n)[:-1], n, q) / (n * n * math.log(q))


def _flag_orders(n: int, dist: ProbVec):
    # sp_quotient_closed(n, dist, q) as the verify.Quotient of Sp_n over P
    return _flag_quotient(dist.scaled_counts(n)[:-1], n)


def _gl_flag_orders(m: int, dist: ProbVec):
    # q_multinomial(m, dist.scaled_counts(m), q) as the verify.Quotient of GL_m over P
    return _parabolic_quotient(_gl_degrees(m), dist.scaled_counts(m))


def symplectic_chain_identity_check(
    n: int, dist: ProbVec, cmap: CoarseMap, q: int
) -> IdentityReport:
    """Exact integer identity: the fine quotient equals the coarse
    quotient times the q-multinomial of each interior block times the
    last block's own quotient, whose tail supplies the product of
    (q^j + 1) for j from n*p_k + 1 to n*q_m.  It is proved as an identity
    of polynomials in q from the degree lists of each side, so only the
    fine quotient is counted; the right side is built and multiplied out,
    as report.chain_rule_check does, only if that proof fails."""
    return _proved_chain_rule(
        (lambda m, d: sp_quotient_closed(m, d, q), _flag_orders),
        (lambda m, d: q_multinomial(m, d.scaled_counts(m), q), _gl_flag_orders),
        n, dist, cmap,
    )
