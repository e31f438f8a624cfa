"""The one verification policy of the symplectic flag counts.

``ig_count``, ``isotropic_flag_count`` and ``sp_quotient_closed`` all count
the flags of one shape, |Sp_n / P| for the parabolic P fixing an isotropic
flag with increments m_1, ..., m_k.  Each hands ``check_count`` its
``dynkin._flag_quotient``, its exponent vector and its value; the check
proves count * |P| = |Sp_n| in two steps, and builds big integers only in
the fallback of step 2:

1. Symbolic proof.  A split reductive group with degrees d_i has order
   q^N prod(q^{d_i} - 1), N = sum(d_i - 1) its number of positive roots.
   |Sp_n| takes the type-C degrees 2, 4, ..., 2n, and |P| those of its
   Levi factor GL_{m_1} x ... x GL_{m_k} x Sp_r, r = n - sum m.  P holds
   the whole unipotent radical, the positive roots outside the Levi, so
   |P| has the q^N of Sp_n, which cancels: a ``dynkin.Quotient`` is the
   degree lists (js, ks), the count prod(q^j - 1) / prod(q^k - 1).  As
   q^j - 1 is the product of Phi_d(q) over d | j, the identity holds as
   polynomials in q exactly when, for every d, e_d of the count is the
   number of j in js with d | j less the number of such k in ks.  The
   degrees come from dynkin's table, not from the closed form's floor
   formula.
2. Residue check.  The returned integer is compared modulo each of PRIMES
   with an O(n) evaluation of both products mod p, which uses neither the
   Phi_d(q) table nor ``exact.product``.  A prime where the product over
   ks is 0 mod p says nothing and is skipped; with fewer than two primes
   left, the exact big-integer equality runs instead.

``check_count`` is one check over any quotient, group over stabilizer;
dynkin builds them all.  The log path runs step 1 alone,
``_prove_exponents``, and bounds its log over the same degree lists.

The flag-count identity count = ig_count(s) * q_multinomial(s, m), with
s = sum m, written through degree lists, is this factorization for the
same P, so one proof covers both.  Any failure raises
``InexactDivisionError``.  Only the public orders ``gl_order``,
``sp_order`` and ``unipotent_radical_order`` need q^N: N is
``_positive_roots``.

The same rule proves the coarsening identities
|G/P_fine| = |G/P_coarse| * prod_j |L_j/P_j| without building any of
their counts: ``_proves_coarsening`` takes each side as quotients and
checks that every Phi_d has net exponent zero.  It serves the symplectic
chain rule and the reflection chain rules, whose brackets
[a]_t = (t^a - 1) / (t - 1) are the quotients ([a], [1]).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence

from .exact import InexactDivisionError, product

__all__ = ["PRIMES", "check_count"]

# safe primes p = 2p' + 1 below 2^61: every q other than 0 and +-1 mod p has
# multiplicative order at least p' > 2^59, so no factor q^j - 1 a count can
# reach vanishes mod p, and a prime is skipped only for q = +-1 mod p
PRIMES = (2**61 - 2373, 2**61 - 3153, 2**61 - 7245)


def _positive_roots(degrees: Iterable[int]) -> int:
    # N = sum(j - 1) for a split reductive group with these degrees: its
    # number of positive roots, and the power of q in its order
    return sum(j - 1 for j in degrees)


def _phi_exponents(terms: Iterable[tuple[int, tuple[list[int], list[int]]]]) -> list[int]:
    # e with the product of the quotients, each raised to its sign (+1 or
    # -1), equal to prod Phi_d^{e[d]}: a degree j of a group adds the sign
    # to e_d for every d | j, one of a stabilizer subtracts it; e[0] = 0
    # and len(e) is one more than the largest degree
    net = [0]
    for sign, (js, ks) in terms:
        net += [0] * (max([*js, *ks], default=0) + 1 - len(net))
        for j in js:
            net[j] += sign
        for k in ks:
            net[k] -= sign
    return [0] + [sum(net[d::d]) for d in range(1, len(net))]


def _prove_exponents(quotient: tuple[list[int], list[int]], exponents: Sequence[int]) -> None:
    # step 1 alone: the product of Phi_d(q)^{exponents[d]} is the count of
    # the quotient (js, ks) as polynomials in q
    if list(exponents) != _phi_exponents([(1, quotient)]):
        raise InexactDivisionError("flag count exponents fail the stabilizer factorization")


def _proves_coarsening(
    fine: tuple[list[int], list[int]], parts: Iterable[tuple[list[int], list[int]]]
) -> bool:
    """Whether the count ``fine`` is the product of the counts ``parts`` as
    polynomials: each is a quotient of degree lists, and every Phi_d has
    net exponent zero.  A False proves nothing: the counts can still agree
    at one value of q or t."""
    terms = itertools.chain([(1, fine)], ((-1, part) for part in parts))
    return not any(_phi_exponents(terms))


def _order_mod(degrees: Sequence[int], q: int, p: int) -> int:
    powers = [1]
    for _ in range(max(degrees, default=0)):
        powers.append(powers[-1] * q % p)
    out = 1
    for j in degrees:
        out = out * (powers[j] - 1) % p
    return out


def _order(degrees: Iterable[int], q: int) -> int:
    return product(q**j - 1 for j in degrees)


def check_count(
    quotient: tuple[list[int], list[int]], q: int, exponents: Sequence[int], value: int
) -> None:
    """Check that ``value``, the product of Phi_d(q)^{exponents[d]}, is the
    count prod(q^j - 1) / prod(q^k - 1) at q of ``quotient``, (js, ks)."""
    _prove_exponents(quotient, exponents)
    js, ks = quotient
    residues = [(p, m) for p in PRIMES if (m := _order_mod(ks, q, p))]
    if len(residues) >= 2:
        holds = all(value % p * m % p == _order_mod(js, q, p) for p, m in residues)
    else:
        holds = value * _order(ks, q) == _order(js, q)
    if not holds:
        raise InexactDivisionError("flag count fails the stabilizer factorization")
