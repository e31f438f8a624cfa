"""The one verification policy of the symplectic flag counts.

``ig_count``, ``isotropic_flag_count`` and ``sp_quotient_closed`` all count
the flags of one shape, |Sp_n / P| for the parabolic P fixing an isotropic
flag with increments m_1, ..., m_k.  Each hands ``check_count`` the
``Quotient`` (|Sp_n|, |P|), its exponent vector and its value; the check
proves count * |P| = |Sp_n| in two steps, and builds a group order as a
big integer only in the fallback of step 2:

1. Symbolic proof.  A split reductive group with degrees d_i has order
   q^N prod(q^{d_i} - 1), N = sum(d_i - 1) its number of positive roots.
   |Sp_n| takes the type-C degrees 2, 4, ..., 2n.  |P| takes the degrees
   of its Levi factor GL_{m_1} x ... x GL_{m_k} x Sp_r, r = n - sum m,
   and the power of q of Sp_n, because the unipotent radical holds
   exactly the positive roots outside the Levi.  q^j - 1 is the product
   of Phi_d(q) over the divisors d of j, so the identity holds as
   polynomials in q exactly when the powers of q agree and, for every d,
   e_d of the count equals the number of degrees j with d | j, those of
   |Sp_n| counted positive and those of |P| negative.  The degrees come
   from dynkin's table, not from the floor formula the closed form uses.
2. Residue check.  The returned integer is compared modulo each of PRIMES
   with an O(n) evaluation of the same group orders mod p, which uses
   neither the Phi_d(q) table nor ``exact.product``.  A prime where |P| is
   0 mod p says nothing about the count and is skipped; with fewer than
   two primes left, the exact big-integer equality runs instead.

``check_count`` is one check over any ``Quotient`` (|G|, |H|), group over
stabilizer.  The log path runs step 1 alone, ``_prove_exponents``, and
bounds its log over the same quotient's degree lists.

The flag-count identity count = ig_count(s) * q_multinomial(s, m), with
s = sum m, written through group orders, is this factorization for the
same P, so one proof covers both.  Any failure raises
``InexactDivisionError``.  The public orders ``gl_order``, ``sp_order``
and ``unipotent_radical_order`` evaluate the same group orders.

The same bookkeeping proves the coarsening identities
|G/P_fine| = |G/P_coarse| * prod_j |L_j/P_j| without building any of
their counts: ``_proves_coarsening`` takes each side as quotients of
degree lists and compares the net exponent of each Phi_d.  It serves
the symplectic chain rule, over orders in q, and the reflection chain
rules, over the bracket sizes of the length generating functions, whose
brackets [a]_t = (t^a - 1) / (t - 1) carry no Phi_1.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence

from .dynkin import _bracket_sizes
from .exact import InexactDivisionError, product

__all__ = ["PRIMES", "check_count"]

# safe primes p = 2p' + 1 below 2^61: every q other than 0 and +-1 mod p has
# multiplicative order at least p' > 2^59, so no factor q^j - 1 a count can
# reach vanishes mod p, and a prime is skipped only for q = 0 or +-1 mod p
PRIMES = (2**61 - 2373, 2**61 - 3153, 2**61 - 7245)

# q^a * prod(q^j - 1 for j in js), as (a, js)
GroupOrder = tuple[int, list[int]]
# a count |G| / |H|, as the orders (|G|, |H|)
Quotient = tuple[GroupOrder, GroupOrder]


def _reductive_order(degrees: Iterable[int]) -> GroupOrder:
    js = list(degrees)
    return sum(j - 1 for j in js), js


def _gl_degrees(m: int) -> list[int]:
    # those of SL_m, of type A_{m-1}, and the degree 1 of the centre
    return [1, *_bracket_sizes("A", m - 1)] if m else []


def _symplectic_order(n: int) -> GroupOrder:
    return _reductive_order(_bracket_sizes("C", n))


def _parabolic_quotient(group: GroupOrder, blocks: Sequence[int], rest=()) -> Quotient:
    # (|G|, |P|): |P| has G's power of q and the Levi degrees, GL_m per m in blocks, then rest
    return group, (group[0], [j for m in blocks for j in _gl_degrees(m)] + [*rest])


def _flag_quotient(blocks: Sequence[int], n: int) -> Quotient:
    rest = _bracket_sizes("C", n - sum(blocks))
    return _parabolic_quotient(_symplectic_order(n), blocks, rest)


def _phi_exponents(terms: Iterable[tuple[int, Quotient]]) -> tuple[int, list[int]]:
    # (a, e) with the product of the quotients, each raised to its sign
    # (+1 or -1), equal to q^a prod Phi_d(q)^{e[d]}: a degree j of a group
    # adds the sign to e_d for every d | j, one of a stabilizer subtracts
    # it; e[0] = 0 and len(e) is one more than the largest degree
    power, net = 0, [0]
    for sign, ((a, js), (b, ks)) in terms:
        power += sign * (a - b)
        net += [0] * (max([*js, *ks], default=0) + 1 - len(net))
        for j in js:
            net[j] += sign
        for k in ks:
            net[k] -= sign
    return power, [0] + [sum(net[d::d]) for d in range(1, len(net))]


def _prove_exponents(quotient: Quotient, exponents: Sequence[int]) -> None:
    # step 1 alone: the product of Phi_d(q)^{exponents[d]} is |G| / |H| as
    # polynomials in q, for the quotient (|G|, |H|)
    power, net = _phi_exponents([(1, quotient)])
    if power or list(exponents) != net:
        raise InexactDivisionError("flag count exponents fail the stabilizer factorization")


def _proves_coarsening(fine: Quotient, parts: Iterable[Quotient], least: int) -> bool:
    """Whether the count ``fine`` is the product of the counts ``parts`` as
    polynomials: each is a quotient of group orders, the powers of q of
    both sides agree, and so does the exponent of each Phi_d with d >=
    ``least``.  The reflection chain rules pass least = 2, since their
    brackets carry no Phi_1; the orders in q pass least = 1.  A False
    proves nothing: the counts can still agree at one value of q or t."""
    terms = itertools.chain([(1, fine)], ((-1, part) for part in parts))
    power, net = _phi_exponents(terms)
    return not power and not any(net[least:])


def _order_mod(order: GroupOrder, q: int, p: int) -> int:
    a, js = order
    powers = [1]
    for _ in range(max(js, default=0)):
        powers.append(powers[-1] * q % p)
    out = pow(q, a, p)
    for j in js:
        out = out * (powers[j] - 1) % p
    return out


def _order(order: GroupOrder, q: int) -> int:
    a, js = order
    return q**a * product(q**j - 1 for j in js)


def check_count(quotient: Quotient, q: int, exponents: Sequence[int], value: int) -> None:
    """Check that ``value``, the product of Phi_d(q)^{exponents[d]}, is the
    count |G| / |H| at q of ``quotient``, the orders (|G|, |H|)."""
    _prove_exponents(quotient, exponents)
    group, stabilizer = quotient
    residues = [(p, m) for p in PRIMES if (m := _order_mod(stabilizer, q, p))]
    if len(residues) >= 2:
        holds = all(value % p * m % p == _order_mod(group, q, p) for p, m in residues)
    else:
        holds = value * _order(stabilizer, q) == _order(group, q)
    if not holds:
        raise InexactDivisionError("flag count fails the stabilizer factorization")
