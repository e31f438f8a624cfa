"""The result record for exact identity checks, and the chain rule every
orbit count satisfies under coarse-graining."""

from __future__ import annotations

import operator
from functools import reduce

from .entropy import CoarseMap, ProbVec, conditional, pushforward
from .exact import Record
from .verify import _proves_coarsening

__all__ = ["IdentityReport", "chain_rule_check"]


class IdentityReport(Record):
    """Both sides of a checked identity; works for ints, fractions, and
    polynomials alike.  Once an identity is proved rather than computed,
    rhs is lhs, the same object, and the residual is zero."""

    __slots__ = ("lhs", "rhs")

    lhs: object
    rhs: object

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs

    @property
    def residual(self) -> object:
        return self.lhs - self.rhs


def _factors(outer, inner, n: int, dist: ProbVec, cmap: CoarseMap):
    # the right-hand side's factors in order: outer(n, Q), then
    # inner(n_j, P|j) for each interior block and outer(n_m, P|m) for the
    # last, one-part blocks skipped
    coarse = pushforward(dist, cmap)
    yield outer(n, coarse)
    for j, (size, n_j) in enumerate(zip(cmap.blocks, coarse.scaled_counts(n)), 1):
        if size > 1:
            yield (outer if j == cmap.m else inner)(n_j, conditional(dist, cmap, j))


def chain_rule_check(
    outer, inner, n: int, dist: ProbVec, cmap: CoarseMap
) -> IdentityReport:
    """Both sides of |G/P_fine| = |G/P_coarse| * prod_j |L_j/P_j|, the
    identity behind the entropy chain rules (entropy.*_chain_residual),
    each side computed and multiplied out.

    lhs is outer(n, P); rhs is outer(n, Q), Q the pushforward, times
    inner(n_j, P|j) for each interior block and outer(n_m, P|m) for the
    last, with n_j = n*Q_j and P|j the conditional.  A one-part block
    contributes 1 and is skipped.  lhs goes first, so a non-integral n is
    reported against the fine entries.

    The coarsening checks of reflection and symplectic prove the identity
    from degree lists instead and build only lhs; this computed route is
    their fallback when the proof fails, and the tests' oracle for them.
    """
    lhs = outer(n, dist)
    return IdentityReport(lhs, reduce(operator.mul, _factors(outer, inner, n, dist, cmap)))


def _proved_chain_rule(outer, inner, n: int, dist: ProbVec, cmap: CoarseMap) -> IdentityReport:
    # chain_rule_check's report for the gradings outer and inner, each a
    # pair (count, orders) with orders(n, P) the dynkin.Quotient that
    # count(n, P) evaluates.  lhs is built; the right-hand side is proved
    # equal to it from the orders by verify._proves_coarsening, and only
    # when the proof fails does chain_rule_check compute both sides
    (count, orders), (inner_count, inner_orders) = outer, inner
    lhs = count(n, dist)
    if _proves_coarsening(orders(n, dist), _factors(orders, inner_orders, n, dist, cmap)):
        return IdentityReport(lhs, lhs)
    return chain_rule_check(count, inner_count, n, dist, cmap)
