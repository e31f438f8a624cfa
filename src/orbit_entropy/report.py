"""The result record for exact identity checks, and the chain rule every
orbit count satisfies under coarse-graining."""

from __future__ import annotations

from .entropy import CoarseMap, ProbVec, conditional, pushforward
from .exact import Record

__all__ = ["IdentityReport", "chain_rule_check"]


class IdentityReport(Record):
    """Both sides of a checked identity; works for ints, fractions, and
    polynomials alike."""

    __slots__ = ("lhs", "rhs")

    lhs: object
    rhs: object

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs

    @property
    def residual(self) -> object:
        return self.lhs - self.rhs


def chain_rule_check(
    outer, inner, n: int, dist: ProbVec, cmap: CoarseMap
) -> IdentityReport:
    """Both sides of |G/P_fine| = |G/P_coarse| * prod_j |L_j/P_j|, the
    identity behind the entropy chain rules (entropy.*_chain_residual).

    lhs is outer(n, P); rhs is outer(n, Q), Q the pushforward, times
    inner(n_j, P|j) for each interior block and outer(n_m, P|m) for the
    last, with n_j = n*Q_j and P|j the conditional.  A one-part block
    contributes 1 and is skipped.  lhs goes first, so a non-integral n is
    reported against the fine entries.
    """
    lhs = outer(n, dist)
    coarse = pushforward(dist, cmap)
    rhs = outer(n, coarse)
    for j, (size, n_j) in enumerate(zip(cmap.blocks, coarse.scaled_counts(n)), 1):
        if size > 1:
            grading = outer if j == cmap.m else inner
            rhs *= grading(n_j, conditional(dist, cmap, j))
    return IdentityReport(lhs, rhs)
