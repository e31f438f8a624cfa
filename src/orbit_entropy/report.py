"""Immutable records, the result record for exact identity checks, and
the chain rule every orbit count satisfies under coarse-graining."""

from __future__ import annotations

from typing import Any

from .entropy import CoarseMap, ProbVec, conditional, pushforward

__all__ = ["Record", "IdentityReport", "chain_rule_check"]


class Record:
    """Base of an immutable value whose fields are its __slots__: equal
    and hashed by field values, with a constructor-style repr.  A
    subclass's __init__ takes the fields in slot order, validates them and
    stores them with _set_fields; nothing can assign to them afterwards."""

    __slots__ = ()

    def _set_fields(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class IdentityReport(Record):
    """Both sides of a checked identity; works for ints, fractions, and
    polynomials alike."""

    __slots__ = ("lhs", "rhs")

    lhs: Any
    rhs: Any

    def __init__(self, lhs: Any, rhs: Any) -> None:
        self._set_fields(lhs, rhs)

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs

    @property
    def residual(self) -> Any:
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
