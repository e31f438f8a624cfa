"""Probability vectors with exact rational entries, coarse-grainings of
them, and the entropy functionals that normalized orbit growth rates
converge to.

Order matters throughout: the reflective and symplectic entropies weight
the last entry specially, so permuting a vector changes them.  Entries
must be strictly positive; a block of probability zero has no parabolic
counterpart.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from fractions import Fraction

from .exact import Record, _integral

__all__ = [
    "CoarseMap",
    "ProbVec",
    "conditional",
    "pushforward",
    "reflective",
    "reflective_chain_residual",
    "shannon",
    "shannon_chain_residual",
    "symplectic_chain_residual",
    "symplectic_entropy",
    "tsallis2",
]

_LN2 = math.log(2)


class ProbVec(Record):
    """Ordered tuple of strictly positive exact probabilities summing to 1."""

    __slots__ = ("probs",)

    probs: tuple[Fraction, ...]

    def __init__(self, entries: Iterable[Fraction | int | str]) -> None:
        try:
            ps = tuple(Fraction(p) for p in entries)
        except (OverflowError, ValueError):
            raise ValueError("probabilities must be finite numbers") from None
        if not ps:
            raise ValueError("probability vector must be nonempty")
        if any(p <= 0 for p in ps):
            raise ValueError("probabilities must be strictly positive")
        if sum(ps) != 1:
            raise ValueError(f"probabilities sum to {sum(ps)}, not 1")
        self._set_fields(ps)

    def __len__(self) -> int:
        return len(self.probs)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.probs)

    def __getitem__(self, i: int) -> Fraction:
        return self.probs[i]

    def __repr__(self) -> str:
        return f"ProbVec({', '.join(str(p) for p in self.probs)})"

    @property
    def denominator(self) -> int:
        """Least n for which every n*p_i is an integer."""
        return math.lcm(*(p.denominator for p in self.probs))

    def scaled_counts(self, n: int) -> tuple[int, ...]:
        """The integer vector n*P; every entry must be integral."""
        (n,) = _integral((n,), "lengths")
        if n < 1:
            raise ValueError("n must be positive")
        counts = []
        for p in self.probs:
            c = n * p
            if c.denominator != 1:
                raise ValueError(f"n={n} does not make {p} integral")
            counts.append(int(c))
        return tuple(counts)


class CoarseMap(Record):
    """Block sizes (b_1, ..., b_m) of an increasing surjection.

    Block j collects the next b_j consecutive entries of the finer vector,
    so the last fine entry always lands in the last block.
    """

    __slots__ = ("blocks",)

    blocks: tuple[int, ...]

    def __init__(self, blocks: Iterable[int]) -> None:
        bs = _integral(blocks, "block sizes")
        if not bs:
            raise ValueError("coarse map must have at least one block")
        if any(b < 1 for b in bs):
            raise ValueError("block sizes must be positive")
        self._set_fields(bs)

    def __repr__(self) -> str:
        return f"CoarseMap({self.blocks})"

    @property
    def m(self) -> int:
        return len(self.blocks)

    @property
    def domain_size(self) -> int:
        return sum(self.blocks)


def _check_compatible(dist: ProbVec, cmap: CoarseMap) -> None:
    if cmap.domain_size != len(dist):
        raise ValueError(
            f"coarse map covers {cmap.domain_size} entries, vector has {len(dist)}"
        )


def pushforward(dist: ProbVec, cmap: CoarseMap) -> ProbVec:
    """Coarse-grained vector: block sums of ``dist``."""
    _check_compatible(dist, cmap)
    out = []
    start = 0
    for b in cmap.blocks:
        out.append(sum(dist.probs[start:start + b], Fraction(0)))
        start += b
    return ProbVec(out)


def conditional(dist: ProbVec, cmap: CoarseMap, j: int) -> ProbVec:
    """Distribution of ``dist`` within block j (1-based), renormalized."""
    _check_compatible(dist, cmap)
    if not 1 <= j <= cmap.m:
        raise ValueError(f"block index {j} out of range 1..{cmap.m}")
    start = sum(cmap.blocks[:j - 1])
    block = dist.probs[start:start + cmap.blocks[j - 1]]
    total = sum(block, Fraction(0))
    return ProbVec(p / total for p in block)


def _ln(p: Fraction) -> float:
    # log of numerator and denominator separately keeps tiny p accurate
    return math.log(p.numerator) - math.log(p.denominator)


def shannon(dist: ProbVec) -> float:
    """Shannon entropy in nats."""
    return -math.fsum(float(p) * _ln(p) for p in dist)


def tsallis2(dist: ProbVec) -> Fraction:
    """Order-2 Tsallis entropy 1 - sum p_i^2, exact."""
    return 1 - sum((p * p for p in dist), Fraction(0))


def reflective(dist: ProbVec) -> float:
    """Shannon entropy plus (1 - p_k) ln 2, the orbit growth rate of the
    signed-permutation families."""
    return shannon(dist) + float(1 - dist[-1]) * _LN2


def symplectic_entropy(dist: ProbVec) -> Fraction:
    """Half the Tsallis-2 entropy plus (1 - p_k^2)/2, exact."""
    pk = dist[-1]
    return tsallis2(dist) / 2 + (1 - pk * pk) / 2


def _chain_residual(outer, inner, weight, total, dist: ProbVec, cmap: CoarseMap):
    """outer(P) - (outer(Q) + total(weight(Q_j) * f_j(P|j))), with Q the
    pushforward, P|j the conditional, and f_j inner for each interior block
    and outer for the last.  It is the additive counterpart of the
    multiplicative chain rule of report.chain_rule_check, which the
    reflection and symplectic checks prove from degree lists; the
    entropies satisfy it in the limit of the normalized log counts.  A
    one-part block contributes a zero term."""
    coarse = pushforward(dist, cmap)
    parts = [
        weight(q) * (outer if j == cmap.m else inner)(conditional(dist, cmap, j))
        for j, q in enumerate(coarse, 1)
    ]
    return outer(dist) - (outer(coarse) + total(parts))


def shannon_chain_residual(dist: ProbVec, cmap: CoarseMap) -> float:
    """H(P) minus its two-stage decomposition through the coarse map."""
    return _chain_residual(shannon, shannon, float, math.fsum, dist, cmap)


def reflective_chain_residual(dist: ProbVec, cmap: CoarseMap) -> float:
    """Reflective analog: interior blocks contribute Shannon terms, the
    last block contributes a reflective term."""
    return _chain_residual(reflective, shannon, float, math.fsum, dist, cmap)


def symplectic_chain_residual(dist: ProbVec, cmap: CoarseMap) -> Fraction:
    """Symplectic analog, exact: interior blocks contribute (q_j^2/2) H_2
    terms, the last block q_m^2 times its symplectic entropy."""
    return _chain_residual(
        symplectic_entropy, lambda d: tsallis2(d) / 2, lambda q: q * q, sum, dist, cmap
    )
