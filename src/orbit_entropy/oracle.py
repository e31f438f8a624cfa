"""Brute-force validators at tiny scale.

Every word is enumerated and its symbol frequencies read off. Reflection
groups are closed under explicit multiplication acting on their root
systems, each root system being the closure of the simple roots under
their reflections, built once per (family, rank). Subspaces of F_q^{2n}
are one-step flags, enumerated through canonical echelon bases and kept
when the standard alternating form omega vanishes on each pair of basis
vectors. omega is a cached function, computed once per pair of vectors
it is read on, by the Sp_2n column search too. GL_m and Sp_2n are
filled in column by column, depth first: each GL branch carries the
span of its columns down the tree and counts the candidates for its
last column, and Sp_2n is cached, enumerated once per (n, q). The
orbit-stabilizer check acts by columns: the first s columns of a group
element span its image of the coordinate subspace, and each tuple of
columns, like each echelon basis, is spanned once by the cached _span.

Nothing here reuses the closed forms it exists to validate; the only
closed-form imports are the expected sizes used as closure caps and the
reference values packed into the orbit report. Its input checks are
exact's, dynkin's and symplectic's, so the oracle and the closed forms
refuse the same inputs with the same messages; only the caps and the
prime-field rule are its own.

Hard caps (word length 10, rank 4, half-dimension 2, prime fields F_2
and F_3, 70000 words or matrices listed) are constants; exceeding one is
an error, not a best-effort attempt.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections.abc import Iterable, Sequence

from .dynkin import Diagram, _check_removal, group_order
from .exact import InexactDivisionError, IntPolynomial, Record, _field_sizes, _integral
from .symplectic import _check_flag_shape, _check_gl_rank, _check_subspace
from .symplectic import _group_order, ig_count, sp_order, unipotent_radical_order
from .verify import _flag_quotient

__all__ = [
    "MAX_WORD_LENGTH",
    "MAX_RANK",
    "MAX_HALF_DIM",
    "MAX_LISTED",
    "SP_FEASIBLE",
    "OrbitStabilizerReport",
    "count_type_class",
    "reflection_length_census",
    "parabolic_length_census",
    "enumerate_general_linear",
    "enumerate_isotropic_subspaces",
    "enumerate_isotropic_flags",
    "enumerate_symplectic_group",
    "stabilizer_and_orbit_check",
]

MAX_WORD_LENGTH = 10
MAX_RANK = 4
MAX_HALF_DIM = 2
MAX_LISTED = 70000

# the symplectic group fits a filtered enumeration only here
SP_FEASIBLE = {(1, 2), (1, 3), (2, 2)}


def count_type_class(n: int, counts: Sequence[int]) -> int:
    """Number of length-n words over {1..k} whose symbol frequencies are
    exactly `counts`, found by enumerating all k^n words."""
    (n,) = _integral((n,), "word lengths")
    if not 0 <= n <= MAX_WORD_LENGTH:
        raise ValueError(f"word length must be between 0 and {MAX_WORD_LENGTH}")
    target = _integral(counts, "symbol counts")
    if any(c < 0 for c in target):
        raise ValueError("symbol counts must be nonnegative")
    if sum(target) != n:
        raise ValueError("symbol counts must sum to the word length")
    if len(target) ** n > MAX_LISTED:
        raise ValueError(f"word enumeration capped at k^n <= {MAX_LISTED}")
    # symbol a weighs (n + 1)^a, so the weights of a word's symbols sum
    # to its frequencies written in base n + 1
    weights = [(n + 1) ** a for a in range(len(target))]
    code = sum(c * w for c, w in zip(target, weights))
    return operator.countOf(map(sum, itertools.product(weights, repeat=n)), code)


# ---------------------------------------------------------------------------
# reflection groups on their root systems


def _root(dim: int, i: int, j: int = 0, sign: int = 0) -> tuple[int, ...]:
    # e_i + sign * e_j; the defaults give e_i
    v = [0] * dim
    v[i] += 1
    v[j] += sign
    return tuple(v)


def _simple_roots(family: str, rank: int) -> list[tuple[int, ...]]:
    if family not in ("A", "B", "D"):
        raise ValueError("root realizations cover families A, B, D")
    if not 1 <= rank <= MAX_RANK:
        raise ValueError(f"rank must be between 1 and {MAX_RANK}")
    if family == "A":
        return [_root(rank + 1, i, i + 1, -1) for i in range(rank)]
    chain = [_root(rank, i, i + 1, -1) for i in range(rank - 1)]
    if family == "B":
        return chain + [_root(rank, rank - 1)]
    Diagram(family, rank)  # family D needs rank >= 2
    return chain + [_root(rank, rank - 2, rank - 1, 1)]


def _positive_roots(simples: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    # every root is the image of a simple root under the simple
    # reflections; the positive ones lead with a positive entry
    reflections = list(map(_reflection, simples))
    roots = set(simples)
    frontier = roots
    while frontier:
        frontier = {s(r) for r in frontier for s in reflections} - roots
        roots |= frontier
    return sorted(r for r in roots if next(x for x in r if x) > 0)


def _reflection(alpha: tuple[int, ...]):
    # the reflection in alpha as a function of v; alpha . alpha is summed
    # once, for every v
    den = sum(a * a for a in alpha)

    def reflect(v: tuple[int, ...]) -> tuple[int, ...]:
        num = 2 * sum(map(operator.mul, v, alpha))
        c = num // den
        if c * den != num:
            raise InexactDivisionError("non-integral reflection coefficient")
        return tuple(a - c * b for a, b in zip(v, alpha))

    return reflect


def _root_permutation(reflect, pos: list[tuple[int, ...]], index: dict) -> tuple[int, ...]:
    # signed 1-based images of each positive root under the reflection
    out = []
    for rho in pos:
        image = reflect(rho)
        if image in index:
            out.append(index[image] + 1)
        else:
            out.append(-(index[tuple(-x for x in image)] + 1))
    return tuple(out)


@functools.cache
def _root_system(family: str, rank: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    # the number of positive roots and the permutations of them by the
    # simple reflections, in node order: one closure per (family, rank)
    simples = _simple_roots(family, rank)
    pos = _positive_roots(simples)
    index = {r: i for i, r in enumerate(pos)}
    return len(pos), tuple(
        _root_permutation(_reflection(a), pos, index) for a in simples
    )


def _close_group(
    generators: list[tuple[int, ...]], npos: int, cap: int
) -> set[tuple[int, ...]]:
    # elements are stored as (0, images of roots 1..npos) and each generator
    # s as (0, s, -s reversed), so that s[-j] = -s[j] and itemgetter(*g)(s),
    # first g then s, is a tuple even at npos = 1
    signed = [(0,) + s + tuple(-j for j in reversed(s)) for s in generators]
    identity = tuple(range(npos + 1))
    seen = {identity}
    frontier = [identity]
    while frontier:
        fresh = []
        for g in frontier:
            pick = operator.itemgetter(*g)
            for s in signed:
                h = pick(s)
                if h not in seen:
                    seen.add(h)
                    fresh.append(h)
        if len(seen) > cap:
            raise InexactDivisionError("group closure exceeded the expected order")
        frontier = fresh
    return seen


def _census(elements: Iterable[tuple[int, ...]], npos: int) -> IntPolynomial:
    coeffs = [0] * (npos + 1)
    for g in elements:
        coeffs[sum(1 for j in g if j < 0)] += 1
    return IntPolynomial(coeffs)


def reflection_length_census(family: str, rank: int) -> IntPolynomial:
    """Sum of t^(length) over the whole group, with length counted as the
    number of positive roots sent negative."""
    census = parabolic_length_census(family, rank, ())
    expected = group_order(family, rank)
    if census(1) != expected:
        raise InexactDivisionError(
            f"closure reached {census(1)} elements, expected {expected}"
        )
    return census


def parabolic_length_census(
    family: str, rank: int, removal: Iterable[int]
) -> IntPolynomial:
    """Same census over the subgroup generated by the simple reflections
    that survive the removal; lengths stay ambient."""
    (rank,) = _integral((rank,), "ranks")
    npos, reflections = _root_system(family, rank)
    removed = _check_removal(rank, removal)
    gens = [s for i, s in enumerate(reflections, start=1) if i not in removed]
    elements = _close_group(gens, npos, group_order(family, rank))
    return _census(elements, npos)


# ---------------------------------------------------------------------------
# finite-field linear algebra, prime fields only


def _check_field(q: int) -> None:
    if q not in (2, 3):
        raise ValueError("brute-force enumeration supports q in {2, 3} only")


@functools.cache
def _omega(u: tuple[int, ...], v: tuple[int, ...], q: int) -> int:
    # the standard alternating form on F_q^{2n}: sum over i < n of
    # u_i v_{n+i} - u_{n+i} v_i
    n = len(u) // 2
    return sum(u[i] * v[n + i] - u[n + i] * v[i] for i in range(n)) % q


def _rref_bases(s: int, dim: int, q: int):
    # canonical reduced echelon bases: one per s-dimensional subspace
    for pivots in itertools.combinations(range(dim), s):
        pivot_set = set(pivots)
        free = [
            (row, col)
            for row in range(s)
            for col in range(pivots[row] + 1, dim)
            if col not in pivot_set
        ]
        template = [[int(col == pivot) for col in range(dim)] for pivot in pivots]
        for values in itertools.product(range(q), repeat=len(free)):
            rows = [r[:] for r in template]
            for (row, col), val in zip(free, values):
                rows[row][col] = val
            yield tuple(map(tuple, rows))


def _extend_span(span: frozenset, v: tuple[int, ...], q: int) -> frozenset:
    # the span of span's vectors and v: each of them plus each multiple of v
    multiples = [[c * x % q for x in v] for c in range(1, q)]
    return span.union(
        [tuple([(a + b) % q for a, b in zip(u, w)]) for w in multiples for u in span]
    )


@functools.cache
def _span(rows, dim: int, q: int) -> frozenset:
    span = frozenset([(0,) * dim])
    for row in rows:
        span = _extend_span(span, row, q)
    return span


def _isotropic_spans(s: int, n: int, q: int) -> list[frozenset]:
    dim = 2 * n
    return [
        _span(rows, dim, q)
        for rows in _rref_bases(s, dim, q)
        if all(_omega(u, v, q) == 0 for u, v in itertools.combinations(rows, 2))
    ]


def enumerate_isotropic_subspaces(s: int, n: int, q: int) -> int:
    """Count of s-dimensional totally isotropic subspaces of F_q^{2n},
    by filtering canonical echelon bases: the flags with one step."""
    _check_subspace(s, n)
    return enumerate_isotropic_flags((s,) if s else (), n, q)


def enumerate_isotropic_flags(increments: Sequence[int], n: int, q: int) -> int:
    """Count of nested isotropic chains with the given dimension
    increments, by counting containments between enumerated subspaces."""
    q, n = _field_sizes(q, n)
    _check_field(q)
    if n > MAX_HALF_DIM:
        raise ValueError(f"half-dimension capped at {MAX_HALF_DIM}")
    incs = _check_flag_shape(increments, n)
    if not incs:
        return 1
    dims = list(itertools.accumulate(incs))
    ways = {span: 1 for span in _isotropic_spans(dims[0], n, q)}
    for d in dims[1:]:
        ways = {
            big: sum(c for small, c in ways.items() if small <= big)
            for big in _isotropic_spans(d, n, q)
        }
    return sum(ways.values())


def enumerate_general_linear(m: int, q: int) -> int:
    """Count of invertible m-by-m matrices over F_q, by listing their
    columns one at a time, each outside the span of the columns before it."""
    q, m = _field_sizes(q, m)
    _check_field(q)
    _check_gl_rank(m)
    if q ** (m * m) > MAX_LISTED:
        raise ValueError(f"general linear enumeration capped at q^(m*m) <= {MAX_LISTED}")
    if m == 0:
        return 1
    vectors = list(itertools.product(range(q), repeat=m))

    def completions(span: frozenset, depth: int) -> int:
        # depth-first, each branch carrying the span of its columns; the
        # last column's candidates are counted, not extended
        fresh = [v for v in vectors if v not in span]
        if depth == m - 1:
            return len(fresh)
        return sum(completions(_extend_span(span, v, q), depth + 1) for v in fresh)

    return completions(_span((), m, q), 0)


@functools.cache
def _symplectic_elements(n: int, q: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    # the whole group as column tuples, filled in column by column
    # depth-first under the form constraints; enumerated once per (n, q)
    q, n = _field_sizes(q, n)
    _check_field(q)
    if (n, q) not in SP_FEASIBLE:
        raise ValueError(f"enumeration feasible only for (n, q) in {sorted(SP_FEASIBLE)}")
    dim = 2 * n
    vectors = list(itertools.product(range(q), repeat=dim))
    basis = [_root(dim, i) for i in range(dim)]
    found = []

    def extend(cols: tuple) -> None:
        # column k is a v with omega(c_i, v) = omega(e_i, e_k) for each earlier c_i
        if len(cols) == dim:
            found.append(cols)
            return
        e_k = basis[len(cols)]
        candidates = vectors
        for c, e_i in zip(cols, basis):
            w = _omega(e_i, e_k, q)
            candidates = [v for v in candidates if _omega(c, v, q) == w]
        for v in candidates:
            extend(cols + (v,))

    extend(())
    return tuple(found)


def enumerate_symplectic_group(n: int, q: int) -> int:
    """Count of 2n-by-2n matrices over F_q preserving the standard
    alternating form."""
    return len(_symplectic_elements(n, q))


class OrbitStabilizerReport(Record):
    __slots__ = ("orbit_size", "stabilizer_size", "group_size",
                 "expected_orbit", "expected_stabilizer", "expected_group")

    orbit_size: int
    stabilizer_size: int
    group_size: int
    expected_orbit: int
    expected_stabilizer: int
    expected_group: int

    @property
    def holds(self) -> bool:
        return (
            self.orbit_size == self.expected_orbit
            and self.stabilizer_size == self.expected_stabilizer
            and self.orbit_size * self.stabilizer_size == self.expected_group
        )


def stabilizer_and_orbit_check(s: int, n: int, q: int = 2) -> OrbitStabilizerReport:
    """Acts the enumerated group on the coordinate isotropic subspace
    spanned by the first s basis vectors and compares the orbit size with
    ig_count and the stabilizer size with |P| = |U| |L|, over the Levi
    degrees that ig_count's proof reads."""
    q, s, n = _field_sizes(q, s, n)
    _check_subspace(s, n)
    group = _symplectic_elements(n, q)
    dim = 2 * n
    base = _span(tuple(_root(dim, i) for i in range(s)), dim, q)
    _, levi = _flag_quotient((s,), n)
    orbit = set()
    stabilizer = 0
    for g in group:
        # g's first s columns are its images of e_1..e_s, so they span
        # g(base); each distinct tuple of them is spanned once
        image = _span(g[:s], dim, q)
        orbit.add(image)
        if image == base:
            stabilizer += 1
    return OrbitStabilizerReport(
        orbit_size=len(orbit),
        stabilizer_size=stabilizer,
        group_size=len(group),
        expected_orbit=ig_count(s, n, q),
        expected_stabilizer=unipotent_radical_order(s, n, q) * _group_order(levi, q),
        expected_group=sp_order(n, q),
    )
