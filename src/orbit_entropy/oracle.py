"""Brute-force validators at tiny scale.

Every word is enumerated and its symbol frequencies read off.

Reflection groups act on their root systems, each root system being the
closure of the simple roots under their reflections. Each (family, rank)
group is closed once, by composing root permutations with
bytes.translate, under the group_order cap; the closure keeps each
element's length (the positive roots it sends negative) and, per simple
reflection, the number of the element it moves each element to. A
parabolic census is a breadth-first walk from the identity over its
surviving generators' moves.

A vector of F_q^dim is coded by its index in itertools.product order, and
one table per (dim, q), built on first use, gives u + c v for codes u, v
and c in F_q as a bytes.translate table, so a span is listed as the codes
of its vectors and spans are frozensets of codes. The standard
alternating form omega is a cached function, computed once per pair of
codes it is read on. Subspaces of F_q^{2n} are one-step flags: canonical
echelon bases are kept when omega vanishes on each pair of their rows,
and the list of spans of one dimension is built once per (s, n, q),
shared by the subspace count and every flag shape. GL_m and Sp_2n are
filled in column by column. Each GL branch carries the span of its
columns down the tree, depth first, and counts the candidates for its
last column outside it. Sp_2n is enumerated once per (n, q): each column
is looked up as the intersection of level sets of omega against the
columns before it. The orbit-stabilizer check acts by columns: the first
s columns of a group element span its image of the coordinate subspace,
and each distinct tuple of them is spanned once.

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

import collections
import functools
import itertools
import operator
from collections.abc import Iterable, Sequence

from .dynkin import Diagram, _check_removal, _flag_quotient, group_order
from .exact import InexactDivisionError, IntPolynomial, Record, _field_sizes, _integral
from .symplectic import _check_flag_shape, _check_gl_rank, _check_subspace
from .symplectic import _group_order, ig_count, sp_order, unipotent_radical_order

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


def _roots(simples: list[tuple[int, ...]]) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    # every root, the closure of the simple roots under the simple
    # reflections, with its image under each simple reflection
    reflections = list(map(_reflection, simples))
    images = {}
    frontier = simples
    while frontier:
        for r in frontier:
            images[r] = [s(r) for s in reflections]
        frontier = {x for r in frontier for x in images[r]} - images.keys()
    return images


def _reflection(alpha: tuple[int, ...]):
    # the reflection in alpha as a function of v; alpha . alpha is summed
    # once, for every v
    den = sum(a * a for a in alpha)

    def reflect(v: tuple[int, ...]) -> tuple[int, ...]:
        c, rem = divmod(2 * sum(map(operator.mul, v, alpha)), den)
        if rem:
            raise InexactDivisionError("non-integral reflection coefficient")
        return tuple([a - c * b for a, b in zip(v, alpha)]) if c else v

    return reflect


def _root_system(family: str, rank: int) -> tuple[int, list[bytes]]:
    # the number npos of positive roots, those leading with a positive
    # entry, and each simple reflection as a bytes.translate table on the
    # roots' indices in sorted order.  A root leading with a negative entry
    # sorts below every positive one, so the negative roots take 0..npos-1
    # and the positive ones npos..2npos-1; indices past them map to
    # themselves.
    images = _roots(_simple_roots(family, rank))
    roots = sorted(images)
    index = {r: i for i, r in enumerate(roots)}
    rest = bytes(range(len(roots), 256))
    return len(roots) // 2, [
        bytes([index[images[r][i]] for r in roots]) + rest for i in range(rank)
    ]


@functools.cache
def _group(family: str, rank: int) -> tuple[bytes, tuple[tuple[int, ...], ...]]:
    # the whole group, closed once per (family, rank) under the group_order
    # cap.  An element is the bytes of its images of the positive roots,
    # which determine it, and is numbered in order of discovery; the
    # closure returns each element's length, the number of those images
    # that are negative, and per simple reflection s the number of s g for
    # each element g
    npos, reflections = _root_system(family, rank)
    cap = group_order(family, rank)
    identity = bytes(range(npos, 2 * npos))
    number = {identity: 0}
    elements = [identity]
    moves = [[] for _ in reflections]
    for g in elements:  # the list grows as the closure finds elements
        for s, row in zip(reflections, moves):
            h = g.translate(s)
            k = number.setdefault(h, len(elements))
            if k == len(elements):
                if k == cap:
                    raise InexactDivisionError("group closure exceeded the expected order")
                elements.append(h)
            row.append(k)
    # deleting the positive indices leaves the negative images
    lengths = bytes(len(g.translate(None, identity)) for g in elements)
    return lengths, tuple(map(tuple, moves))


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
    lengths, moves = _group(family, rank)
    removed = _check_removal(rank, removal)
    rows = [row for i, row in enumerate(moves, start=1) if i not in removed]
    # breadth first from the identity over the surviving generators' moves
    reached = [0]
    seen = {0}
    for g in reached:  # the list grows as the walk finds elements
        for row in rows:
            h = row[g]
            if h not in seen:
                seen.add(h)
                reached.append(h)
    census = bytes(map(lengths.__getitem__, reached))
    return IntPolynomial(map(census.count, range(max(census) + 1)))


# ---------------------------------------------------------------------------
# finite-field linear algebra, prime fields only


def _check_field(q: int) -> None:
    if q not in (2, 3):
        raise ValueError("brute-force enumeration supports q in {2, 3} only")


@functools.cache
def _field(dim: int, q: int) -> tuple[list[tuple[int, ...]], list[tuple[bytes, ...]]]:
    # the vectors of F_q^dim, each coded by its index in itertools.product
    # order, and the table of u + c v: for each code v, one bytes.translate
    # table per c in 0..q-1 sending each code u to the code of u + c v.
    # The caps keep q^dim <= 81, so a code fits a byte.
    vectors = list(itertools.product(range(q), repeat=dim))
    size = len(vectors)
    rest = bytes(range(size, 256))
    # adding e_i raises coordinate i by one, mod q: the code by q^(dim-1-i)
    units = []
    for i in range(dim):
        step = q ** (dim - 1 - i)
        wrap = q * step
        raised = [u + step - wrap * (v[i] == q - 1) for u, v in enumerate(vectors)]
        units.append(bytes(raised) + rest)
    # u + w is u + (w - e_i) + e_i, for i the last nonzero coordinate of w
    shifts = [bytes(range(256))]
    for w, v in enumerate(vectors[1:], start=1):
        i = max(i for i, x in enumerate(v) if x)
        shifts.append(shifts[w - q ** (dim - 1 - i)].translate(units[i]))
    # the line of v: the tables of u + c v, c v being v added c times to 0
    lines = []
    for add_v in shifts:
        line, multiple = [], 0
        for _ in range(q):
            line.append(shifts[multiple])
            multiple = add_v[multiple]
        lines.append(tuple(line))
    return vectors, lines


def _extend_span(span: bytes, line: tuple[bytes, ...]) -> bytes:
    # the codes of span and v listed from those of span and the table line
    # of v: span + c v for each c, the span's codes listed once each when v
    # lies outside it
    return b"".join([span.translate(table) for table in line])


def _span(rows: Sequence[int], dim: int, q: int) -> frozenset:
    table = _field(dim, q)[1]
    span = b"\0"
    for v in rows:
        span = _extend_span(span, table[v])
    return frozenset(span)


@functools.cache
def _omega(u: int, v: int, n: int, q: int) -> int:
    # the standard alternating form on F_q^{2n} at two codes: sum over
    # i < n of u_i v_{n+i} - u_{n+i} v_i
    vectors = _field(2 * n, q)[0]
    x, y = vectors[u], vectors[v]
    return (sum(map(operator.mul, x[:n], y[n:])) - sum(map(operator.mul, x[n:], y[:n]))) % q


def _rref_bases(s: int, dim: int, q: int):
    # canonical reduced echelon bases, one per s-dimensional subspace, as
    # tuples of row codes: coordinate col weighs q^(dim-1-col)
    for pivots in itertools.combinations(range(dim), s):
        free = [
            (row, q ** (dim - 1 - col))
            for row in range(s)
            for col in range(pivots[row] + 1, dim)
            if col not in pivots
        ]
        for values in itertools.product(range(q), repeat=len(free)):
            rows = [q ** (dim - 1 - pivot) for pivot in pivots]
            for (row, weight), val in zip(free, values):
                rows[row] += val * weight
            yield tuple(rows)


@functools.cache
def _isotropic_spans(s: int, n: int, q: int) -> tuple[frozenset, ...]:
    # one list per (s, n, q), shared by the subspace count and every flag shape
    return tuple(
        _span(rows, 2 * n, q)
        for rows in _rref_bases(s, 2 * n, q)
        if all(_omega(u, v, n, q) == 0 for u, v in itertools.combinations(rows, 2))
    )


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
    table = _field(m, q)[1]
    codes = frozenset(range(q ** m))

    def completions(span: bytes, depth: int) -> int:
        # depth-first, each branch carrying the codes of its columns' span;
        # the last column's candidates are counted, not extended
        fresh = codes.difference(span)
        if depth == m - 1:
            return len(fresh)
        return sum(completions(_extend_span(span, table[v]), depth + 1) for v in fresh)

    return completions(b"\0", 0)


@functools.cache
def _symplectic_elements(n: int, q: int) -> tuple[tuple[int, ...], ...]:
    # the whole group as tuples of column codes, enumerated once per (n, q)
    # and filled in column by column: the first column is any vector, and
    # column k a v with omega(c_i, v) = omega(e_i, e_k) for each earlier
    # column c_i, so the candidates are an intersection of level sets of
    # omega(c_i, .), one per c_i
    q, n = _field_sizes(q, n)
    _check_field(q)
    if (n, q) not in SP_FEASIBLE:
        raise ValueError(f"enumeration feasible only for (n, q) in {sorted(SP_FEASIBLE)}")
    dim = 2 * n
    codes = range(q ** dim)
    levels = [[set() for _ in range(q)] for _ in codes]
    for u, v in itertools.product(codes, repeat=2):
        levels[u][_omega(u, v, n, q)].add(v)
    basis = [q ** (dim - 1 - i) for i in range(dim)]  # the codes of e_1..e_2n
    elements = [(v,) for v in codes]
    for k in range(1, dim):
        targets = [_omega(e_i, basis[k], n, q) for e_i in basis[:k]]
        elements = [
            cols + (v,)
            for cols in elements
            for v in set.intersection(*[levels[c][w] for c, w in zip(cols, targets)])
        ]
    return tuple(elements)


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
    base = _span([q ** (dim - 1 - i) for i in range(s)], dim, q)
    _, levi = _flag_quotient((s,), n)
    # g's first s columns are its images of e_1..e_s, so they span g(base);
    # each distinct tuple of them is spanned once
    columns = collections.Counter(map(operator.itemgetter(slice(s)), group))
    images = collections.Counter()
    for cols, count in columns.items():
        images[_span(cols, dim, q)] += count
    return OrbitStabilizerReport(
        orbit_size=len(images),
        stabilizer_size=images[base],
        group_size=len(group),
        expected_orbit=ig_count(s, n, q),
        expected_stabilizer=unipotent_radical_order(s, n, q) * _group_order(levi, q),
        expected_group=sp_order(n, q),
    )
