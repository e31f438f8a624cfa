"""Brute-force validators at tiny scale.

Words are enumerated symbol by symbol, reflection groups are closed
under explicit multiplication acting on their root systems, and
subspaces of F_q^{2n} are enumerated through canonical echelon bases.
Nothing here reuses the closed forms it exists to validate; the only
closed-form imports are the expected sizes used as closure caps and the
reference values packed into the orbit report.

Hard caps (word length 10, rank 4, half-dimension 2, prime fields F_2
and F_3) are constants; exceeding one is an error, not a best-effort
attempt.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from .dynkin import group_order
from .exact import InexactDivisionError, IntPolynomial
from .report import Record
from .symplectic import gl_order, ig_count, sp_order, unipotent_radical_order

__all__ = [
    "MAX_WORD_LENGTH",
    "MAX_RANK",
    "MAX_HALF_DIM",
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

# the symplectic group fits a filtered enumeration only here
SP_FEASIBLE = {(1, 2), (1, 3), (2, 2)}


def count_type_class(n: int, counts: Sequence[int]) -> int:
    """Number of length-n words over {1..k} whose symbol frequencies are
    exactly `counts`, found by enumerating all k^n words."""
    if not 0 <= n <= MAX_WORD_LENGTH:
        raise ValueError(f"word length must be between 0 and {MAX_WORD_LENGTH}")
    target = tuple(int(c) for c in counts)
    if any(c < 0 for c in target):
        raise ValueError("symbol counts must be nonnegative")
    if sum(target) != n:
        raise ValueError("symbol counts must sum to the word length")
    k = len(target)
    total = 0
    for word in itertools.product(range(k), repeat=n):
        seen = [0] * k
        for a in word:
            seen[a] += 1
        if tuple(seen) == target:
            total += 1
    return total


# ---------------------------------------------------------------------------
# reflection groups on their root systems


def _basis(dim: int, i: int, sign: int = 1) -> tuple[int, ...]:
    v = [0] * dim
    v[i] = sign
    return tuple(v)


def _simple_roots(family: str, rank: int) -> list[tuple[int, ...]]:
    if family not in ("A", "B", "D"):
        raise ValueError("root realizations cover families A, B, D")
    if not 1 <= rank <= MAX_RANK:
        raise ValueError(f"rank must be between 1 and {MAX_RANK}")
    if family == "A":
        dim = rank + 1
        return [
            tuple(a - b for a, b in zip(_basis(dim, i), _basis(dim, i + 1)))
            for i in range(rank)
        ]
    dim = rank
    chain = [
        tuple(a - b for a, b in zip(_basis(dim, i), _basis(dim, i + 1)))
        for i in range(rank - 1)
    ]
    if family == "B":
        return chain + [_basis(dim, rank - 1)]
    if rank < 2:
        raise ValueError("family D requires rank >= 2")
    last = tuple(
        a + b for a, b in zip(_basis(dim, rank - 2), _basis(dim, rank - 1))
    )
    return chain + [last]


def _positive_roots(family: str, rank: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    if family == "A":
        dim = rank + 1
        for i in range(dim):
            for j in range(i + 1, dim):
                out.append(
                    tuple(a - b for a, b in zip(_basis(dim, i), _basis(dim, j)))
                )
        return out
    dim = rank
    for i in range(dim):
        for j in range(i + 1, dim):
            ei, ej = _basis(dim, i), _basis(dim, j)
            out.append(tuple(a - b for a, b in zip(ei, ej)))
            out.append(tuple(a + b for a, b in zip(ei, ej)))
    if family == "B":
        out.extend(_basis(dim, i) for i in range(dim))
    return out


def _reflect(v: tuple[int, ...], alpha: tuple[int, ...]) -> tuple[int, ...]:
    num = 2 * sum(a * b for a, b in zip(v, alpha))
    den = sum(a * a for a in alpha)
    c = num // den
    if c * den != num:
        raise InexactDivisionError("non-integral reflection coefficient")
    return tuple(a - c * b for a, b in zip(v, alpha))


def _root_permutation(
    alpha: tuple[int, ...], pos: list[tuple[int, ...]], index: dict
) -> tuple[int, ...]:
    # signed 1-based images of each positive root under the reflection
    out = []
    for rho in pos:
        image = _reflect(rho, alpha)
        if image in index:
            out.append(index[image] + 1)
        else:
            out.append(-(index[tuple(-x for x in image)] + 1))
    return tuple(out)


def _compose(g: tuple[int, ...], h: tuple[int, ...]) -> tuple[int, ...]:
    # first h, then g
    out = []
    for j in h:
        out.append(g[j - 1] if j > 0 else -g[-j - 1])
    return tuple(out)


def _close_group(
    generators: list[tuple[int, ...]], npos: int, cap: int
) -> set[tuple[int, ...]]:
    identity = tuple(range(1, npos + 1))
    seen = {identity}
    frontier = [identity]
    while frontier:
        fresh = []
        for g in frontier:
            for s in generators:
                h = _compose(s, g)
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
    simples = _simple_roots(family, rank)
    pos = _positive_roots(family, rank)
    index = {r: i for i, r in enumerate(pos)}
    gens = [_root_permutation(a, pos, index) for a in simples]
    expected = group_order(family, rank)
    elements = _close_group(gens, len(pos), expected)
    if len(elements) != expected:
        raise InexactDivisionError(
            f"closure reached {len(elements)} elements, expected {expected}"
        )
    return _census(elements, len(pos))


def parabolic_length_census(
    family: str, rank: int, removal: Iterable[int]
) -> IntPolynomial:
    """Same census over the subgroup generated by the simple reflections
    that survive the removal; lengths stay ambient."""
    simples = _simple_roots(family, rank)
    removed = {int(r) for r in removal}
    for r in removed:
        if not 1 <= r <= rank:
            raise ValueError(f"node {r} outside 1..{rank}")
    pos = _positive_roots(family, rank)
    index = {r: i for i, r in enumerate(pos)}
    gens = [
        _root_permutation(a, pos, index)
        for i, a in enumerate(simples, start=1)
        if i not in removed
    ]
    elements = _close_group(gens, len(pos), group_order(family, rank))
    return _census(elements, len(pos))


# ---------------------------------------------------------------------------
# finite-field linear algebra, prime fields only


def _check_field(q: int) -> None:
    if q not in (2, 3):
        raise ValueError("brute-force enumeration supports q in {2, 3} only")


def _symplectic_gram(n: int, q: int) -> tuple[tuple[int, ...], ...]:
    dim = 2 * n
    rows = [[0] * dim for _ in range(dim)]
    for i in range(n):
        rows[i][n + i] = 1
        rows[n + i][i] = q - 1
    return tuple(tuple(r) for r in rows)

def _form(J, u, v, q):
    total = 0
    for i, ui in enumerate(u):
        if ui:
            row = J[i]
            total += ui * sum(row[j] * v[j] for j in range(len(v)))
    return total % q


def _rref_bases(s: int, dim: int, q: int):
    # canonical reduced echelon bases: one per s-dimensional subspace
    if s == 0:
        yield ()
        return
    for pivots in itertools.combinations(range(dim), s):
        pivot_set = set(pivots)
        free = [
            (row, col)
            for row in range(s)
            for col in range(pivots[row] + 1, dim)
            if col not in pivot_set
        ]
        for values in itertools.product(range(q), repeat=len(free)):
            rows = [[0] * dim for _ in range(s)]
            for row, col in zip(range(s), pivots):
                rows[row][col] = 1
            for (row, col), val in zip(free, values):
                rows[row][col] = val
            yield tuple(tuple(r) for r in rows)


def _span(rows, dim: int, q: int) -> frozenset:
    vecs = set()
    for coefs in itertools.product(range(q), repeat=len(rows)):
        v = [0] * dim
        for c, row in zip(coefs, rows):
            if c:
                for i in range(dim):
                    v[i] += c * row[i]
        vecs.add(tuple(x % q for x in v))
    return frozenset(vecs)


def _isotropic_spans(s: int, n: int, q: int) -> list[frozenset]:
    J = _symplectic_gram(n, q)
    dim = 2 * n
    out = []
    for rows in _rref_bases(s, dim, q):
        if all(
            _form(J, rows[i], rows[j], q) == 0
            for i in range(s)
            for j in range(i + 1, s)
        ):
            out.append(_span(rows, dim, q))
    return out


def enumerate_isotropic_subspaces(s: int, n: int, q: int) -> int:
    """Count of s-dimensional totally isotropic subspaces of F_q^{2n},
    by filtering canonical echelon bases."""
    _check_field(q)
    if not 0 <= s <= n:
        raise ValueError("need 0 <= s <= n")
    if n > MAX_HALF_DIM:
        raise ValueError(f"half-dimension capped at {MAX_HALF_DIM}")
    return len(_isotropic_spans(s, n, q))


def enumerate_isotropic_flags(increments: Sequence[int], n: int, q: int) -> int:
    """Count of nested isotropic chains with the given dimension
    increments, by counting containments between enumerated subspaces."""
    _check_field(q)
    if n > MAX_HALF_DIM:
        raise ValueError(f"half-dimension capped at {MAX_HALF_DIM}")
    incs = tuple(int(m) for m in increments)
    if any(m < 1 for m in incs):
        raise ValueError("increments must be positive")
    if sum(incs) > n:
        raise ValueError("total dimension cannot exceed n")
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


def _rank_mod(rows: Sequence[Sequence[int]], q: int) -> int:
    work = [list(r) for r in rows]
    cols = len(work[0]) if work else 0
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(work)) if work[r][col] % q), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][col], -1, q)
        work[rank] = [x * inv % q for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col] % q:
                c = work[r][col]
                work[r] = [(a - c * b) % q for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


def enumerate_general_linear(m: int, q: int) -> int:
    """Count of invertible m-by-m matrices over F_q, by enumerating all
    q^(m*m) candidates and row-reducing each."""
    _check_field(q)
    if m < 0 or q ** (m * m) > 70000:
        raise ValueError("general linear enumeration capped at q^(m*m) <= 70000")
    if m == 0:
        return 1
    total = 0
    for flat in itertools.product(range(q), repeat=m * m):
        rows = [flat[i * m : (i + 1) * m] for i in range(m)]
        if _rank_mod(rows, q) == m:
            total += 1
    return total


def _symplectic_elements(n: int, q: int) -> list[tuple[tuple[int, ...], ...]]:
    # depth-first fill of columns under the form constraints; returns
    # row-major matrices
    dim = 2 * n
    J = _symplectic_gram(n, q)
    vectors = list(itertools.product(range(q), repeat=dim))
    found: list[tuple[tuple[int, ...], ...]] = []

    def extend(cols: list) -> None:
        k = len(cols)
        if k == dim:
            found.append(tuple(zip(*cols)))
            return
        for v in vectors:
            if all(_form(J, cols[i], v, q) == J[i][k] for i in range(k)):
                cols.append(v)
                extend(cols)
                cols.pop()

    extend([])
    return found


def enumerate_symplectic_group(n: int, q: int) -> int:
    """Count of 2n-by-2n matrices over F_q preserving the standard
    alternating form."""
    _check_field(q)
    if (n, q) not in SP_FEASIBLE:
        raise ValueError(f"enumeration feasible only for (n, q) in {sorted(SP_FEASIBLE)}")
    return len(_symplectic_elements(n, q))


def _matvec(g, v, q: int) -> tuple[int, ...]:
    return tuple(sum(row[i] * v[i] for i in range(len(v))) % q for row in g)


class OrbitStabilizerReport(Record):
    __slots__ = ("orbit_size", "stabilizer_size", "group_size",
                 "expected_orbit", "expected_stabilizer", "expected_group")

    orbit_size: int
    stabilizer_size: int
    group_size: int
    expected_orbit: int
    expected_stabilizer: int
    expected_group: int

    def __init__(
        self,
        orbit_size: int,
        stabilizer_size: int,
        group_size: int,
        expected_orbit: int,
        expected_stabilizer: int,
        expected_group: int,
    ) -> None:
        self._set_fields(
            orbit_size, stabilizer_size, group_size,
            expected_orbit, expected_stabilizer, expected_group,
        )

    @property
    def holds(self) -> bool:
        return (
            self.orbit_size == self.expected_orbit
            and self.stabilizer_size == self.expected_stabilizer
            and self.orbit_size * self.stabilizer_size == self.expected_group
        )


def stabilizer_and_orbit_check(s: int, n: int, q: int = 2) -> OrbitStabilizerReport:
    """Acts the enumerated group on the coordinate isotropic subspace
    spanned by the first s basis vectors and compares orbit and
    stabilizer sizes with the closed forms."""
    _check_field(q)
    if (n, q) not in SP_FEASIBLE:
        raise ValueError(f"enumeration feasible only for (n, q) in {sorted(SP_FEASIBLE)}")
    if not 0 <= s <= n:
        raise ValueError("need 0 <= s <= n")
    dim = 2 * n
    group = _symplectic_elements(n, q)
    base = _span(tuple(_basis(dim, i) for i in range(s)), dim, q)
    orbit = set()
    stabilizer = 0
    for g in group:
        image = frozenset(_matvec(g, v, q) for v in base)
        orbit.add(image)
        if image == base:
            stabilizer += 1
    return OrbitStabilizerReport(
        orbit_size=len(orbit),
        stabilizer_size=stabilizer,
        group_size=len(group),
        expected_orbit=ig_count(s, n, q),
        expected_stabilizer=unipotent_radical_order(s, n, q)
        * gl_order(s, q)
        * sp_order(n - s, q),
        expected_group=sp_order(n, q),
    )
