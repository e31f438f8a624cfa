"""Exact integer, q-integer, and polynomial arithmetic, and Record, the
base of every immutable value in the package.

Counts are plain Python ints, so there is no overflow at any input size.
Division helpers never round: a nonzero remainder means some counting
identity was violated upstream, and that is reported as
``InexactDivisionError`` rather than silently truncated.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

__all__ = [
    "InexactDivisionError",
    "IntPolynomial",
    "Record",
    "cyclotomic_product",
    "exact_div",
    "multinomial",
    "product",
    "q_factorial",
    "q_multinomial",
    "q_multinomial_exponents",
]


class Record:
    """Base of an immutable value whose fields are its __slots__: equal
    and hashed by field values, copied and pickled through its constructor,
    with a constructor-style repr unless the subclass writes its own.  It
    takes the fields by position or by name; a subclass that validates them
    stores them with _set_fields.  Nothing can assign to them afterwards."""

    __slots__ = ()

    def __init__(self, *values: object, **named: object) -> None:
        # an extra or repeated value collapses in the dict; a missing or
        # unknown name leaves its keys unequal to the slots
        fields = dict(zip(self.__slots__, values), **named)
        if len(values) + len(named) != len(fields) or fields.keys() != set(self.__slots__):
            raise TypeError(f"{type(self).__qualname__} takes {self.__slots__} once each")
        self._set_fields(*map(fields.get, self.__slots__))

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


class InexactDivisionError(ArithmeticError):
    """A division that must be exact left a remainder."""


def exact_div(numerator: int, denominator: int) -> int:
    """Integer quotient, raising ``InexactDivisionError`` on a remainder."""
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise InexactDivisionError(
            f"{numerator} is not divisible by {denominator}"
        )
    return quotient


def _integral(values: Iterable[object], what: str) -> tuple[int, ...]:
    # the values as ints: True and 2.0 pass, 2.7 raises ValueError
    given = tuple(values)
    ints = tuple(map(int, given))
    if ints != given:
        raise ValueError(f"{what} must be integers")
    return ints


def _check_parts(n: int, parts: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    # n and the parts as ints: integral, nonnegative parts that sum to n
    parts = _integral(parts, "parts")
    if any(p < 0 for p in parts):
        raise ValueError("parts must be nonnegative")
    if sum(parts) != n:
        raise ValueError(f"parts {list(parts)} do not sum to n={n}")
    return sum(parts), parts


def multinomial(n: int, parts: Sequence[int]) -> int:
    """Number of words of length n with the given symbol counts.

    ``parts`` must be nonnegative and sum to n; the value is computed as a
    product of binomials, so no division is involved.
    """
    n, parts = _check_parts(n, parts)
    out = 1
    remaining = n
    for p in parts:
        out *= math.comb(remaining, p)
        remaining -= p
    return out


def product(values: Iterable[int]) -> int:
    """Product of the values by a balanced tree, so the multiplications
    that dominate pair factors of similar size; 1 for no values."""
    level = list(values)
    if not level:
        return 1
    while len(level) > 1:
        paired = [a * b for a, b in zip(level[::2], level[1::2])]
        if len(level) % 2:
            paired.append(level[-1])
        level = paired
    return level[0]


def q_factorial(k: int, q: int) -> int:
    """Product (q^k - 1)(q^{k-1} - 1) ... (q - 1); empty product for k = 0."""
    k, q = _integral((k, q), "k and q")
    if k < 0:
        raise ValueError("q_factorial requires k >= 0")
    if q < 2:
        raise ValueError("q must be at least 2")
    return product(q**i - 1 for i in range(1, k + 1))


def _cyclotomic_values(m: int, q: int) -> list[int]:
    # entry d is Phi_d(q) for 1 <= d <= m, by a divisor sieve on
    # q^d - 1 = prod_{e | d} Phi_e(q): each entry is final once every proper
    # divisor has been divided out of it, so the divisions are checked ones
    # on ints of at most m * log2(q) bits
    phi = [q**d - 1 for d in range(m + 1)]
    for e in range(1, m + 1):
        for k in range(2 * e, m + 1, e):
            phi[k] = exact_div(phi[k], phi[e])
    return phi


def q_multinomial_exponents(n: int, parts: Sequence[int]) -> list[int]:
    """Exponent e_d of Phi_d(q) in the q-multinomial of the parts, at index
    d for 0 <= d <= n: e_0 = 0 and e_d = floor(n/d) - sum floor(p/d)
    (Knuth and Wilf, 1989), which is 0 at d = 1 when the parts sum to n."""
    return [0] + [n // d - sum(p // d for p in parts) for d in range(1, n + 1)]


def cyclotomic_product(exponents: Sequence[int], q: int) -> int:
    """Product of Phi_d(q)^{e_d} with e_d = exponents[d], over one table of
    Phi_d(q) for d < len(exponents).  A negative e_d would make the product
    no polynomial in q and raises InexactDivisionError."""
    negative = [d for d, e in enumerate(exponents) if e < 0]
    if negative:
        raise InexactDivisionError(f"Phi_{negative[0]}(q) has a negative exponent")
    phi = _cyclotomic_values(len(exponents) - 1, q)
    return product(phi[d] ** e for d, e in enumerate(exponents) if e)


def q_multinomial(n: int, parts: Sequence[int], q: int) -> int:
    """q-analog of the multinomial coefficient, q_factorial(n) over the
    product of q_factorial(p) for the parts, computed without a big division.

    Each q^k - 1 is the product of the cyclotomic values Phi_d(q) over the
    divisors d of k, so the value is the cyclotomic_product of
    q_multinomial_exponents.  An exponent below zero would mean the
    quotient is not a polynomial in q and raises InexactDivisionError; for
    parts summing to n none is.
    """
    n, parts = _check_parts(n, parts)
    (q,) = _integral((q,), "field sizes")
    if q < 2:
        raise ValueError("q must be at least 2")
    return cyclotomic_product(q_multinomial_exponents(n, parts), q)


class IntPolynomial(Record):
    """Dense polynomial with integer coefficients, immutable.

    Coefficients are stored lowest degree first with trailing zeros
    stripped; the zero polynomial has an empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self._set_fields(tuple(cs))

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coeffs) - 1

    def __repr__(self) -> str:
        return f"IntPolynomial({self.coeffs})"

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        # Kronecker substitution: evaluate both factors at t = 2^(8w), make
        # one int multiplication, and read the product's coefficients back
        # from its w-byte slots.  Each slot is offset by half its range, so
        # one decoding serves signed coefficients.
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial()
        bound = min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))
        width = bound.bit_length() // 8 + 1
        size = len(a) + len(b) - 1
        offset = int.from_bytes((bytes(width - 1) + b"\x80") * size, "little")
        packed = _pack(a, width) * _pack(b, width) + offset
        raw = packed.to_bytes(size * width, "little")
        half = 1 << (8 * width - 1)
        return IntPolynomial(
            int.from_bytes(raw[i : i + width], "little") - half
            for i in range(0, size * width, width)
        )

    def __call__(self, x: int) -> int:
        # divide and conquer: pair neighbours as c_i + x^h c_{i+1}, h = 1, 2,
        # 4, ..., squaring x^h once per level, so the large multiplications
        # pair operands of similar size (Horner's rule makes them lopsided)
        level = list(self.coeffs)
        power = x
        while len(level) > 1:
            paired = [a + power * b for a, b in zip(level[::2], level[1::2])]
            if len(level) % 2:
                paired.append(level[-1])
            level = paired
            if len(level) > 1:
                power *= power
        return level[0] if level else 0


def _pack(coeffs: Sequence[int], width: int) -> int:
    # the polynomial's value at t = 2^(8 * width); every |c| < 2^(8 * width)
    def join(cs: Iterable[int]) -> int:
        return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in cs), "little")

    return join(max(c, 0) for c in coeffs) - join(max(-c, 0) for c in coeffs)

