"""Exact integer, q-integer, and polynomial arithmetic, and Record, the
base of every immutable value in the package.

Counts are plain Python ints, so there is no overflow at any input size.
Division helpers never round: a nonzero remainder means some counting
identity was violated upstream, and that is reported as
``InexactDivisionError`` rather than silently truncated.

The private ``_log_count`` takes ``math.log`` of a count from a certified
bound on its natural logarithm, without building the count, and returns
the same float bit for bit.
"""

from __future__ import annotations

import decimal
import math
import sys
from collections.abc import Callable, Iterable, Sequence
from functools import lru_cache

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
        # bit lengths, not digits: an operand may be past int's str() limit
        raise InexactDivisionError(
            f"a {numerator.bit_length()}-bit int is not divisible by a "
            f"{denominator.bit_length()}-bit one"
        )
    return quotient


def _integral(values: Iterable[object], what: str) -> tuple[int, ...]:
    # the values as ints: True and 2.0 pass; 2.7, ±inf and NaN raise ValueError
    given = tuple(values)
    try:
        ints = tuple(map(int, given))
    except (OverflowError, ValueError):  # int() of ±inf or NaN
        ints = None
    if ints != given:
        raise ValueError(f"{what} must be integers")
    return ints


def _nonnegative_parts(parts: Sequence[int]) -> tuple[int, ...]:
    parts = _integral(parts, "parts")
    if any(p < 0 for p in parts):
        raise ValueError("parts must be nonnegative")
    return parts


def _check_parts(n: int, parts: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    # n and the parts as ints: integral, nonnegative parts that sum to n
    parts = _nonnegative_parts(parts)
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


def _field_sizes(q: int, *sizes: int) -> tuple[int, ...]:
    # q and the sizes after it as ints, by the rule of _integral; the one
    # statement of an integral q and of q >= 2, whichever entry point asks
    try:
        (q,) = _integral((q,), "field sizes")
    except ValueError:
        raise ValueError("field size q must be an integer") from None
    ints = (q, *_integral(sizes, "sizes"))
    if ints[0] < 2:
        raise ValueError("field size q must be at least 2")
    return ints


def q_factorial(k: int, q: int) -> int:
    """Product (q^k - 1)(q^{k-1} - 1) ... (q - 1); empty product for k = 0."""
    exponents = q_multinomial_exponents(k, ())
    if k < 0:
        raise ValueError("q_factorial requires k >= 0")
    return cyclotomic_product(exponents, q)


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
    (Knuth and Wilf, 1989), which is 0 at d = 1 when the parts sum to n.
    n and the parts must be integers and the parts nonnegative; their sum
    is free."""
    (n,) = _integral((n,), "lengths")
    parts = _nonnegative_parts(parts)
    return [0] + [n // d - sum(p // d for p in parts) for d in range(1, n + 1)]


def cyclotomic_product(exponents: Sequence[int], q: int) -> int:
    """Product of Phi_d(q)^{e_d} with e_d = exponents[d], over one table of
    Phi_d(q) for d < len(exponents).  The exponents and q must be
    integers, q >= 2, exponents[0] = 0.  A negative e_d would make the
    product no polynomial in q and raises InexactDivisionError."""
    exponents = _integral(exponents, "exponents")
    (q,) = _field_sizes(q)
    if exponents and exponents[0]:
        raise ValueError("exponents[0] must be 0: there is no Phi_0")
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
        # from its w-byte slots.  No product coefficient exceeds the bound in
        # magnitude, and the bound is below half a slot's range, so every
        # slot offset by that half is nonnegative: one decoding for any signs.
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial()
        bound = min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))
        width = bound.bit_length() // 8 + 1
        size = len(a) + len(b) - 1
        t, half = 1 << (8 * width), 1 << (8 * width - 1)
        offset = int.from_bytes(half.to_bytes(width, "little") * size, "little")
        raw = (self(t) * other(t) + offset).to_bytes(size * width, "little")
        slots = range(0, len(raw), width)
        return IntPolynomial(int.from_bytes(raw[i : i + width], "little") - half for i in slots)

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


# The context of cli._int_str's decimal arithmetic: MAX_PREC, and any
# operation that would round raises; no code here uses the thread's context.
_EXACT_CONTEXT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation, decimal.Overflow],
)


# The one context of the certified logarithms below.  ln, exp and the
# arithmetic are correctly rounded in it, so each operation errs by at most
# half an ulp of its result; no code here uses the thread's context.
_LOG_CONTEXT = decimal.Context(
    prec=60,
    rounding=decimal.ROUND_HALF_EVEN,
    traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow],
)
# Estimated bit length of a count from which _log_count takes its log from
# bounds: below it, building the count is the faster.  Measured on Python
# 3.11.7 on an Intel Xeon, count and math.log against bounds, best of 5:
# reflection B at P = (1/2, 1/2), 4,601 and 9,208 bits, 0.46 and 1.59 ms
# against 0.46 and 0.48 ms; Sp at q = 2, P = (1/8, 3/8, 1/2), 6,216 and
# 11,040 bits, 1.08 and 1.56 ms against 1.22 and 1.32 ms.
_LOG_BOUND_BITS = 1 << 13
# c_j = B_2j / (2j (2j - 1)) for j = 1, ..., 11, as (numerator, denominator):
# ln k! = (k + 1/2) ln k - k + ln(2 pi) / 2 + sum_j c_j / k^(2j - 1), and for
# k > 0 the remainder after any term is below the first term left out
# (DLMF 5.11.ii), so the last entry bounds the sum of the first ten
_STIRLING = (
    (1, 12), (-1, 360), (1, 1260), (-1, 1680), (1, 1188), (-691, 360360),
    (1, 156), (-3617, 122400), (43867, 244188), (-174611, 125400), (77683, 5796),
)
# below this k, ln k! is taken of the exact k!; at it the series' remainder
# is below 10^-36
_STIRLING_FROM = 64
# ln 2 and ln(2 pi) / 2 to 70 places, each short by less than _CONSTANT_ERROR
_LN2 = decimal.Decimal(
    "0.6931471805599453094172321214581765680755001343602552541206800094933936"
)
_HALF_LN_2PI = decimal.Decimal(
    "0.9189385332046727417803297364056176398613974736377834128171515404827656"
)
_CONSTANT_ERROR = decimal.Decimal("1e-70")
_HALF = decimal.Decimal("0.5")


def _roundings(count: int, scale: int) -> decimal.Decimal:
    # a bound on the error of count operations in _LOG_CONTEXT whose results
    # are at most scale in magnitude: each rounds by half an ulp, at most
    # scale * 10^(1 - prec) / 2, and the other half of 10^(1 - prec) covers
    # the rounding of an input the operation scales up to its result
    return decimal.Decimal(count * scale).scaleb(1 - _LOG_CONTEXT.prec, _LOG_CONTEXT)


def _ln_factorial(k: int) -> tuple[decimal.Decimal, decimal.Decimal]:
    # ln k! in _LOG_CONTEXT and a bound on its error: one rounding of the
    # exact k! below _STIRLING_FROM, else the Stirling series
    ctx = _LOG_CONTEXT
    if k < _STIRLING_FROM:
        return ctx.ln(math.factorial(k)), _roundings(1, k * k)
    value = ctx.subtract(ctx.multiply(ctx.add(k, _HALF), ctx.ln(k)), k)
    value = ctx.add(value, _HALF_LN_2PI)
    *terms, (c, d) = _STIRLING
    for j, (cj, dj) in enumerate(terms, 1):
        value = ctx.add(value, ctx.divide(cj, dj * k ** (2 * j - 1)))
    # 5 roundings before the series and 2 per term, none on a value above
    # (k + 1) ln k; the constant's error; and the remainder, doubled to
    # cover the rounding of the bound itself
    roundings = _roundings(5 + 2 * len(terms), (k + 1) * k.bit_length())
    remainder = ctx.divide(2 * abs(c), d * k ** (2 * len(terms) + 1))
    return value, ctx.add(roundings, ctx.add(remainder, _CONSTANT_ERROR))


def _ln_factorial_ratio(
    m: int, parts: Sequence[int], twos: int
) -> tuple[decimal.Decimal, decimal.Decimal]:
    """ln(m! / prod(p! for p in parts) * 2^twos) in _LOG_CONTEXT, for
    nonnegative integers with sum(parts) <= m, and a bound on its error."""
    ctx = _LOG_CONTEXT
    value, error = _ln_factorial(m)
    for p in parts:
        term, term_error = _ln_factorial(p)
        value, error = ctx.subtract(value, term), ctx.add(error, term_error)
    value = ctx.add(value, ctx.multiply(twos, _LN2))
    # a subtraction per part, the multiple of ln 2 and the sum, none on a
    # value above ln m! + twos; and ln 2's error, times twos
    roundings = _roundings(len(parts) + 2, (m + 1) * m.bit_length() + twos)
    constant = ctx.multiply(twos, _CONSTANT_ERROR)
    return value, ctx.add(error, ctx.add(roundings, constant))


# converge calls _ln_degree_ratio once per n with one q
@lru_cache(maxsize=8)
def _log_factors(q: int) -> tuple[decimal.Decimal, ...]:
    # 1 - q^-a = (q^a - 1) / q^a in _LOG_CONTEXT, for a below the cutoff c,
    # the least c with q^c > 10^prec
    ctx = _LOG_CONTEXT
    cutoff = 1
    while q**cutoff <= 10**ctx.prec:
        cutoff += 1
    return tuple(ctx.divide(q**a - 1, q**a) for a in range(cutoff))


def _ln_degree_ratio(
    numer: Sequence[int], denom: Sequence[int], q: int
) -> tuple[decimal.Decimal, decimal.Decimal]:
    """ln of prod(q^a - 1 for a in numer) / prod(q^b - 1 for b in denom) in
    _LOG_CONTEXT, for positive degrees and q >= 2, and a bound on its error.

    q^a - 1 = q^a (1 - q^-a), so the log is D ln q, with D = sum(numer) -
    sum(denom) exact, plus the log of the ratio of the products of the
    1 - q^-a.  From the cutoff c on, q^-a < 10^-prec, and since
    |ln(1 - x)| <= 2x for x <= 1/2 those factors are bounded, not used.
    """
    ctx = _LOG_CONTEXT
    factors = _log_factors(q)
    cutoff = len(factors)
    ratio, used = decimal.Decimal(1), 0
    for degrees, step in ((numer, ctx.multiply), (denom, ctx.divide)):
        for a in degrees:
            if a < cutoff:
                ratio, used = step(ratio, factors[a]), used + 1
    degree = sum(numer) - sum(denom)
    value = ctx.add(ctx.multiply(degree, ctx.ln(q)), ctx.ln(ratio))
    # each factor used and each step rounds the ratio by a relative half
    # ulp; then ln q, its multiple, the log of the ratio and the sum.  Each
    # factor lies in [1/2, 1), so no value exceeds |D| (ln q + 1) + 2 used.
    # A factor left out moves the log by less than 2 * 10^-prec.
    scale = abs(degree) * (q.bit_length() + 1) + 2 * used + 1
    roundings = _roundings(2 * used + 4, scale)
    left_out = len(numer) + len(denom) - used
    tail = decimal.Decimal(2 * left_out).scaleb(-ctx.prec, ctx)
    return value, ctx.add(roundings, tail)


def _log_of_frexp(x: float, e: int) -> float:
    # CPython 3.11's math.log of an int N beyond the double range, from
    # N's frexp (x, e): its mantissa x in [0.5, 1), rounded half to even to
    # 53 bits with a carry to (0.5, e + 1), and its exponent
    return math.log(x) + math.log(2.0) * e


def _log_from_ln(ln_count: decimal.Decimal, error: decimal.Decimal) -> float | None:
    """math.log(N) for the int N with |ln N - ln_count| <= error, the same
    float bit for bit, or None when the bound leaves it open.

    With e the bit length of N, y = N / 2^(e - 53) lies in [2^52, 2^53) and
    rounds half to even to N's 53-bit mantissa times 2^53.  So the float is
    fixed once the bound puts y in that range and strictly between two
    consecutive halves.  None also for an N that may lie in the double
    range, whose log math.log takes of float(N).
    """
    ctx = _LOG_CONTEXT
    e = int(ctx.divide(ln_count, _LN2).to_integral_value(decimal.ROUND_FLOOR, ctx)) + 1
    t = ctx.subtract(ln_count, ctx.multiply(e - 53, _LN2))
    # ln y, after the product and the difference on values below |e| + 53,
    # and ln 2's error times e - 53
    constant = ctx.multiply(abs(e - 53), _CONSTANT_ERROR)
    t_error = ctx.add(error, ctx.add(_roundings(2, abs(e) + 53), constant))
    if t_error > _HALF:
        return None
    # exp rounds by half an ulp, and e^x - 1 <= 2x for 0 <= x <= 1/2; the
    # factor 2 covers y against N / 2^(e - 53) and the rounding of the bound
    y = ctx.exp(t)
    y_error = ctx.multiply(
        ctx.multiply(2, y), ctx.add(ctx.multiply(2, t_error), _roundings(1, 1))
    )
    mantissa = int(y.to_integral_value(decimal.ROUND_HALF_EVEN, ctx))
    if not (
        ctx.subtract(y, y_error) >= 1 << 52
        and ctx.add(y, y_error) < 1 << 53
        and ctx.add(ctx.abs(ctx.subtract(y, mantissa)), y_error) < _HALF
    ):
        return None
    if mantissa == 1 << 53:
        mantissa, e = 1 << 52, e + 1
    if e <= 1024:
        return None
    return _log_of_frexp(mantissa / 2**53, e)


def _log_count(
    bits: float,
    ln_count: Callable[[], tuple[decimal.Decimal, decimal.Decimal]],
    count: Callable[[], int],
) -> float:
    """math.log(count()), the same float bit for bit.  When the count's
    estimated bit length reaches _LOG_BOUND_BITS, the float comes from the
    certified bounds ln_count() returns, without building the count, unless
    they leave it open.  A count left open with more bits than an int can
    have, sys.maxsize, cannot be built either and raises ValueError."""
    if bits >= _LOG_BOUND_BITS:
        value = _log_from_ln(*ln_count())
        if value is not None:
            return value
        if bits > sys.maxsize:
            raise ValueError(
                f"the log bound leaves the float open, and a count of about {bits:.3g} "
                "bits is too large to build"
            )
    return math.log(count())
