"""Tests for the exact arithmetic kernel: division, multinomials, q-analogs,
and the integer polynomial type everything else is built on."""

import decimal
import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbit_entropy.cli import _positive_compositions
from orbit_entropy import exact
from orbit_entropy.dynkin import flag_factors, poincare_quotient
from orbit_entropy.exact import (
    InexactDivisionError,
    IntPolynomial,
    cyclotomic_product,
    exact_div,
    multinomial,
    product,
    q_factorial,
    q_multinomial,
    q_multinomial_exponents,
)


def test_exact_div_basic():
    assert exact_div(12, 3) == 4
    assert exact_div(0, 7) == 0
    assert exact_div(-12, 3) == -4


def test_exact_div_rejects_remainder():
    with pytest.raises(InexactDivisionError):
        exact_div(7, 2)


def test_exact_div_message_prints_no_digits():
    # 5001 digits, past CPython's default limit on int-to-str conversion
    limit = sys.get_int_max_str_digits()
    with pytest.raises(InexactDivisionError) as raised:
        exact_div(10**5000 + 1, 10)
    assert sys.get_int_max_str_digits() == limit
    assert len(str(raised.value)) < 80


def test_exact_div_rejects_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        exact_div(1, 0)


@given(st.integers(-10**12, 10**12), st.integers(1, 10**9))
def test_exact_div_inverts_multiplication(a, b):
    assert exact_div(a * b, b) == a


def test_multinomial_values():
    assert multinomial(4, (2, 2)) == 6
    assert multinomial(8, (4, 4)) == 70
    assert multinomial(6, (1, 2, 3)) == 60
    assert multinomial(5, (5,)) == 1
    # zero-size parts contribute nothing
    assert multinomial(4, (0, 2, 2, 0)) == 6


def test_multinomial_rejects_bad_parts():
    with pytest.raises(ValueError):
        multinomial(4, (2, 3))
    with pytest.raises(ValueError):
        multinomial(4, (5, -1))


@given(
    st.lists(st.integers(0, 12), min_size=1, max_size=5),
)
def test_multinomial_is_factorial_ratio(parts):
    n = sum(parts)
    denom = 1
    for p in parts:
        denom *= math.factorial(p)
    assert multinomial(n, parts) == math.factorial(n) // denom


def test_q_factorial_values():
    # convention: product of (q^i - 1), so the (q-1)^k scale cancels in quotients
    assert q_factorial(3, 2) == 1 * 3 * 7
    assert q_factorial(0, 2) == 1
    assert q_factorial(1, 5) == 4
    assert q_factorial(2, 3) == 2 * 8


def test_q_multinomial_values():
    assert q_multinomial(2, (1, 1), 2) == 3
    assert q_multinomial(3, (1, 2), 2) == 7
    assert q_multinomial(4, (2, 2), 2) == 35
    assert q_multinomial(3, (1, 1, 1), 2) == 21
    assert q_multinomial(5, (5,), 3) == 1
    assert q_multinomial(3, (0, 3), 4) == 1


@given(
    st.lists(st.integers(0, 6), min_size=1, max_size=4),
    st.integers(2, 9),
    st.randoms(use_true_random=False),
)
def test_q_multinomial_symmetric_in_parts(parts, q, rng):
    shuffled = list(parts)
    rng.shuffle(shuffled)
    n = sum(parts)
    assert q_multinomial(n, parts, q) == q_multinomial(n, shuffled, q)


@given(st.integers(0, 30), st.integers(0, 30), st.integers(2, 7))
def test_q_binomial_pascal_recurrence(a, b, q):
    # [a+b choose a]_q = [a+b-1 choose a-1]_q + q^a [a+b-1 choose a]_q
    n = a + b
    lhs = q_multinomial(n, (a, b), q)
    rhs = 0
    if a > 0:
        rhs += q_multinomial(n - 1, (a - 1, b), q)
    if b > 0:
        rhs += q ** a * q_multinomial(n - 1, (a, b - 1), q)
    if n == 0:
        rhs = 1
    assert lhs == rhs


def test_polynomial_construction_strips_leading_zeros():
    p = IntPolynomial((1, 2, 0, 0))
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert IntPolynomial(()).is_zero
    assert IntPolynomial((0, 0)).is_zero


def test_polynomial_arithmetic():
    p = IntPolynomial((1, 1))         # 1 + t
    q = IntPolynomial((1, 0, 1))      # 1 + t^2
    assert (p + q).coeffs == (2, 1, 1)
    assert (q - p).coeffs == (0, -1, 1)
    assert (p * q).coeffs == (1, 1, 1, 1)
    assert p(1) == 2
    assert q(3) == 10
    assert IntPolynomial.one()(999) == 1


coeff_lists = st.lists(st.integers(-9, 9), min_size=1, max_size=8)


@given(coeff_lists, coeff_lists, st.integers(-5, 5))
def test_polynomial_product_matches_pointwise(a, b, x):
    pa, pb = IntPolynomial(a), IntPolynomial(b)
    assert (pa * pb)(x) == pa(x) * pb(x)


def _horner(coeffs, x):
    out = 0
    for c in reversed(coeffs):
        out = out * x + c
    return out


signed_coeffs = st.lists(st.one_of(st.just(0), st.integers(-(2**80), 2**80)), max_size=40)


@given(signed_coeffs, st.integers(-(2**40), 2**40))
def test_polynomial_evaluation_matches_horner(coeffs, x):
    # signed and zero coefficients, odd and even lengths, the zero polynomial
    assert IntPolynomial(coeffs)(x) == _horner(coeffs, x)


def test_polynomial_evaluation_at_high_degree():
    coeffs = [(-1) ** i * (i % 7) for i in range(4097)]
    for x in (-3, -1, 0, 1, 2, 5):
        assert IntPolynomial(coeffs)(x) == _horner(coeffs, x)


def _schoolbook(a, b):
    # one row of the long multiplication per coefficient of b
    out = [0] * (len(a) + len(b) - 1)
    for j, cb in enumerate(b):
        out[j : j + len(a)] = [o + ca * cb for o, ca in zip(out[j : j + len(a)], a)]
    return IntPolynomial(out)


wide_coeffs = st.lists(
    st.one_of(st.just(0), st.integers(-(2**300), 2**300)), min_size=1, max_size=12
)


@given(wide_coeffs, wide_coeffs)
def test_polynomial_product_matches_schoolbook(a, b):
    # signed, zero and 300-bit coefficients through the packed multiply
    assert IntPolynomial(a) * IntPolynomial(b) == _schoolbook(a, b)


def test_polynomial_product_edge_cases():
    zero, one = IntPolynomial(), IntPolynomial.one()
    p = IntPolynomial((-(2**300), 0, 2**300 - 1, -1))
    assert p * zero == zero * p == zero
    assert p * one == p
    assert p * p == _schoolbook(p.coeffs, p.coeffs)
    # every slot at the edge of its range: (2^k - 1)(1 + t + ...) squared
    q = IntPolynomial((2**64 - 1,) * 9)
    assert (q * q).coeffs == _schoolbook(q.coeffs, q.coeffs).coeffs
    assert (-q * q).coeffs == tuple(-c for c in (q * q).coeffs)
    # a coefficient of -bound, with 2 bound just below 2^240, the range of
    # its 30-byte slot: the slot's offset must be half that range, 2^239
    c = math.isqrt((2**239 - 1) // 300)
    r = IntPolynomial((c,) * 300)
    bound = 300 * c * c
    assert bound < 2**239 <= 2 * bound
    ramp = [min(k + 1, 599 - k) * c * c for k in range(599)]
    assert (r * -r).coeffs == tuple(-x for x in ramp)
    assert (r * r).coeffs == tuple(ramp)
    # unsigned and signed factors in 1- and 2-byte slots: bounds 126, 255,
    # 126 and 768
    for a, b in (
        ([7, 0, 7, 1], [9, 9]),
        ([5, 0, 255, 17], [1]),
        ([-7, 0, 7, -1], [9, -9]),
        ([-3, 7, 0, -128], [1, -1, 2]),
    ):
        assert IntPolynomial(a) * IntPolynomial(b) == _schoolbook(a, b)


def test_decimal_product_at_the_edge_of_its_fields():
    # a coefficient of -bound, with 2 bound just below 10^w: at the edge of
    # a base-10 field of w = 72 digits, which the int product must still
    # carry through its binary slots unchanged
    c = math.isqrt(49 * 10**70 // 300)
    q = IntPolynomial((c,) * 300)
    bound = 300 * c * c
    assert len(str(2 * bound)) == len(str(bound)) == 72
    ramp = [min(k + 1, 599 - k) * c * c for k in range(599)]
    assert (q * -q).coeffs == tuple(-r for r in ramp)
    assert (q * q).coeffs == tuple(ramp)


def _signed(rng, count, bits):
    return [rng.choice((-1, 1)) * rng.getrandbits(bits) for _ in range(count)]


def _mul_shapes(side):
    # factor pairs with narrower (side 0) or wider (side 1) coefficients
    rng = random.Random(side)
    wide, narrow, lopsided = ((50, 40, 25), (150, 200, 40))[side]
    return {
        "signed": (_signed(rng, 400, wide), _signed(rng, 300, wide)),
        "zero interior": (
            [rng.getrandbits(narrow)] + [0] * 198 + [-rng.getrandbits(narrow)],
            _signed(rng, 150, narrow) + [0] * 200 + _signed(rng, 150, narrow),
        ),
        "lopsided": (_signed(rng, 10_000, lopsided), _signed(rng, 1_000, lopsided)),
        "single": ([-rng.getrandbits(50)], _signed(rng, 700, 1_000)),
    }


# each shape against the schoolbook product, in both orders; the name and
# ids are those the test had when it compared a Decimal product with this one
@pytest.mark.parametrize("side", (0, 1))
@pytest.mark.parametrize("shape", ("signed", "zero interior", "lopsided", "single"))
def test_decimal_product_matches_the_int_product(side, shape):
    a, b = map(IntPolynomial, _mul_shapes(side)[shape])
    got = a * b
    assert got == _schoolbook(a.coeffs, b.coeffs) == b * a
    assert got.degree == a.degree + b.degree


@pytest.mark.parametrize("sign", ("nonnegative", "signed"))
def test_product_matches_schoolbook_for_nonnegative_and_signed_factors(sign):
    rng = random.Random(20)
    coeffs = [
        [rng.getrandbits(40) for _ in range(60)],
        [rng.getrandbits(40) for _ in range(45)],
        [2**40 - 1] * 50,  # the middle slot of its square reaches the bound
    ]
    if sign == "signed":
        # signed factors, also against a nonnegative one
        coeffs = [[c * rng.choice((-1, 1)) for c in cs] for cs in coeffs[:2]] + [
            [-(2**40 - 1)] * 50,
            coeffs[2],
        ]
    for a, b in itertools.product(coeffs, repeat=2):
        assert IntPolynomial(a) * IntPolynomial(b) == _schoolbook(a, b)


def test_product_evaluates_each_factor_once_at_a_power_of_two(monkeypatch):
    # the factors are packed by the one polynomial evaluator, __call__
    calls = []
    evaluate = IntPolynomial.__call__

    def spy(p, x):
        calls.append((p, x))
        return evaluate(p, x)

    monkeypatch.setattr(IntPolynomial, "__call__", spy)
    for a, b in (((1, 2, 3), (4, 5)), ((-(2**70), 0, 9), (-1,)), ((2**200,), (3, -3))):
        a, b = IntPolynomial(a), IntPolynomial(b)
        assert a * b == _schoolbook(a.coeffs, b.coeffs)
        (pa, ta), (pb, tb) = calls
        assert (pa, pb) == (a, b) and ta == tb
        # t = 2^(8w) for a slot of w bytes
        assert ta == 1 << (ta.bit_length() - 1) and (ta.bit_length() - 1) % 8 == 0
        calls.clear()


def test_product_is_the_left_to_right_product():
    assert product([]) == 1
    assert product([7]) == 7
    for k in range(1, 40):
        values = [3**i - (-1) ** i for i in range(k)]
        assert product(values) == math.prod(values)
    assert product(iter([2, 3, 5])) == 30


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7))
def test_q_factorial_matches_left_to_right_product(q):
    out, power = 1, 1
    for k in range(201):
        assert q_factorial(k, q) == out
        power *= q
        out *= power - 1


def test_q_multinomial_is_gauss_bracket_evaluation():
    # the q-multinomial is the type-A bracket-quotient polynomial evaluated
    # at q (the type-A case of the Bruhat identity)
    for n in range(2, 11):
        for counts in _positive_compositions(n, n):
            poly = poincare_quotient("A", n - 1, flag_factors("A", counts))
            for q in (2, 3, 5):
                assert q_multinomial(n, counts, q) == poly(q), (n, counts, q)


def _q_multinomial_by_division(n, parts, q):
    # the definition, as one checked division of q-factorials
    return exact_div(q_factorial(n, q), product(q_factorial(p, q) for p in parts))


def _weak_compositions(total, length):
    for cuts in itertools.combinations_with_replacement(range(total + 1), length - 1):
        bounds = (0,) + cuts + (total,)
        yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7))
def test_q_multinomial_matches_the_division(q):
    fact = [q_factorial(k, q) for k in range(25)]
    for n in range(25):
        for length in range(1, 5):
            for parts in _weak_compositions(n, length):
                want = exact_div(fact[n], product(fact[p] for p in parts))
                assert q_multinomial(n, parts, q) == want, (n, parts)


@given(
    st.lists(st.integers(0, 100), min_size=1, max_size=5).filter(lambda ps: sum(ps) <= 300),
    st.integers(2, 9),
)
@settings(max_examples=60, deadline=None)
def test_q_multinomial_matches_the_division_up_to_300(parts, q):
    n = sum(parts)
    assert q_multinomial(n, parts, q) == _q_multinomial_by_division(n, parts, q)


def test_cyclotomic_product_rejects_a_negative_exponent():
    # Phi_2(q) Phi_4(q) / Phi_3(q) is no polynomial in q
    with pytest.raises(InexactDivisionError):
        cyclotomic_product([0, 0, 1, -1, 1], 2)
    assert cyclotomic_product([0, 0, 1, 1, 1], 2) == 3 * 7 * 5


def test_q_multinomial_rejects_bad_input():
    with pytest.raises(ValueError):
        q_multinomial(3, (1, 1), 2)
    with pytest.raises(ValueError):
        q_multinomial(2, (3, -1), 2)
    with pytest.raises(ValueError):
        q_multinomial(2, (1, 1), 1)


@pytest.mark.parametrize(
    "exponents,q,message",
    [
        ([0, 1], 1, "field size q must be at least 2"),
        ([0, 1, 1], 0, "field size q must be at least 2"),
        ([0, 1], -2, "field size q must be at least 2"),
        # the id this row had before a non-integral q got one message
        pytest.param([0, 1], 2.5, "field size q must be an integer", id="exponents3-2.5-field sizes must be integers"),
        ([0, 0, 1.5], 2, "exponents must be integers"),
        # Phi_0 does not exist; entry 0 of the table is q^0 - 1 = 0
        ([1], 2, "exponents[0] must be 0: there is no Phi_0"),
        ([2, 0, 1], 3, "exponents[0] must be 0: there is no Phi_0"),
    ],
)
def test_cyclotomic_product_rejects_bad_input(exponents, q, message):
    # once 0, 1, -1, a misleading InexactDivisionError or a float
    with pytest.raises(ValueError) as exc:
        cyclotomic_product(exponents, q)
    assert str(exc.value) == message


def test_cyclotomic_product_takes_integral_input_as_ints():
    value = cyclotomic_product([0, 0, 2.0], 2)
    assert value == 9 and type(value) is int
    assert cyclotomic_product((0, True, 1), 3.0) == 2 * 4


@pytest.mark.parametrize(
    "n,parts,message",
    [
        (3, [1, 2.5], "parts must be integers"),
        (3.5, [1, 2], "lengths must be integers"),
        (3, [-1, 4], "parts must be nonnegative"),
    ],
)
def test_q_multinomial_exponents_rejects_bad_input(n, parts, message):
    with pytest.raises(ValueError) as exc:
        q_multinomial_exponents(n, parts)
    assert str(exc.value) == message


def test_q_multinomial_exponents_leave_the_sum_free():
    # floor(4/d) - floor(1/d) - floor(2/d) is 1 at each d from 1 to 4
    assert q_multinomial_exponents(4, (1, 2)) == [0, 1, 1, 1, 1]
    assert q_multinomial_exponents(4.0, (1.0, True)) == q_multinomial_exponents(4, (1, 1))
    assert all(type(e) is int for e in q_multinomial_exponents(4.0, (2.0, 2)))


@pytest.mark.parametrize(
    "n,parts,q,message",
    [
        # the parts are checked first, then q
        (3, (1, 1), 1, "parts [1, 1] do not sum to n=3"),
        (2, (3, -1), 2.5, "parts must be nonnegative"),
        (2, (1, 1), 1, "field size q must be at least 2"),
        # the id this row had before a non-integral q got one message
        pytest.param(2, (1, 1), 2.5, "field size q must be an integer",
                     id="2-parts3-2.5-field sizes must be integers"),
    ],
)
def test_q_multinomial_messages(n, parts, q, message):
    with pytest.raises(ValueError) as exc:
        q_multinomial(n, parts, q)
    assert str(exc.value) == message


# --- math.log of a count from certified bounds on its natural log ---------


def _frexp(n):
    # the frexp of an int n of more than 53 bits as CPython 3.11 takes it:
    # the mantissa rounded half to even to 53 bits, with a carry to
    # (0.5, e + 1), and the exponent
    e = n.bit_length()
    shift = e - 53
    top, low, half = n >> shift, n & ((1 << shift) - 1), 1 << (shift - 1)
    if low > half or (low == half and top & 1):
        top += 1
    if top == 1 << 53:
        top, e = 1 << 52, e + 1
    return top / 2**53, e


def _is_tie(n):
    # the bits of n below its 53-bit mantissa are exactly one half
    shift = n.bit_length() - 53
    return n & ((1 << shift) - 1) == 1 << (shift - 1)


def _beyond_double_range(count, seed):
    # ints of 1,100 to 10^6 bits, log-uniform in size; every third one a
    # round-half-even tie, every third one 53 one bits that carry
    rng = random.Random(seed)
    for i in range(count):
        bits = int(1100 * (10**6 / 1100) ** rng.random())
        n = rng.getrandbits(bits) | 1 << (bits - 1)
        shift = bits - 53
        if i % 3 == 1:
            n = n >> shift << shift | 1 << (shift - 1)
        elif i % 3 == 2:
            n = ((1 << 53) - 1) << shift | n & ((1 << shift) - 1) | 1 << (shift - 1)
        yield n


def _ln(n):
    # ln n for an int n >= 1, within 2^-290: the top 300 bits, shifted
    shift = max(0, n.bit_length() - 300)
    with decimal.localcontext(decimal.Context(prec=120)) as ctx:
        value = ctx.ln(n >> shift) + shift * ctx.ln(2)
    return value, decimal.Decimal(2) ** -290


def test_math_log_of_a_big_int_is_the_log_of_its_frexp():
    # the step _log_from_ln rests on; a CPython that takes math.log of an
    # int another way fails here
    cases = list(_beyond_double_range(300, seed=17))
    assert sum(map(_is_tie, cases)) >= 100
    assert any(_frexp(n) == (0.5, n.bit_length() + 1) for n in cases)
    for n in cases:
        assert exact._log_of_frexp(*_frexp(n)) == math.log(n)


def test_log_from_ln_gives_math_log_or_none_on_a_tie():
    for n in _beyond_double_range(300, seed=18):
        value = exact._log_from_ln(*_ln(n))
        if _is_tie(n):
            # y is exactly a half: no bound, however tight, fixes its rounding
            assert value is None
        else:
            assert value == math.log(n)


def test_log_from_ln_leaves_the_double_range_and_wide_bounds_open():
    n = 3**600  # 951 bits: math.log takes it as a float
    assert exact._log_from_ln(*_ln(n)) is None
    n = 3**1000
    ln_n, _ = _ln(n)
    assert exact._log_from_ln(ln_n, decimal.Decimal("1e-30")) == math.log(n)
    assert exact._log_from_ln(ln_n, decimal.Decimal("1e-3")) is None


def test_log_constants():
    with decimal.localcontext(decimal.Context(prec=100)) as ctx:
        # Machin: pi = 16 atan(1/5) - 4 atan(1/239)
        def atan_inv(x):
            total, power, k = decimal.Decimal(0), decimal.Decimal(1) / x, 1
            while power > decimal.Decimal(10) ** -95:
                total += (-1) ** (k // 2) * power / k
                power, k = power / (x * x), k + 2
            return total

        pi = 16 * atan_inv(5) - 4 * atan_inv(239)
        assert abs(ctx.ln(2) - exact._LN2) < exact._CONSTANT_ERROR
        assert abs(ctx.ln(2 * pi) / 2 - exact._HALF_LN_2PI) < exact._CONSTANT_ERROR


def test_stirling_coefficients_are_the_bernoulli_terms():
    bernoulli = [Fraction(1)]
    for m in range(1, 2 * len(exact._STIRLING) + 1):
        bernoulli.append(-sum(math.comb(m + 1, k) * bernoulli[k] for k in range(m)) / (m + 1))
    for j, (c, d) in enumerate(exact._STIRLING, 1):
        assert Fraction(c, d) == bernoulli[2 * j] / (2 * j * (2 * j - 1))


@pytest.mark.parametrize("k", [*range(0, 70), 100, 1000, 4096, 65535])
def test_ln_factorial_lies_within_its_bound(k):
    value, error = exact._ln_factorial(k)
    truth, slack = _ln(math.factorial(k))
    assert abs(value - truth) <= error + slack
    assert error < decimal.Decimal("1e-34")


@pytest.mark.parametrize(
    "m, parts, twos",
    [(5, [2, 3], 4), (300, [100, 99], 200), (4095, [512, 1536], 4095), (20000, [64, 63, 9000], 7)],
)
def test_ln_factorial_ratio_lies_within_its_bound(m, parts, twos):
    value, error = exact._ln_factorial_ratio(m, parts, twos)
    count = math.factorial(m) // product(map(math.factorial, parts)) << twos
    truth, slack = _ln(count)
    assert abs(value - truth) <= error + slack
    assert error < decimal.Decimal("1e-34")


def _sp_degrees(blocks, n):
    # the degrees of Sp_n and of the Levi factor of the flag stabilizer
    r = n - sum(blocks)
    levi = [j for m in blocks for j in range(1, m + 1)] + list(range(2, 2 * r + 1, 2))
    return list(range(2, 2 * n + 1, 2)), levi


@pytest.mark.parametrize(
    "blocks, n, q",
    [((3,), 6, 2), ((10, 20), 60, 3), ((40, 50), 150, 2), ((1, 1, 1), 120, 5), ((7,), 30, 10**30 + 3)],
)
def test_ln_degree_ratio_lies_within_its_bound(blocks, n, q):
    # (40, 50) at n = 150 and q = 2 puts degrees past the cutoff
    numer, denom = _sp_degrees(blocks, n)
    value, error = exact._ln_degree_ratio(numer, denom, q)
    count = exact_div(product(q**a - 1 for a in numer), product(q**b - 1 for b in denom))
    truth, slack = _ln(count)
    assert abs(value - truth) <= error + slack
    assert error < decimal.Decimal("1e-40")


def test_certified_logs_ignore_the_thread_context():
    # a thread context that traps on any rounding: arithmetic in it raises
    numer, denom = _sp_degrees((40, 50), 150)
    want = (
        exact._log_from_ln(*exact._ln_factorial_ratio(20000, [64, 63, 9000], 7)),
        exact._log_from_ln(*exact._ln_degree_ratio(numer, denom, 3)),
    )
    strict = decimal.Context(prec=3, traps=[decimal.Inexact, decimal.Rounded])
    with decimal.localcontext(strict):
        got = (
            exact._log_from_ln(*exact._ln_factorial_ratio(20000, [64, 63, 9000], 7)),
            exact._log_from_ln(*exact._ln_degree_ratio(numer, denom, 3)),
        )
    assert got == want and None not in got
