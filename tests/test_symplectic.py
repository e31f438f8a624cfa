"""Closed-form orders and counts over finite fields, the flag-count quotient,
and the exact chain identity connecting nested flag types."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbit_entropy import exact, symplectic, verify
from orbit_entropy.dynkin import poincare_quotient
from orbit_entropy.entropy import CoarseMap, ProbVec, symplectic_entropy
from orbit_entropy.exact import InexactDivisionError, exact_div, q_multinomial
from orbit_entropy.symplectic import (
    FlagType,
    gl_order,
    ig_count,
    isotropic_flag_count,
    normalized_logq_quotient,
    sp_order,
    sp_quotient_closed,
    symplectic_chain_identity_check,
    unipotent_radical_order,
)

HALF = ProbVec(("1/2", "1/2"))


def test_gl_order_values():
    assert gl_order(0, 2) == 1
    assert gl_order(1, 2) == 1
    assert gl_order(2, 2) == 6
    assert gl_order(3, 2) == 168
    assert gl_order(4, 2) == 20160
    assert gl_order(2, 3) == 48


def test_sp_order_values():
    assert sp_order(0, 2) == 1
    assert sp_order(1, 2) == 6
    assert sp_order(2, 2) == 720
    assert sp_order(1, 3) == 24
    assert sp_order(2, 3) == 51840


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7))
def test_orders_match_left_to_right_products(q):
    assert sp_order(0, q) == 1
    tail = 1
    for k in range(1, 201):
        tail *= q ** (2 * k) - 1
        assert sp_order(k, q) == q ** (k * k) * tail
    for k in range(0, 201, 8):
        gl = 1
        for i in range(k):
            gl *= q**k - q**i
        assert gl_order(k, q) == gl


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7))
def test_ig_count_matches_left_to_right_product(q):
    # Gaussian binomial times the (q^j + 1) tail, both taken one factor at a time
    for n in range(0, 201, 20):
        for s in sorted({0, min(n, 1), n // 3, n // 2, n}):
            binom = 1
            for i in range(s):
                binom = binom * (q ** (n - i) - 1) // (q ** (i + 1) - 1)
            tail = 1
            for j in range(n - s + 1, n + 1):
                tail *= q**j + 1
            assert ig_count(s, n, q) == binom * tail


def _compositions_below(n, parts):
    # every tuple of at most `parts` positive parts with sum at most n
    level = out = [()]
    for _ in range(parts):
        level = [c + (m,) for c in level for m in range(1, n - sum(c) + 1)]
        out = out + level
    return out


def test_orders_match_the_hand_derived_powers():
    # the one rule q^N prod(q^d - 1), N = sum(d - 1), over the degrees
    # against the three powers of q and the dimension count it replaced
    for q in (2, 3, 7):
        for n in range(13):
            assert sp_order(n, q) == q ** (n * n) * math.prod(
                q ** (2 * i) - 1 for i in range(1, n + 1)
            )
            assert gl_order(n, q) == q ** (n * (n - 1) // 2) * math.prod(
                q**i - 1 for i in range(1, n + 1)
            )
            for s in range(n + 1):
                assert unipotent_radical_order(s, n, q) == q ** (
                    s * (s + 1) // 2 + 2 * s * (n - s)
                )
    for n in range(1, 13):
        for blocks in _compositions_below(n, 3):
            r = n - sum(blocks)
            levi = sum(m * m for m in blocks) + r * (2 * r + 1)
            unipotent = (n * (2 * n + 1) - levi) // 2
            degrees = [j for m in blocks for j in range(1, m + 1)]
            degrees += [2 * i for i in range(1, r + 1)]
            group, levi_degrees = verify._flag_quotient(blocks, n)
            assert levi_degrees == degrees
            # the unipotent radical's dimension is the N of Sp_n less the Levi's
            roots = verify._positive_roots
            assert roots(group) - roots(levi_degrees) == unipotent


def _ref_flag_exponents(blocks, n):
    # the q-multinomial exponents of (blocks, r) plus those of the tail
    # prod (q^j + 1), r < j <= n, which q^j + 1 = (q^2j - 1) / (q^j - 1)
    # spreads over the even d with j an odd multiple of d/2
    r = n - sum(blocks)
    exponents = exact.q_multinomial_exponents(n, (*blocks, r)) + [0] * n
    for d in range(2, 2 * n + 1, 2):
        h = d // 2
        exponents[d] += n // h - r // h - (n // d - r // d)
    return exponents


def test_flag_exponents_match_the_multinomial_and_tail():
    for n in range(1, 25):
        for blocks in _compositions_below(n, 3):
            assert symplectic._flag_exponents(blocks, n) == _ref_flag_exponents(
                blocks, n
            ), (blocks, n)


def test_unipotent_radical_order_values():
    assert unipotent_radical_order(0, 5, 3) == 1
    assert unipotent_radical_order(1, 2, 2) == 2 ** 3
    assert unipotent_radical_order(2, 2, 2) == 2 ** 3
    assert unipotent_radical_order(1, 1, 2) == 2


def test_ig_count_values():
    assert ig_count(0, 4, 2) == 1
    assert ig_count(1, 1, 2) == 3
    assert ig_count(1, 2, 2) == 15
    assert ig_count(2, 2, 2) == 15
    assert ig_count(1, 3, 2) == 63


def test_ig_count_rejects_bad_dimension():
    with pytest.raises(ValueError):
        ig_count(3, 2, 2)
    with pytest.raises(ValueError):
        ig_count(-1, 2, 2)


def test_lagrangian_specialization():
    for q in (2, 3):
        for n in range(1, 16):
            expected = 1
            for j in range(1, n + 1):
                expected *= q ** j + 1
            assert ig_count(n, n, q) == expected


def test_line_specialization():
    for q in (2, 3, 5):
        for n in range(1, 16):
            assert ig_count(1, n, q) == exact_div(q ** (2 * n) - 1, q - 1)


def test_stabilizer_factorization_medium_grid():
    for q in (2, 3, 5):
        for n in range(13):
            total = sp_order(n, q)
            for s in range(n + 1):
                product = (
                    ig_count(s, n, q)
                    * unipotent_radical_order(s, n, q)
                    * gl_order(s, q)
                    * sp_order(n - s, q)
                )
                assert product == total


def test_flag_type_validation():
    ft = FlagType([1, 1], 2, 2)
    assert ft.increments == (1, 1)
    with pytest.raises(ValueError):
        FlagType((0, 1), 2, 2)
    with pytest.raises(ValueError):
        FlagType((2, 1), 2, 2)
    assert isotropic_flag_count(FlagType((), 3, 2)) == 1


def test_isotropic_flag_count_values():
    assert isotropic_flag_count(FlagType((1, 1), 2, 2)) == 45
    assert isotropic_flag_count(FlagType((2,), 2, 2)) == 15
    assert isotropic_flag_count(FlagType((1,), 2, 2)) == 15
    # refining a subspace into a full flag multiplies by the q-multinomial
    assert isotropic_flag_count(FlagType((1, 1), 2, 2)) == isotropic_flag_count(
        FlagType((2,), 2, 2)
    ) * q_multinomial(2, (1, 1), 2)


def test_sp_quotient_closed_values():
    assert sp_quotient_closed(2, HALF, 2) == 15
    assert sp_quotient_closed(2, HALF, 3) == 40
    # the final block is not an isotropic step, so a point mass stabilizes
    # everything and the quotient collapses
    assert sp_quotient_closed(1, ProbVec(("1",)), 2) == 1


def test_sp_quotient_matches_partial_flag_count():
    cases = [
        (2, HALF, 2),
        (4, HALF, 3),
        (6, ProbVec(("1/3", "1/3", "1/3")), 2),
        (5, ProbVec(("1",)), 4),
    ]
    for n, dist, q in cases:
        counts = dist.scaled_counts(n)
        assert sp_quotient_closed(n, dist, q) == isotropic_flag_count(
            FlagType(counts[:-1], n, q)
        )
        s = sum(counts[:-1])
        assert sp_quotient_closed(n, dist, q) == ig_count(s, n, q) * q_multinomial(
            s, counts[:-1], q
        )


def test_normalized_logq_quotient_value():
    got = normalized_logq_quotient(2, HALF, 2)
    assert got == pytest.approx(math.log(15) / (4 * math.log(2)), abs=1e-15)


def test_normalized_logq_error_shrinks():
    from orbit_entropy.entropy import symplectic_entropy

    limit = float(symplectic_entropy(HALF))
    errors = [
        abs(normalized_logq_quotient(n, HALF, 2) - limit) for n in (8, 16, 32)
    ]
    assert errors == sorted(errors, reverse=True)


def test_chain_identity_worked_example():
    dist = ProbVec(("1/4", "1/4", "1/2"))
    report = symplectic_chain_identity_check(4, dist, CoarseMap((2, 1)), 2)
    assert report.holds
    assert report.lhs == 16065
    assert report.residual == 0


@st.composite
def chain_case(draw):
    weights = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    d = sum(weights)
    mult = draw(st.integers(1, max(1, 16 // d)))
    n = d * mult
    dist = ProbVec(Fraction(w, d) for w in weights)
    k = len(weights)
    if k > 1:
        cuts = draw(st.sets(st.integers(1, k - 1), max_size=k - 1))
    else:
        cuts = set()
    bounds = [0, *sorted(cuts), k]
    cmap = CoarseMap(tuple(b - a for a, b in zip(bounds, bounds[1:])))
    q = draw(st.sampled_from((2, 3, 4, 5)))
    return n, dist, cmap, q


@given(chain_case())
@settings(max_examples=200, deadline=None)
def test_chain_identity_randomized(case):
    n, dist, cmap, q = case
    report = symplectic_chain_identity_check(n, dist, cmap, q)
    assert report.holds, (n, dist.probs, cmap.blocks, q, report)


@given(chain_case())
@settings(max_examples=100, deadline=None)
def test_quotient_counts_are_positive_and_divide_group_related_products(case):
    n, dist, _, q = case
    count = sp_quotient_closed(n, dist, q)
    assert count >= 1
    # the count times the flag stabilizer order equals the full group order;
    # the stabilizer order is recoverable as an exact division
    exact_div(sp_order(n, q), count)


@st.composite
def flag_case(draw, max_n):
    # positive increments with a positive remainder r = n - sum, and q
    n = draw(st.integers(1, max_n))
    increments = []
    while sum(increments) < n - 1 and draw(st.booleans()):
        increments.append(draw(st.integers(1, n - 1 - sum(increments))))
    q = draw(st.sampled_from((2, 3, 4, 5, 7)))
    return tuple(increments), n, q


def _dist(increments, n):
    return ProbVec(Fraction(c, n) for c in (*increments, n - sum(increments)))


@given(flag_case(200))
@settings(max_examples=60, deadline=None)
def test_big_int_identities_up_to_200(case):
    # the stabilizer factorization and the flag-count identity on the big
    # integers, which the counts themselves check symbolically and mod p
    increments, n, q = case
    s = sum(increments)
    ig = ig_count(s, n, q)
    stabilizer = unipotent_radical_order(s, n, q) * gl_order(s, q) * sp_order(n - s, q)
    assert ig * stabilizer == sp_order(n, q)
    flags = ig * q_multinomial(s, increments, q)
    assert isotropic_flag_count(FlagType(increments, n, q)) == flags
    assert sp_quotient_closed(n, _dist(increments, n), q) == flags


@given(flag_case(16), st.sampled_from((2, 3, 5)))
@settings(max_examples=150, deadline=None)
def test_bruhat_quotient_is_the_type_c_poincare_quotient(case, q):
    # |Sp_{2n}(F_q)/P| is the Poincare polynomial of W(C_n)/W_P at t = q, with
    # W_P = A_{c_1 - 1} x ... x A_{c_{k-1} - 1} x C_{c_k}, rank-0 factors dropped
    increments, n, _ = case
    factors = [("A", c - 1) for c in increments if c > 1]
    factors.append(("C", n - sum(increments)))
    assert sp_quotient_closed(n, _dist(increments, n), q) == poincare_quotient(
        "C", n, factors
    )(q)


def _bump_phi_2(original):
    def table(m, q):
        phi = original(m, q)
        phi[2] += 1
        return phi

    return table


def _bump_e_2(original):
    def exponents(blocks, n):
        out = original(blocks, n)
        out[2] += 1
        return out

    return exponents


def _bump_top_c_degree(original):
    def sizes(family, rank):
        out = original(family, rank)
        return out[:-1] + (out[-1] + 2,) if family == "C" and out else out

    return sizes


FAULTS = {
    "phi entry off by one": (exact, "_cyclotomic_values", _bump_phi_2),
    "tail range off by one": (
        symplectic, "_c_multiples", lambda original: lambda k, d: original(k + 1, d)
    ),
    "product drops a factor": (
        exact, "product", lambda original: lambda values: original(list(values)[1:])
    ),
    "one exponent wrong": (symplectic, "_flag_exponents", _bump_e_2),
    # the closed form keeps its floor formula; only the proof reads the table
    "a type-C degree wrong, as the proof reads it": (
        verify, "_bracket_sizes", _bump_top_c_degree
    ),
}

FLAG_COUNTS = {
    "ig_count": lambda q: ig_count(3, 6, q),
    "isotropic_flag_count": lambda q: isotropic_flag_count(FlagType((1, 2), 6, q)),
    "sp_quotient_closed": lambda q: sp_quotient_closed(
        6, ProbVec(("1/6", "1/3", "1/2")), q
    ),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("count", sorted(FLAG_COUNTS))
@pytest.mark.parametrize("q", (3, verify.PRIMES[0] * verify.PRIMES[1] + 1))
def test_seeded_faults_raise(fault, count, q, monkeypatch):
    # the large q is 1 mod two of the primes, so the exact equality runs
    module, name, wrap = FAULTS[fault]
    monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    with pytest.raises(InexactDivisionError):
        FLAG_COUNTS[count](q)


def test_symbolic_proof_rejects_vectors_right_only_at_one_q():
    # Phi_1(2) = 1 and Phi_2(2) = Phi_6(2) = 3, so these vectors give the
    # right value at q = 2, which the residue check alone would accept
    exps = symplectic._flag_exponents((3,), 6)
    value = ig_count(3, 6, 2)
    verify.check_count(verify._flag_quotient((3,), 6), 2, exps, value)
    extra_phi_1 = exps.copy()
    extra_phi_1[1] += 1
    phi_2_as_phi_6 = exps.copy()
    phi_2_as_phi_6[2] -= 1
    phi_2_as_phi_6[6] += 1
    for bad in (extra_phi_1, phi_2_as_phi_6):
        assert exact.cyclotomic_product(bad, 2) == value
        with pytest.raises(InexactDivisionError):
            verify.check_count(verify._flag_quotient((3,), 6), 2, bad, value)


def test_exact_equality_runs_when_fewer_than_two_primes_inform(monkeypatch):
    calls = []
    exact_order = verify._order

    def order(group, q):
        calls.append(q)
        return exact_order(group, q)

    monkeypatch.setattr(verify, "_order", order)
    ig_count(2, 4, 5)
    assert calls == []
    q = verify.PRIMES[0] * verify.PRIMES[2] + 1
    count = ig_count(2, 4, q)
    # the public orders below share the evaluator, so record before them
    assert calls == [q, q]
    assert count * gl_order(2, q) * unipotent_radical_order(
        2, 4, q
    ) * sp_order(2, q) == sp_order(4, q)


def test_counts_build_no_group_order(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a count built a group order or a second flag count")

    for name in ("sp_order", "gl_order", "unipotent_radical_order", "isotropic_flag_count"):
        monkeypatch.setattr(symplectic, name, forbidden)
    for count in FLAG_COUNTS.values():
        assert count(2) == count(2) > 1


# --- normalized_logq_quotient from certified bounds -------------------------

# distributions in the manner of the benchmark's small sweep, defined at
# every multiple of 12, and the one of its scalar-large converge op
SWEEP = tuple(
    ProbVec(d.split(","))
    for d in ("1/2,1/2", "1/3,2/3", "1/4,3/4", "1/4,1/4,1/2", "1/3,1/3,1/3",
              "1/6,1/3,1/2", "5/12,1/4,1/3")
)
LARGE = ProbVec(("1/8", "3/8", "1/2"))


def _spy_on_bounds(monkeypatch):
    # the results of exact._log_from_ln, one per count taken from bounds
    results = []
    log_from_ln = exact._log_from_ln

    def spy(*bounds):
        results.append(log_from_ln(*bounds))
        return results[-1]

    monkeypatch.setattr(exact, "_log_from_ln", spy)
    return results


@pytest.mark.parametrize(
    "n, dist, q",
    [(n, d, q) for q in (2, 3, 5) for d in SWEEP for n in (24, 48, 192, 288)]
    + [(n, d, 2) for d in (LARGE, ProbVec(("3/8", "1/8", "1/2"))) for n in (256, 512, 1024)],
)
def test_normalized_logq_quotient_from_bounds_is_the_exact_float(n, dist, q, monkeypatch):
    # n = 24 and 48 give counts of at most 4,200 bits, n = 192 of at least
    # 12,000: both sides of the crossover
    results = _spy_on_bounds(monkeypatch)
    value = normalized_logq_quotient(n, dist, q)
    count = sp_quotient_closed(n, dist, q)
    assert value == math.log(count) / (n * n * math.log(q))
    if count.bit_length() > exact._LOG_BOUND_BITS + 64:
        assert results and None not in results
    elif count.bit_length() < exact._LOG_BOUND_BITS - 64:
        assert results == []


def _forbid_the_count(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the flag count was built")

    monkeypatch.setattr(symplectic, "cyclotomic_product", forbidden)


def test_normalized_logq_quotient_builds_no_count_above_the_crossover(monkeypatch):
    _forbid_the_count(monkeypatch)
    limit = float(symplectic_entropy(LARGE))
    for n in (512, 1024, 4096):
        assert abs(normalized_logq_quotient(n, LARGE, 2) - limit) < 1e-3


@pytest.mark.parametrize(
    "fault", ("tail range off by one", "one exponent wrong", "a type-C degree wrong, as the proof reads it")
)
def test_seeded_faults_raise_above_the_crossover(fault, monkeypatch):
    # the faults the symbolic proof catches; it runs on the path that
    # builds no count
    _forbid_the_count(monkeypatch)
    module, name, wrap = FAULTS[fault]
    monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    with pytest.raises(InexactDivisionError):
        normalized_logq_quotient(512, LARGE, 2)


@pytest.mark.parametrize("bits", (0, math.inf))
def test_normalized_logq_quotient_proves_the_exponents_first(bits, monkeypatch):
    # on the bound path the proof is the whole check; on the count path it
    # runs before the product, which check_count then proves again
    calls = []

    def spy(name, original):
        def wrapped(*args):
            calls.append(name)
            return original(*args)

        return wrapped

    monkeypatch.setattr(exact, "_LOG_BOUND_BITS", bits)
    for name in ("_prove_exponents", "cyclotomic_product"):
        monkeypatch.setattr(symplectic, name, spy(name, getattr(symplectic, name)))
    normalized_logq_quotient(256, LARGE, 2)
    want = ["_prove_exponents"] + ["cyclotomic_product"] * (bits == math.inf)
    assert calls == want


def test_flag_quotient_is_the_group_over_the_stabilizer_it_proves():
    blocks, n = (1, 2), 6
    quotient = verify._flag_quotient(blocks, n)
    assert quotient == ([2, 4, 6, 8, 10, 12], [1, 1, 2, 2, 4, 6])
    exponents = symplectic._flag_exponents(blocks, n)
    verify._prove_exponents(quotient, exponents)
    with pytest.raises(InexactDivisionError):
        verify._prove_exponents(quotient[::-1], exponents)


@pytest.mark.parametrize("q", (2, 3, 7))
def test_flag_bits_are_the_degree_difference_of_the_quotient(q):
    # D = n(n + 1) - sum m(m + 1)/2 - r(r + 1) in closed form is the sum of
    # the group's degrees less the Levi's
    for n in range(1, 9):
        for k in range(1, n + 1):
            for blocks in set(itertools.permutations(range(1, k + 1), 2)) | {(k,), ()}:
                if sum(blocks) > n:
                    continue
                js, ks = verify._flag_quotient(blocks, n)
                want = (sum(js) - sum(ks)) * math.log2(q)
                assert symplectic._flag_bits(blocks, n, q) == want, (blocks, n)


@pytest.mark.parametrize("zeros", (60, 400))
def test_counts_too_large_to_build_are_refused_before_any_degree_list(zeros, monkeypatch):
    # at n = 10^60 the lists of about 2n degrees cannot be made; at 10^400
    # D passes the float range and its estimate is inf
    def forbidden(*args):
        raise AssertionError("a degree list was built")

    monkeypatch.setattr(symplectic, "_flag_quotient", forbidden)
    monkeypatch.setattr(symplectic, "_flag_exponents", forbidden)
    n = 10**zeros
    for call in (
        lambda: sp_quotient_closed(n, HALF, 2),
        lambda: normalized_logq_quotient(n, HALF, 2),
        lambda: ig_count(1, n, 3),
        lambda: isotropic_flag_count(FlagType((1, 1), n, 2)),
    ):
        with pytest.raises(ValueError, match="is too large to build"):
            call()


def test_normalized_logq_quotient_falls_back_to_the_count_on_a_wide_bound(monkeypatch):
    results = _spy_on_bounds(monkeypatch)
    coarse = exact._LOG_CONTEXT.copy()
    coarse.prec = 12
    monkeypatch.setattr(exact, "_LOG_CONTEXT", coarse)
    value = normalized_logq_quotient(256, LARGE, 3)
    assert results == [None]
    assert value == math.log(sp_quotient_closed(256, LARGE, 3)) / (256 * 256 * math.log(3))


@pytest.mark.parametrize(
    "n, dist, q",
    [(1001, LARGE, 2), (1020, LARGE, 2), (2.5, LARGE, 2), (1024, LARGE, 1), (1024, LARGE, 2.5)],
)
def test_bad_input_raises_alike_on_both_sides_of_the_crossover(n, dist, q, monkeypatch):
    def raised(call):
        with pytest.raises(Exception) as info:
            call()
        return type(info.value), str(info.value)

    seen = {raised(lambda: sp_quotient_closed(n, dist, q))}
    for bits in (0, math.inf):
        monkeypatch.setattr(exact, "_LOG_BOUND_BITS", bits)
        seen.add(raised(lambda: normalized_logq_quotient(n, dist, q)))
    assert len(seen) == 1
