"""The coarsening identities proved from degree lists: the proof's verdict
against the computed route of report.chain_rule_check, seeded faults the
proof must reject, and guards that a proved identity builds only its fine
side."""

import json
from fractions import Fraction
from functools import partial

import pytest

from orbit_entropy import cli, dynkin, exact, reflection, report, symplectic, verify
from orbit_entropy.cli import _poly_str, _positive_compositions
from orbit_entropy.entropy import CoarseMap, ProbVec, conditional, pushforward
from orbit_entropy.exact import IntPolynomial
from orbit_entropy.report import chain_rule_check

WEIGHTS = [(1,), (1, 1), (3, 1), (1, 2, 3), (1, 1, 2), (2, 1, 1, 2)]


def _grid():
    # every block map of each distribution, at each n it admits
    for weights in WEIGHTS:
        dist = ProbVec(Fraction(w, sum(weights)) for w in weights)
        for n in (12, 24):
            if n % dist.denominator:
                continue
            for blocks in _positive_compositions(len(weights), len(weights)):
                if sum(blocks) == len(weights):
                    yield n, dist, CoarseMap(blocks)


GRID = list(_grid())

# (id, the check under test, its computed route, the orders of its outer
# and its inner grading) for each target
TARGETS = [
    *(
        (f"{name}-{family}", partial(check, family),
         partial(chain_rule_check, partial(count, family), partial(count, "A")),
         reflection._grading(count, family)[1], reflection._grading(count, "A")[1])
        for name, check, count in (
            ("cardinality", reflection.coarsening_cardinality_check, reflection.orbit_count),
            ("poincare", reflection.coarsening_poincare_check, reflection.orbit_poincare),
        )
        for family in "ABCD"
    ),
    *(
        (f"symplectic-q{q}",
         lambda n, d, c, q=q: symplectic.symplectic_chain_identity_check(n, d, c, q),
         partial(
             chain_rule_check,
             lambda m, d, q=q: symplectic.sp_quotient_closed(m, d, q),
             lambda m, d, q=q: exact.q_multinomial(m, d.scaled_counts(m), q),
         ),
         symplectic._flag_orders, symplectic._gl_flag_orders)
        for q in (2, 3, 5)
    ),
]
TARGET_IDS = [t[0] for t in TARGETS]


def _spy_verdicts(monkeypatch, fault=None):
    # record each verdict of the proof, after applying fault to its lists
    verdicts = []
    proof = report._proves_coarsening

    def spy(fine, parts, least):
        parts = list(parts)
        if fault is not None:
            fine, parts = fault(fine, parts)
        verdicts.append(proof(fine, parts, least))
        return verdicts[-1]

    monkeypatch.setattr(report, "_proves_coarsening", spy)
    return verdicts


@pytest.mark.parametrize("target", TARGETS, ids=TARGET_IDS)
def test_proof_agrees_with_the_computed_route(target, monkeypatch):
    _, check, computed, _, _ = target
    verdicts = _spy_verdicts(monkeypatch)
    for case in GRID:
        verdicts.clear()
        proved = check(*case)
        expected = computed(*case)
        assert verdicts == [expected.holds], case
        assert proved == expected and proved.rhs is proved.lhs, case


def _last_block_graded_by_a(outer, inner, n, dist, cmap):
    # the last block's quotient taken from the inner grading
    if cmap.blocks[-1] == 1:
        return None
    n_m = n * pushforward(dist, cmap)[-1]
    last = inner(int(n_m), conditional(dist, cmap, cmap.m))
    return lambda fine, parts: (fine, parts[:-1] + [last])


def _dropped_inner_block(outer, inner, n, dist, cmap):
    # the first interior block of more than one part left out
    if not any(b > 1 for b in cmap.blocks[:-1]):
        return None
    return lambda fine, parts: (fine, parts[:1] + parts[2:])


def _off_by_one_count(outer, inner, n, dist, cmap):
    # the fine side's last scaled count one larger, at n + 1
    counts = dist.scaled_counts(n)
    if len(counts) == 1:
        return None
    shifted = ProbVec(Fraction(c, n + 1) for c in counts[:-1] + (counts[-1] + 1,))
    fine = outer(n + 1, shifted)
    return lambda _, parts: (fine, parts)


# family A grades its last block by A already
FAULTS = [
    pytest.param(target, make_fault, id=f"{target[0]}-{make_fault.__name__[1:]}")
    for make_fault in (_last_block_graded_by_a, _dropped_inner_block, _off_by_one_count)
    for target in TARGETS
    if not (make_fault is _last_block_graded_by_a and target[0].endswith("-A"))
]


@pytest.mark.parametrize("target,make_fault", FAULTS)
def test_seeded_faults_fail_the_proof_and_fall_back(target, make_fault, monkeypatch):
    _, check, computed, outer, inner = target
    faulted = 0
    for case in GRID:
        fault = make_fault(outer, inner, *case)
        if fault is None:
            continue
        with monkeypatch.context() as patch:
            verdicts = _spy_verdicts(patch, fault)
            report_ = check(*case)
        assert verdicts == [False], case
        # the fallback builds the right-hand side as the computed route does
        expected = computed(*case)
        assert report_ == expected, case
        assert (report_.holds, report_.residual) == (expected.holds, expected.residual)
        faulted += 1
    assert faulted


def test_held_poincare_check_divides_once(monkeypatch):
    calls, products = [], []
    quotient, multiply = dynkin._bracket_quotient, IntPolynomial.__mul__

    def counted(numer, denom):
        calls.append((tuple(numer), tuple(denom)))
        return quotient(numer, denom)

    def counted_product(a, b):
        products.append((a, b))
        return multiply(a, b)

    monkeypatch.setattr(dynkin, "_bracket_quotient", counted)
    monkeypatch.setattr(IntPolynomial, "__mul__", counted_product)
    dist, cmap = ProbVec(("1/4", "1/4", "1/2")), CoarseMap((2, 1))
    result = reflection.coarsening_poincare_check("B", 48, dist, cmap)
    assert result.holds and result.rhs is result.lhs
    # the one quotient is lhs: B_47 over A_11 x A_11 x B_23
    assert calls == [
        (tuple(dynkin._sizes([("B", 47)])),
         tuple(dynkin._sizes([("A", 11), ("A", 11), ("B", 23)])))
    ]
    # a proved identity multiplies no polynomials
    assert products == []


def test_held_symplectic_check_evaluates_one_product(monkeypatch):
    calls = []
    product = exact.cyclotomic_product

    def counted(exponents, q):
        calls.append(q)
        return product(exponents, q)

    monkeypatch.setattr(exact, "cyclotomic_product", counted)
    monkeypatch.setattr(symplectic, "cyclotomic_product", counted)
    dist, cmap = ProbVec(("1/4", "1/4", "1/2")), CoarseMap((2, 1))
    result = symplectic.symplectic_chain_identity_check(8, dist, cmap, 3)
    assert result.holds and result.rhs is result.lhs
    assert calls == [3]


def test_failed_proof_prints_the_built_right_side(monkeypatch, capsys):
    # with the proof failing, a faulty inner grading shows in the printed
    # rhs and residual, and the identity exits 1
    original = reflection.orbit_poincare

    def faulty(family, n, dist):
        value = original(family, n, dist)
        return value + IntPolynomial.one() if family == "A" else value

    monkeypatch.setattr(report, "_proves_coarsening", lambda *args: False)
    monkeypatch.setattr(reflection, "orbit_poincare", faulty)
    dist, cmap = ProbVec(("1/4", "1/4", "1/2")), CoarseMap((2, 1))
    expected = chain_rule_check(
        partial(faulty, "B"), partial(faulty, "A"), 8, dist, cmap
    )
    assert not expected.holds
    code = cli.main(["chain-check", "--target", "poincare", "--family", "B", "--n", "8",
                     "--dist", "1/4,1/4,1/2", "--blocks", "2,1"])
    record = json.loads(capsys.readouterr().out)
    assert code == 1
    assert record["holds"] is False
    assert record["lhs"] == _poly_str(expected.lhs)
    assert record["rhs"] == _poly_str(expected.rhs) != record["lhs"]
    assert record["residual"] == _poly_str(expected.residual)


def test_proof_compares_powers_of_q_and_phi_1_only_from_least():
    prove = report._proves_coarsening
    # q (q - 1) is not q - 1: the powers of q differ
    assert not prove(((1, [1]), (0, [])), [((0, [1]), (0, []))], 1)
    assert prove(((1, [1]), (0, [])), [((1, [1]), (0, [])), ((0, []), (0, []))], 1)
    # t^2 - 1 and [2]_t = (t^2 - 1) / (t - 1) differ by Phi_1 alone
    assert prove(((0, [2]), (0, [])), [((0, [2]), (0, [1]))], 2)
    assert not prove(((0, [2]), (0, [])), [((0, [2]), (0, [1]))], 1)
    # [4]_t = [2]_t (1 + t^2): Phi_4 is left over without the second factor
    assert prove(((0, [4]), (0, [])), [((0, [2]), (0, [])), ((0, [4]), (0, [2]))], 2)
    assert not prove(((0, [4]), (0, [])), [((0, [2]), (0, []))], 2)


# every builder of a verify.Quotient (|G|, |H|) the package has, as a
# function of (n, dist); a new count's builder joins this list
QUOTIENT_BUILDERS = {
    "flag": lambda n, d: verify._flag_quotient(d.scaled_counts(n)[:-1], n),
    "gl-flag": symplectic._gl_flag_orders,
    **{
        f"brackets-{family}": lambda n, d, family=family: reflection._bracket_orders(
            family, n - 1, dynkin.flag_factors(family, d.scaled_counts(n))
        )
        for family in dynkin.FAMILIES
    },
}


@pytest.mark.parametrize("builder", QUOTIENT_BUILDERS.values(), ids=QUOTIENT_BUILDERS)
def test_every_quotient_builder_puts_the_group_over_the_stabilizer(builder):
    # |G| / |H| is q^a prod Phi_d(q)^{e_d} with a >= 0 and every e_d >= 0;
    # a builder returning (|H|, |G|) would turn them negative
    for n in range(2, 13):
        for parts in _positive_compositions(n, 3):
            dist = ProbVec(Fraction(m, n) for m in parts)
            power, net = verify._phi_exponents([(1, builder(n, dist))])
            assert power >= 0 and min(net) >= 0, (n, parts)
