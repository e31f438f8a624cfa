"""Brute-force cross-checks at small scale. Everything here recomputes a
closed form by direct enumeration, so sizes are deliberately tiny."""

import ast
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from orbit_entropy import oracle
from orbit_entropy.dynkin import (
    Diagram,
    group_order,
    poincare_closed,
    poincare_parabolic,
    remove_nodes,
)
from orbit_entropy.exact import InexactDivisionError, multinomial
from orbit_entropy.symplectic import gl_order, ig_count, isotropic_flag_count, FlagType, sp_order


def test_count_type_class_matches_multinomial():
    assert oracle.count_type_class(4, (2, 2)) == 6
    assert oracle.count_type_class(6, (1, 2, 3)) == 60
    assert oracle.count_type_class(5, (5,)) == 1
    for n in range(1, 8):
        for a in range(n + 1):
            assert oracle.count_type_class(n, (a, n - a)) == multinomial(n, (a, n - a))


def test_count_type_class_respects_word_cap():
    with pytest.raises(ValueError):
        oracle.count_type_class(oracle.MAX_WORD_LENGTH + 1, (11,))
    # zero counts add symbols too: 5^8 = 390625 words would be listed for a
    # count of 1
    with pytest.raises(ValueError, match=r"capped at k\^n <= 70000"):
        oracle.count_type_class(8, (8, 0, 0, 0, 0))


def test_length_census_small_groups():
    assert oracle.reflection_length_census("A", 1).coeffs == (1, 1)
    assert oracle.reflection_length_census("A", 2).coeffs == (1, 2, 2, 1)
    assert oracle.reflection_length_census("B", 2).coeffs == (1, 2, 2, 2, 1)
    assert oracle.reflection_length_census("D", 2).coeffs == (1, 2, 1)


def test_length_census_equals_closed_form():
    for family in ("A", "B"):
        for rank in range(1, 4):
            assert oracle.reflection_length_census(family, rank) == poincare_closed(
                family, rank
            )
    for rank in (2, 3):
        assert oracle.reflection_length_census("D", rank) == poincare_closed("D", rank)


def test_length_census_respects_rank_cap():
    with pytest.raises(ValueError):
        oracle.reflection_length_census("A", oracle.MAX_RANK + 1)


def test_census_has_no_c_realization():
    # the doubled family is realized once; its mirror shares the same group
    with pytest.raises(ValueError):
        oracle.reflection_length_census("C", 2)
    assert group_order("C", 3) == oracle.reflection_length_census("B", 3)(1)


def test_parabolic_census_matches_product_form():
    cases = [
        ("A", 3, (2,)),
        ("B", 3, (1,)),
        ("B", 3, (3,)),
        ("D", 4, (3,)),  # deleting a fork tip leaves a plain chain
        ("D", 4, (1, 2)),
        ("A", 4, ()),
    ]
    for family, rank, removal in cases:
        census = oracle.parabolic_length_census(family, rank, removal)
        factors = remove_nodes(Diagram(family, rank), removal)
        assert census == poincare_parabolic(factors), (family, rank, removal)


def test_parabolic_census_full_removal_is_trivial_group():
    census = oracle.parabolic_length_census("A", 2, (1, 2))
    assert census.coeffs == (1,)


def test_enumerate_general_linear():
    assert oracle.enumerate_general_linear(0, 2) == 1
    assert oracle.enumerate_general_linear(2, 2) == gl_order(2, 2) == 6
    assert oracle.enumerate_general_linear(3, 2) == gl_order(3, 2) == 168
    assert oracle.enumerate_general_linear(2, 3) == gl_order(2, 3) == 48
    # the largest case under the cap, where the count is taken four columns deep
    assert oracle.enumerate_general_linear(4, 2) == gl_order(4, 2) == 20160
    with pytest.raises(ValueError):
        oracle.enumerate_general_linear(4, 3)


def test_enumerate_isotropic_subspaces():
    assert oracle.enumerate_isotropic_subspaces(0, 2, 2) == 1
    assert oracle.enumerate_isotropic_subspaces(1, 1, 2) == ig_count(1, 1, 2) == 3
    assert oracle.enumerate_isotropic_subspaces(1, 2, 2) == ig_count(1, 2, 2) == 15
    assert oracle.enumerate_isotropic_subspaces(2, 2, 2) == ig_count(2, 2, 2) == 15
    assert oracle.enumerate_isotropic_subspaces(1, 2, 3) == ig_count(1, 2, 3) == 40
    with pytest.raises(ValueError):
        oracle.enumerate_isotropic_subspaces(1, oracle.MAX_HALF_DIM + 1, 2)
    with pytest.raises(ValueError):
        oracle.enumerate_isotropic_subspaces(1, 2, 5)


def test_enumerate_isotropic_flags():
    assert oracle.enumerate_isotropic_flags((1, 1), 2, 2) == 45
    assert oracle.enumerate_isotropic_flags((2,), 2, 2) == 15
    assert oracle.enumerate_isotropic_flags((), 2, 2) == 1
    assert oracle.enumerate_isotropic_flags((1, 1), 2, 3) == isotropic_flag_count(
        FlagType((1, 1), 2, 3)
    )


def test_enumerate_symplectic_group():
    assert oracle.enumerate_symplectic_group(1, 2) == sp_order(1, 2) == 6
    assert oracle.enumerate_symplectic_group(1, 3) == sp_order(1, 3) == 24
    assert oracle.enumerate_symplectic_group(2, 2) == sp_order(2, 2) == 720
    with pytest.raises(ValueError):
        oracle.enumerate_symplectic_group(2, 3)


def test_stabilizer_and_orbit_reports():
    line = oracle.stabilizer_and_orbit_check(1, 2, 2)
    assert (line.orbit_size, line.stabilizer_size) == (15, 48)
    assert line.group_size == 720
    assert line.holds
    lagrangian = oracle.stabilizer_and_orbit_check(2, 2, 2)
    assert (lagrangian.orbit_size, lagrangian.stabilizer_size) == (15, 48)
    assert lagrangian.holds
    trivial = oracle.stabilizer_and_orbit_check(0, 1, 2)
    assert trivial.orbit_size == 1
    assert trivial.stabilizer_size == 6
    assert trivial.holds
    small = oracle.stabilizer_and_orbit_check(1, 1, 2)
    assert (small.orbit_size, small.stabilizer_size) == (3, 2)
    assert small.holds


# inputs the oracle cannot serve are rejected, not truncated or merged


def test_oracle_rejects_fractional_inputs():
    with pytest.raises(ValueError, match="integers"):
        oracle.parabolic_length_census("A", 3, [1.5])
    with pytest.raises(ValueError, match="integers"):
        oracle.count_type_class(3, (2.5, 1))
    with pytest.raises(ValueError, match="integers"):
        oracle.enumerate_isotropic_flags((1.9,), 2, 2)
    with pytest.raises(ValueError, match="integers"):
        oracle.enumerate_isotropic_subspaces(1.5, 2, 2)
    # integral floats still count as their integers
    assert oracle.enumerate_isotropic_flags((1.0,), 2, 2) == 15


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: oracle.count_type_class(2.5, (1, 1)), "word lengths must be integers"),
        (lambda: oracle.reflection_length_census("A", 2.5), "ranks must be integers"),
        (lambda: oracle.parabolic_length_census("A", 2.5, [1]), "ranks must be integers"),
        # q and the sizes beside it go through the closed forms' gate, so a
        # non-integral q has one message everywhere; these rows keep the
        # ids they had before the messages changed
        pytest.param(lambda: oracle.enumerate_general_linear(1.5, 2),
                     "sizes must be integers", id="<lambda>-m and q must be integers"),
        pytest.param(lambda: oracle.enumerate_isotropic_flags((1,), 1.5, 2),
                     "sizes must be integers", id="<lambda>-n and q must be integers0"),
        pytest.param(lambda: oracle.enumerate_isotropic_subspaces(1, 2, 2.5),
                     "field size q must be an integer", id="<lambda>-n and q must be integers1"),
        pytest.param(lambda: oracle.enumerate_symplectic_group(1, 2.5),
                     "field size q must be an integer", id="<lambda>-n and q must be integers2"),
        pytest.param(lambda: oracle.stabilizer_and_orbit_check(0.5, 1, 2),
                     "sizes must be integers", id="<lambda>-s, n and q must be integers"),
        # the other input rules of the same gates
        (lambda: oracle.count_type_class(2, (3, -1)), "symbol counts must be nonnegative"),
        (lambda: oracle.count_type_class(2, (1, 2)),
         "symbol counts must sum to the word length"),
        (lambda: oracle.reflection_length_census("D", 1), "family D requires rank >= 2"),
        (lambda: oracle.enumerate_isotropic_subspaces(2, 1, 2), "need 0 <= s <= n"),
        (lambda: oracle.enumerate_isotropic_flags((1, 0), 2, 2),
         "flag increments must be positive"),
        # the id keeps the name this case had before the oracle took
        # FlagType's wording
        pytest.param(lambda: oracle.enumerate_isotropic_flags((1, 2), 2, 2),
                     "total isotropic dimension cannot exceed n",
                     id="<lambda>-total dimension cannot exceed n"),
        (lambda: oracle.parabolic_length_census("A", 3, [4]), "node 4 outside 1..3"),
        # the inputs of the closed forms' rows in test_records'
        # test_non_integral_scalars_are_rejected, with the same messages.
        # Named ids keep the ids above unique.
        pytest.param(lambda: oracle.enumerate_isotropic_subspaces(3, 2, 2),
                     "need 0 <= s <= n", id="enumerate_isotropic_subspaces-s-above-n"),
        pytest.param(lambda: oracle.stabilizer_and_orbit_check(3, 2, 2),
                     "need 0 <= s <= n", id="stabilizer_and_orbit_check-s-above-n"),
        pytest.param(lambda: oracle.enumerate_general_linear(-1, 2),
                     "m must be nonnegative", id="enumerate_general_linear-m-negative"),
    ],
)
def test_oracle_rejects_fractional_scalars(call, message):
    # the fractional scalars each once raised TypeError from inside range
    # or itertools
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_oracle_takes_integral_scalars_as_ints():
    assert oracle.count_type_class(2.0, (1, 1)) == 2
    assert oracle.reflection_length_census("A", 2.0) == poincare_closed("A", 2)
    assert oracle.enumerate_general_linear(2.0, 2.0) == 6
    assert oracle.enumerate_isotropic_flags((1,), 2.0, 2) == 15
    assert oracle.enumerate_symplectic_group(1.0, True + 1) == 6
    report = oracle.stabilizer_and_orbit_check(1.0, 1.0, 2.0)
    assert report.holds and report.orbit_size == 3


def test_parabolic_census_rejects_repeated_nodes():
    with pytest.raises(ValueError, match="removal set has repeated nodes"):
        oracle.parabolic_length_census("A", 3, [1, 1])
    with pytest.raises(ValueError, match="removal set has repeated nodes"):
        remove_nodes(Diagram("A", 3), [1, 1])


def test_general_linear_names_the_cause():
    with pytest.raises(ValueError, match="m must be nonnegative"):
        oracle.enumerate_general_linear(-1, 2)
    with pytest.raises(ValueError, match=r"capped at q\^\(m\*m\) <= 70000"):
        oracle.enumerate_general_linear(4, 3)


# reference copies of the earlier routes: hand-written positive roots,
# row reduction of every matrix, a column search for Sp written apart from
# the oracle's, the form as a Gram matrix product, and the action of a
# group element by matrix-vector products on every vector of the base


def _ref_basis(dim, i, sign=1):
    v = [0] * dim
    v[i] = sign
    return tuple(v)


def _ref_positive_roots(family, rank):
    out = []
    if family == "A":
        dim = rank + 1
        for i in range(dim):
            for j in range(i + 1, dim):
                out.append(tuple(a - b for a, b in zip(_ref_basis(dim, i), _ref_basis(dim, j))))
        return out
    dim = rank
    for i in range(dim):
        for j in range(i + 1, dim):
            ei, ej = _ref_basis(dim, i), _ref_basis(dim, j)
            out.append(tuple(a - b for a, b in zip(ei, ej)))
            out.append(tuple(a + b for a, b in zip(ei, ej)))
    if family == "B":
        out.extend(_ref_basis(dim, i) for i in range(dim))
    return out


def _ref_rank_mod(rows, q):
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


def _ref_general_linear(m, q):
    if m == 0:
        return 1
    return sum(
        1
        for flat in itertools.product(range(q), repeat=m * m)
        if _ref_rank_mod([flat[i * m : (i + 1) * m] for i in range(m)], q) == m
    )


def _ref_gram(n, q):
    dim = 2 * n
    rows = [[0] * dim for _ in range(dim)]
    for i in range(n):
        rows[i][n + i] = 1
        rows[n + i][i] = q - 1
    return rows


def _ref_form(J, u, v, q):
    return sum(u[i] * J[i][j] * v[j] for i in range(len(u)) for j in range(len(v))) % q


def _ref_symplectic_elements(n, q):
    dim = 2 * n
    J = _ref_gram(n, q)
    vectors = list(itertools.product(range(q), repeat=dim))
    found = []

    def extend(cols):
        k = len(cols)
        if k == dim:
            found.append(tuple(zip(*cols)))
            return
        for v in vectors:
            if all(_ref_form(J, cols[i], v, q) == J[i][k] for i in range(k)):
                cols.append(v)
                extend(cols)
                cols.pop()

    extend([])
    return found


def _ref_matvec(g, v, q):
    return tuple(sum(row[i] * v[i] for i in range(len(v))) % q for row in g)


def _decoded_symplectic_elements(n, q):
    # the oracle's group with each column code decoded through its field table
    vectors = oracle._field(2 * n, q)[0]
    return [tuple(vectors[c] for c in g) for g in oracle._symplectic_elements(n, q)]


def _ref_orbit_and_stabilizer(s, n, q):
    dim = 2 * n
    base = frozenset(
        v for v in itertools.product(range(q), repeat=dim) if not any(v[s:])
    )
    orbit, stabilizer = set(), 0
    for g in _decoded_symplectic_elements(n, q):
        image = frozenset(_ref_matvec(g, v, q) for v in base)
        orbit.add(image)
        stabilizer += image == base
    return len(orbit), stabilizer


@pytest.mark.parametrize(
    "s,n,q", [(s, n, q) for n, q in sorted(oracle.SP_FEASIBLE) for s in range(n + 1)]
)
def test_stabilizer_and_orbit_check_matches_the_matrix_action(s, n, q):
    report = oracle.stabilizer_and_orbit_check(s, n, q)
    got = (report.orbit_size, report.stabilizer_size)
    assert got == _ref_orbit_and_stabilizer(s, n, q)
    assert report.group_size == len(oracle._symplectic_elements(n, q))
    assert report.holds


@pytest.mark.parametrize("n,q", list(itertools.product((1, 2), (2, 3))))
def test_omega_table_matches_the_gram_form(n, q):
    # every pair of codes the oracle's isotropy filter or Sp search could
    # read, a code being the vector's index in itertools.product order
    J = _ref_gram(n, q)
    vectors = list(itertools.product(range(q), repeat=2 * n))
    assert oracle._field(2 * n, q)[0] == vectors
    for (u, x), (v, y) in itertools.product(enumerate(vectors), repeat=2):
        assert oracle._omega(u, v, n, q) == _ref_form(J, x, y, q), (x, y)


@pytest.mark.parametrize("dim,q", [(d, 2) for d in range(1, 5)] + [(d, 3) for d in range(1, 5)])
def test_field_table_adds_multiples_coordinatewise(dim, q):
    # table[v][c] sends each code u to the code of u + c v, mod q
    vectors, table = oracle._field(dim, q)
    index = {x: u for u, x in enumerate(vectors)}
    for v, y in enumerate(vectors):
        assert len(table[v]) == q
        for c, row in enumerate(table[v]):
            assert len(row) == 256 and row[len(vectors):] == bytes(range(len(vectors), 256))
            for u, x in enumerate(vectors):
                assert row[u] == index[tuple((a + c * b) % q for a, b in zip(x, y))]


# the functools caches of the oracle, each filled on first use
ORACLE_CACHES = ("_field", "_omega", "_group", "_isotropic_spans", "_symplectic_elements")


def test_oracle_verify_builds_each_omega_table_once(capsys):
    # omega is computed once per pair of vectors it is read on, shared by
    # the isotropy filter and the Sp search, and only for the pairs read;
    # every cache is read again after it is filled
    from orbit_entropy import cli

    caches = [getattr(oracle, name) for name in ORACLE_CACHES]
    for cache in caches:
        cache.cache_clear()
    assert cli.main(["oracle-verify"]) == 0
    capsys.readouterr()
    omega = oracle._omega.cache_info()
    assert omega.misses == omega.currsize
    pairs = sum(q ** (4 * n) for n, q in itertools.product((1, 2), (2, 3)))
    assert 0 < omega.currsize < pairs
    assert all(cache.cache_info().hits > 0 for cache in caches)


def test_importing_the_oracle_builds_no_table():
    probe = (
        "import orbit_entropy.oracle as o\n"
        f"print(*(getattr(o, name).cache_info().currsize for name in {ORACLE_CACHES}))\n"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(Path(oracle.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env
    )
    zeros = " ".join("0" * len(ORACLE_CACHES)) + "\n"
    assert (done.returncode, done.stderr, done.stdout) == (0, "", zeros)


@pytest.mark.parametrize(
    "family,rank",
    [(f, r) for f in ("A", "B") for r in range(1, 5)] + [("D", r) for r in range(2, 5)],
)
def test_positive_roots_by_closure_match_hand_written_lists(family, rank):
    # the closure holds every root, each with its images under the simple
    # reflections; the positive ones lead with a positive entry
    images = oracle._roots(oracle._simple_roots(family, rank))
    closed = [r for r in images if next(x for x in r if x) > 0]
    assert set(closed) == set(_ref_positive_roots(family, rank))
    assert set(images) == set(closed) | {tuple(-x for x in r) for r in closed}
    # each simple reflection permutes the roots
    for i in range(rank):
        assert {row[i] for row in images.values()} == set(images)


@pytest.mark.parametrize("m,q", [(m, q) for q in (2, 3) for m in range(4)])
def test_general_linear_columns_match_row_reduction(m, q):
    assert oracle.enumerate_general_linear(m, q) == _ref_general_linear(m, q)


@pytest.mark.parametrize("n,q", sorted(oracle.SP_FEASIBLE))
def test_symplectic_elements_match_reference_search(n, q):
    group = oracle._symplectic_elements(n, q)
    assert isinstance(group, tuple)
    assert len(set(group)) == len(group)
    decoded = _decoded_symplectic_elements(n, q)
    assert set(decoded) == set(_ref_symplectic_elements(n, q))
    J = _ref_gram(n, q)
    dim = 2 * n
    for g in decoded:
        gtjg = [
            [
                sum(g[r][a] * J[r][s] * g[s][b] for r in range(dim) for s in range(dim)) % q
                for b in range(dim)
            ]
            for a in range(dim)
        ]
        assert gtjg == J
    assert oracle._symplectic_elements(n, q) is group


def test_symplectic_elements_reject_infeasible_pairs():
    with pytest.raises(ValueError, match="q in \\{2, 3\\} only"):
        oracle.enumerate_symplectic_group(1, 5)
    with pytest.raises(ValueError, match="feasible only"):
        oracle.stabilizer_and_orbit_check(1, 2, 3)
    with pytest.raises(ValueError, match="need 0 <= s <= n"):
        oracle.stabilizer_and_orbit_check(2, 1, 2)


def test_stabilizer_check_rejects_s_before_enumerating_the_group():
    before = oracle._symplectic_elements.cache_info()
    with pytest.raises(ValueError, match="need 0 <= s <= n"):
        oracle.stabilizer_and_orbit_check(3, 2, 2)
    # out of range and infeasible: the range is checked first
    with pytest.raises(ValueError, match="need 0 <= s <= n"):
        oracle.stabilizer_and_orbit_check(3, 2, 3)
    assert oracle._symplectic_elements.cache_info() == before


def test_oracle_verify_closes_each_root_system_once(monkeypatch, capsys):
    # its 88 censuses span 11 (family, rank) pairs; the roots, the group's
    # closure and its moves depend on the pair alone
    from orbit_entropy import cli

    root_system = oracle._root_system
    calls = []

    def counted(family, rank):
        calls.append((family, rank))
        return root_system(family, rank)

    monkeypatch.setattr(oracle, "_root_system", counted)
    oracle._group.cache_clear()
    assert cli.main(["oracle-verify"]) == 0
    capsys.readouterr()
    assert len(calls) == len(set(calls)) == 11
    info = oracle._group.cache_info()
    assert (info.misses, info.currsize) == (11, 11) and info.hits == 88 - 11


def test_oracle_verify_builds_each_isotropic_span_list_once(capsys):
    # s = 1 for n = 1, s = 1, 2 for n = 2, at q = 2 and 3: six lists, each
    # read again by the flag shapes after the subspace count built it
    from orbit_entropy import cli

    oracle._isotropic_spans.cache_clear()
    assert cli.main(["oracle-verify"]) == 0
    capsys.readouterr()
    info = oracle._isotropic_spans.cache_info()
    assert (info.misses, info.currsize) == (6, 6) and info.hits > 0


@pytest.fixture
def fresh_groups():
    # the closures a seeded fault builds are not kept for later tests
    oracle._group.cache_clear()
    yield
    oracle._group.cache_clear()


def test_a_corrupted_reflection_exceeds_the_closure_cap(monkeypatch, fresh_groups):
    # the first simple reflection of A_3 with the images of two positive
    # roots exchanged still permutes the roots, but generates more than
    # the 24 elements the cap allows
    root_system = oracle._root_system

    def corrupted(family, rank):
        npos, reflections = root_system(family, rank)
        table = bytearray(reflections[0])
        table[npos], table[npos + 1] = table[npos + 1], table[npos]
        return npos, [bytes(table)] + reflections[1:]

    monkeypatch.setattr(oracle, "_root_system", corrupted)
    with pytest.raises(InexactDivisionError, match="group closure exceeded the expected order"):
        oracle.reflection_length_census("A", 3)
    with pytest.raises(InexactDivisionError, match="group closure exceeded the expected order"):
        oracle.parabolic_length_census("A", 3, (2,))


def test_an_expected_order_too_large_is_not_reached(monkeypatch, fresh_groups):
    # the closure stops at the group's 48 elements, one short of the order
    # it was told to expect
    monkeypatch.setattr(oracle, "group_order", lambda family, rank: group_order(family, rank) + 1)
    with pytest.raises(InexactDivisionError, match="closure reached 48 elements, expected 49"):
        oracle.reflection_length_census("B", 3)


# the oracle stays independent of the closed forms it checks: its package
# imports are pinned, so a new closed-form import fails here


ORACLE_PACKAGE_IMPORTS = {
    "group_order",
    "_check_removal",
    "Diagram",
    "_check_subspace",
    "_check_flag_shape",
    "_check_gl_rank",
    "ig_count",
    "sp_order",
    "unipotent_radical_order",
    "_group_order",
    "_flag_quotient",
    "InexactDivisionError",
    "IntPolynomial",
    "Record",
    "_field_sizes",
    "_integral",
}


def test_oracle_package_imports_are_pinned():
    tree = ast.parse(Path(oracle.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or "orbit_entropy" in (node.module or "")
        ):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            assert not any("orbit_entropy" in alias.name for alias in node.names)
    assert names == ORACLE_PACKAGE_IMPORTS
