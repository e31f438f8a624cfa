"""The library calls behind each CLI op, and the per-layer replays.

``run_lib`` makes the same public-API calls the CLI command makes, each
inside ``span(name)``.  ``replay`` then re-runs, on the same inputs, the
kernels and checks those calls contain, one span per call, so each
module's share can be timed from outside the library.  The replays
overlap the library calls on purpose: sum them per layer, never into one
total.  Span names are the per-layer metric names without the ``_s``.
"""

from __future__ import annotations

import itertools
import math

from orbit_entropy import oracle
from orbit_entropy.dynkin import (
    Diagram,
    parabolic_for_distribution,
    poincare_closed,
    poincare_parabolic,
    poincare_quotient,
    remove_nodes,
    surviving_components,
)
from orbit_entropy.entropy import (
    CoarseMap,
    ProbVec,
    pushforward,
    reflective,
    reflective_chain_residual,
    shannon,
    shannon_chain_residual,
    symplectic_chain_residual,
    symplectic_entropy,
    tsallis2,
)
from orbit_entropy.exact import multinomial, q_factorial, q_multinomial
from orbit_entropy.reflection import (
    coarsening_cardinality_check,
    coarsening_poincare_check,
    normalized_log_orbit,
    orbit_count,
)
from orbit_entropy.symplectic import (
    FlagType,
    gl_order,
    ig_count,
    isotropic_flag_count,
    normalized_logq_quotient,
    sp_order,
    sp_quotient_closed,
    symplectic_chain_identity_check,
)

from check import unlimited_digits


def _schedule(op: dict) -> list[int]:
    return sorted({int(t) for t in op["n"].split(",")})


def _compositions(total: int, max_parts: int):
    for k in range(1, max_parts + 1):
        for cuts in itertools.combinations(range(1, total), k - 1):
            bounds = (0,) + cuts + (total,)
            yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def _oracle_verify(span) -> dict:
    # the case list of `oracle-verify --scope all` at the default max rank;
    # oracle calls are spans, the closed forms they are compared with are not
    checks = failures = 0

    def add(run_oracle, closed) -> None:
        nonlocal checks, failures
        with span("oracle.verify"):
            got = run_oracle()
        checks += 1
        failures += got != closed

    for n in range(1, 7):
        for counts in _compositions(n, 3):
            add(lambda: oracle.count_type_class(n, counts), multinomial(n, counts))
    for family in ("A", "B", "D"):
        for rank in range(2 if family == "D" else 1, oracle.MAX_RANK + 1):
            add(lambda: oracle.reflection_length_census(family, rank),
                poincare_closed(family, rank))
            diagram = Diagram(family, rank)
            for size in range(1, rank + 1):
                for removal in itertools.combinations(range(1, rank + 1), size):
                    add(lambda: oracle.parabolic_length_census(family, rank, removal),
                        poincare_parabolic(remove_nodes(diagram, removal)))
    for q in (2, 3):
        for n in (1, 2):
            for s in range(n + 1):
                add(lambda: oracle.enumerate_isotropic_subspaces(s, n, q),
                    ig_count(s, n, q))
            shapes = [()] + [c for total in range(1, n + 1)
                             for c in _compositions(total, total)]
            for incs in shapes:
                add(lambda: oracle.enumerate_isotropic_flags(incs, n, q),
                    isotropic_flag_count(FlagType(incs, n, q)))
    for q in (2, 3):
        for m in range(4):
            add(lambda: oracle.enumerate_general_linear(m, q), gl_order(m, q))
    for n, q in sorted(oracle.SP_FEASIBLE):
        add(lambda: oracle.enumerate_symplectic_group(n, q), sp_order(n, q))
    for n in (1, 2):
        for s in range(n + 1):
            def orbit_and_stabilizer():
                r = oracle.stabilizer_and_orbit_check(s, n, 2)
                return (r.orbit_size - r.expected_orbit,
                        r.stabilizer_size - r.expected_stabilizer)
            add(orbit_and_stabilizer, (0, 0))
    return {"checks": checks, "failures": failures}


def run_lib(op: dict, span) -> dict:
    """The op's library calls, as the CLI command makes them."""
    cmd = op["cmd"]
    if cmd == "oracle-verify":
        return _oracle_verify(span)
    with span("entropy.parse"):
        dist = ProbVec(op["dist"].split(",")) if "dist" in op else None
    res: dict = {"dist": dist}
    if cmd == "count":
        kind = op["kind"]
        if kind == "reflection":
            with span("reflection.orbit_count"):
                res["value"] = orbit_count(op["family"], op["n"], dist)
        elif kind == "isotropic":
            with span("symplectic.ig_count"):
                res["value"] = ig_count(op["s"], op["n"], op["q"])
        elif op.get("object") == "quotient":
            with span("symplectic.sp_quotient_closed"):
                res["value"] = sp_quotient_closed(op["n"], dist, op["q"])
        else:
            with span("entropy.parse"):
                ft = FlagType(dist.scaled_counts(op["n"]), op["n"], op["q"])
            with span("symplectic.isotropic_flag_count"):
                res["value"] = isotropic_flag_count(ft)
    elif cmd == "entropy":
        for name, fn in (("shannon", shannon), ("tsallis2", tsallis2),
                         ("reflective", reflective),
                         ("symplectic", symplectic_entropy)):
            with span("entropy.functionals"):
                res[name] = fn(dist)
    elif cmd == "converge":
        ns = res["n"] = _schedule(op)
        with span("entropy.parse"):
            for n in ns:
                dist.scaled_counts(n)
        if op["kind"] == "reflection":
            with span("entropy.functionals"):
                res["limit"] = reflective(dist)
            values = []
            for n in ns:
                with span("reflection.normalized_log_orbit"):
                    values.append(normalized_log_orbit(op["family"], n, dist))
        else:
            with span("entropy.functionals"):
                res["limit"] = float(symplectic_entropy(dist))
            values = []
            for n in ns:
                with span("symplectic.normalized_logq"):
                    values.append(normalized_logq_quotient(n, dist, op["q"]))
        res["values"] = values
    else:
        with span("entropy.parse"):
            cmap = res["cmap"] = CoarseMap(int(b) for b in op["blocks"].split(","))
        target = op["target"]
        if target in ("shannon", "reflective", "symplectic-entropy"):
            lhs_fn, res_fn = {
                "shannon": (shannon, shannon_chain_residual),
                "reflective": (reflective, reflective_chain_residual),
                "symplectic-entropy": (symplectic_entropy, symplectic_chain_residual),
            }[target]
            with span("entropy.functionals"):
                res["lhs"] = lhs_fn(dist)
            with span("entropy.functionals"):
                res["residual"] = res_fn(dist, cmap)
        elif target == "reflective-cardinality":
            with span("reflection.coarsening_cardinality_check"):
                res["report"] = coarsening_cardinality_check(
                    op["family"], op["n"], dist, cmap)
        elif target == "symplectic-cardinality":
            with span("symplectic.chain_identity_check"):
                res["report"] = symplectic_chain_identity_check(
                    op["n"], dist, cmap, op["q"])
        else:
            with span("reflection.coarsening_poincare_check"):
                res["report"] = coarsening_poincare_check(
                    op["family"], op["n"], dist, cmap)
    return res


def encode(op: dict, res: dict) -> dict:
    """JSON-ready values for ``check.check_op``; not timed."""
    cmd = op["cmd"]
    if cmd == "oracle-verify":
        return {"checks": res["checks"]}
    if cmd == "count":
        return {"value": hex(res["value"])}
    if cmd == "entropy":
        return {"shannon": res["shannon"], "tsallis2": str(res["tsallis2"]),
                "reflective": res["reflective"],
                "symplectic": str(res["symplectic"])}
    if cmd == "converge":
        return {"n": res["n"], "values": res["values"], "limit": res["limit"]}
    target = op["target"]
    if target in ("shannon", "reflective"):
        return {"lhs": res["lhs"], "residual": res["residual"]}
    if target == "symplectic-entropy":
        return {"lhs": str(res["lhs"])}
    if target == "poincare":
        return {"at_one": hex(orbit_count(op["family"], op["n"], res["dist"]))}
    return {"lhs": hex(res["report"].lhs)}


class Sizes:
    """Exact size counters of one traced pass."""

    def __init__(self) -> None:
        self.max_bits = 0
        self.max_degree = 0

    def ints(self, values) -> None:
        self.max_bits = max([self.max_bits] + [abs(v).bit_length() for v in values])

    def poly(self, p) -> None:
        self.max_degree = max(self.max_degree, p.degree)
        self.ints(p.coeffs)


def _symplectic_kernels(n: int, counts: tuple, q: int, span, sizes: Sizes,
                        ig_dim: int | None = None, crosscheck: bool = False) -> None:
    for k in (n,) + tuple(counts):
        with span("exact.q_factorial"):
            v = q_factorial(k, q)
        sizes.ints([v])
    with span("exact.q_multinomial"):
        v = q_multinomial(n, counts, q)
    with span("symplectic.sp_order"):
        w = sp_order(n, q)
    sizes.ints([v, w])
    if ig_dim is not None:
        with span("symplectic.ig_count"):
            ig_count(ig_dim, n, q)
    if crosscheck:
        # the flag count sp_quotient_closed recomputes as its built-in check
        with span("symplectic.crosscheck"):
            isotropic_flag_count(FlagType(counts[:-1], n, q))


def _poincare_replay(op: dict, dist, cmap, span, sizes: Sizes) -> list[int]:
    # the quotients and products coarsening_poincare_check computes, built
    # from the same public dynkin calls; closed forms first, cache cold, so
    # the quotient spans time division alone
    family, n = op["family"], op["n"]
    diagram, fine, _ = parabolic_for_distribution(family, n, dist)
    _, coarse, _ = parabolic_for_distribution(family, n, pushforward(dist, cmap))
    shared = {nodes for nodes, _ in surviving_components(diagram, fine)}
    extra = set(fine) - set(coarse)
    subs = []
    for nodes, fam in surviving_components(diagram, coarse):
        if nodes not in shared:
            pos = {v: i + 1 for i, v in enumerate(nodes)}
            local = tuple(pos[c] for c in sorted(extra & set(nodes)))
            subs.append((fam, len(nodes), local))
    poincare_closed.cache_clear()
    for fam, rank in [(family, diagram.rank)] + [(f, r) for f, r, _ in subs]:
        with span("dynkin.poincare_closed"):
            p = poincare_closed(fam, rank)
        sizes.poly(p)
    with span("dynkin.poincare_quotient"):
        lhs = poincare_quotient(family, diagram.rank, remove_nodes(diagram, fine))
    with span("dynkin.poincare_quotient"):
        rhs = poincare_quotient(family, diagram.rank, remove_nodes(diagram, coarse))
    for fam, rank, local in subs:
        with span("dynkin.poincare_quotient"):
            sub = poincare_quotient(fam, rank, remove_nodes(Diagram(fam, rank), local))
        with span("exact.polymul"):
            rhs = rhs * sub
        sizes.poly(sub)
    sizes.poly(lhs)
    sizes.poly(rhs)
    return list(lhs.coeffs) + list(rhs.coeffs)


def replay(op: dict, res: dict, span, sizes: Sizes) -> None:
    """Per-layer replays of the op's kernels, then the float log of its
    count ints and the decimal formatting of the ints the CLI prints."""
    cmd, target = op["cmd"], op.get("target")
    if cmd in ("entropy", "oracle-verify") or target in (
            "shannon", "reflective", "symplectic-entropy"):
        return
    dist = res["dist"]
    counts_out: list[int] = []   # count ints the op computes
    printed: list[int] = []      # the ones the CLI formats in decimal
    if "value" in res:
        counts_out.append(res["value"])
        printed.append(res["value"])
    if "report" in res and target != "poincare":
        report = res["report"]
        counts_out += [report.lhs, report.rhs]
        printed += [report.lhs, report.rhs, report.residual]
    if op.get("kind") in ("symplectic", "isotropic") or target == "symplectic-cardinality":
        q = op["q"]
        if op.get("kind") == "isotropic":
            s, n = op["s"], op["n"]
            _symplectic_kernels(n, (s, n - s), q, span, sizes)
        elif cmd == "count" and op.get("object") != "quotient":
            n = op["n"]
            _symplectic_kernels(n, dist.scaled_counts(n), q, span, sizes, ig_dim=n)
        else:
            shapes = [(n, dist) for n in res.get("n", [op["n"]])]
            if target:
                with span("entropy.parse"):
                    shapes.append((op["n"], pushforward(dist, res["cmap"])))
            for n, d in shapes:
                counts = d.scaled_counts(n)
                _symplectic_kernels(n, counts, q, span, sizes,
                                    ig_dim=n - counts[-1], crosscheck=True)
                if cmd == "converge" or target:
                    with span("symplectic.sp_quotient_closed"):
                        counts_out.append(sp_quotient_closed(n, d, q))
    else:
        family = op["family"]
        shapes = [(n, dist) for n in res.get("n", [op["n"]])]
        if target:
            with span("entropy.parse"):
                shapes.append((op["n"], pushforward(dist, res["cmap"])))
        for n, d in shapes:
            with span("exact.multinomial"):
                v = multinomial(n, d.scaled_counts(n))
            sizes.ints([v])
            if cmd != "count":
                with span("reflection.orbit_count"):
                    counts_out.append(orbit_count(family, n, d))
        if target == "poincare":
            coeffs = _poincare_replay(op, dist, res["cmap"], span, sizes)
            counts_out += coeffs
            printed += coeffs
    sizes.ints(counts_out)
    with span("entropy.floatlog"):
        for v in counts_out:
            if v > 0:
                math.log(v)
    with unlimited_digits():
        with span("cli.format"):
            for v in printed:
                str(v)
