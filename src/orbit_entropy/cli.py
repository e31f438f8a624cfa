"""Command-line front end: exact counts, entropy functionals,
convergence sweeps, chain-rule checks, and oracle verification.

Output is deterministic and machine-readable: JSON objects one per line
by default, CSV with a header row via --format csv.  Counts are emitted
as decimal strings because they routinely exceed 64-bit range.  Data
goes to stdout, diagnostics to stderr.  Exit codes: 0 success, 1
identity or verification failure, 2 argument or parse error, 3 domain
error.
"""

from __future__ import annotations

import argparse
import contextlib
import decimal
import itertools
import json
import sys
from fractions import Fraction
from typing import Iterator, Sequence

from .dynkin import Diagram, poincare_closed, poincare_parabolic, remove_nodes
from .entropy import (
    CoarseMap,
    ProbVec,
    reflective,
    reflective_chain_residual,
    shannon,
    shannon_chain_residual,
    symplectic_chain_residual,
    symplectic_entropy,
    tsallis2,
)
from .exact import InexactDivisionError, IntPolynomial, multinomial
from .reflection import (
    coarsening_cardinality_check,
    coarsening_poincare_check,
    normalized_log_orbit,
    orbit_count,
)
from .symplectic import (
    FlagType,
    gl_order,
    ig_count,
    isotropic_flag_count,
    normalized_logq_quotient,
    sp_order,
    sp_quotient_closed,
    symplectic_chain_identity_check,
)

__all__ = ["main", "CliParseError"]


class CliParseError(ValueError):
    """Bad command-line input; maps to exit code 2."""


def _parse_dist(text: str) -> ProbVec:
    entries: list[Fraction] = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            raise CliParseError("empty entry in distribution")
        try:
            entry = Fraction(tok)
        except (ValueError, ZeroDivisionError) as exc:
            if "." not in tok:
                raise CliParseError(f"cannot parse probability {tok!r}: {exc}")
            entry = None
        # Fraction also reads decimal and exponent notation (0.1, 1e-1); a
        # token it reads is in one of them exactly when it has '.', 'e' or 'E'
        if "." in tok or "e" in tok.lower():
            raise CliParseError(
                f"decimal probability {tok!r} not accepted; "
                "write exact fractions like 1/3"
            )
        entries.append(entry)
    try:
        return ProbVec(entries)
    except ValueError as exc:
        raise CliParseError(str(exc))


def _parse_blocks(text: str, k: int) -> CoarseMap:
    try:
        blocks = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise CliParseError(f"cannot parse block sizes {text!r}")
    try:
        cmap = CoarseMap(blocks)
    except ValueError as exc:
        raise CliParseError(str(exc))
    if cmap.domain_size != k:
        raise CliParseError(
            f"block sizes sum to {cmap.domain_size}, "
            f"but the distribution has {k} entries"
        )
    return cmap


def _parse_schedule(text: str) -> list[int]:
    try:
        ns = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise CliParseError(f"cannot parse schedule {text!r}")
    if not ns or any(n < 1 for n in ns):
        raise CliParseError("schedule entries must be positive integers")
    return sorted(set(ns))


def _require(args: argparse.Namespace, names: Sequence[str], context: str) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise CliParseError(f"--{name.replace('_', '-')} is required for {context}")


def _dist_str(dist: ProbVec) -> str:
    return ",".join(str(p) for p in dist)


def _fmt_float(x: float) -> str:
    if x == 0:
        return "0"
    return f"{x:.12g}"


def _fmt_error(x: float) -> str:
    s = f"{x:.9f}"
    return "0.000000000" if s == "-0.000000000" else s


# Bit length from which _int_str converts through decimal: below it the
# quadratic int -> str of CPython 3.11 is the faster.  Measured on random
# ints, Python 3.11.7 on an Intel Xeon, decimal against str(): 2.15 against
# 1.88 ms at 32,000 bits, 1.57 against 1.94 ms at 32,768 and 4.0 against
# 7.4 ms at 65,536.
_DECIMAL_STR_BITS = 1 << 15
# pieces this short are converted by Decimal(int) directly
_DECIMAL_LEAF_BITS = 2048


def _int_str(value: int) -> str:
    """str(value), in time below quadratic for big values.

    Above _DECIMAL_STR_BITS the magnitude is split at 2^k, k half its bit
    length; the halves are converted recursively and joined as
    hi * 2^k + lo in Decimal, with the powers of 2 cached for the call.
    The context has MAX_PREC and traps Inexact and Rounded, so an
    operation that would lose a digit raises instead.
    """
    if value.bit_length() < _DECIMAL_STR_BITS:
        return str(value)
    powers: dict[int, decimal.Decimal] = {}

    def power(w: int) -> decimal.Decimal:
        if w not in powers:
            h = w >> 1
            powers[w] = (
                decimal.Decimal(1 << w) if w <= _DECIMAL_LEAF_BITS
                else power(h) * power(w - h)
            )
        return powers[w]

    def convert(n: int, w: int) -> decimal.Decimal:
        # n < 2^w
        if w <= _DECIMAL_LEAF_BITS:
            return decimal.Decimal(n)
        h = w >> 1
        hi = n >> h
        return convert(hi, w - h).fma(power(h), convert(n - (hi << h), h))

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.Emin = decimal.MIN_EMIN
        ctx.traps[decimal.Inexact] = ctx.traps[decimal.Rounded] = True
        digits = str(convert(abs(value), value.bit_length()))
    return digits if value > 0 else "-" + digits


def _poly_str(p: IntPolynomial) -> str:
    if p.is_zero:
        return "0"
    terms = []
    for i, c in enumerate(p.coeffs):
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
            continue
        base = "t" if i == 1 else f"t^{i}"
        if c == 1:
            terms.append(base)
        elif c == -1:
            terms.append(f"-{base}")
        else:
            terms.append(f"{c}{base}")
    return " + ".join(terms).replace("+ -", "- ")


def _emit(records: list[dict], fmt: str) -> None:
    if fmt == "json":
        for rec in records:
            sys.stdout.write(json.dumps(rec) + "\n")
        return
    if not records:
        return
    import csv  # only --format csv needs it; kept off the start-up path

    writer = csv.writer(sys.stdout, lineterminator="\n")
    keys = list(records[0].keys())
    writer.writerow(keys)
    for rec in records:
        writer.writerow(
            [
                "true" if v is True else "false" if v is False else v
                for v in (rec.get(k, "") for k in keys)
            ]
        )


def _cmd_count(args: argparse.Namespace) -> tuple[list[dict], int]:
    if args.kind == "reflection":
        _require(args, ("family", "n", "dist"), "count reflection")
        dist = _parse_dist(args.dist)
        value = orbit_count(args.family, args.n, dist)
        rec = {
            "command": "count",
            "kind": "reflection",
            "family": args.family,
            "n": args.n,
            "dist": _dist_str(dist),
        }
    elif args.kind == "symplectic":
        _require(args, ("n", "q", "dist"), "count symplectic")
        dist = _parse_dist(args.dist)
        if args.object == "quotient":
            value = sp_quotient_closed(args.n, dist, args.q)
        else:
            # full-shape flag: one subspace per part, ending at a Lagrangian
            counts = dist.scaled_counts(args.n)
            value = isotropic_flag_count(FlagType(counts, args.n, args.q))
        rec = {
            "command": "count",
            "kind": "symplectic",
            "n": args.n,
            "q": args.q,
            "dist": _dist_str(dist),
            "object": args.object,
        }
    else:
        _require(args, ("s", "n", "q"), "count isotropic")
        value = ig_count(args.s, args.n, args.q)
        rec = {
            "command": "count",
            "kind": "isotropic",
            "s": args.s,
            "n": args.n,
            "q": args.q,
        }
    rec["value"] = _int_str(value)
    return [rec], 0


def _cmd_entropy(args: argparse.Namespace) -> tuple[list[dict], int]:
    dist = _parse_dist(args.dist)
    rec = {
        "command": "entropy",
        "dist": _dist_str(dist),
        "shannon": _fmt_float(shannon(dist)),
        "tsallis2": str(tsallis2(dist)),
        "reflective": _fmt_float(reflective(dist)),
        "symplectic": str(symplectic_entropy(dist)),
    }
    return [rec], 0


def _cmd_converge(args: argparse.Namespace) -> tuple[list[dict], int]:
    dist = _parse_dist(args.dist)
    schedule = _parse_schedule(args.n)
    reflection = args.kind == "reflection"
    key = "family" if reflection else "q"
    _require(args, (key,), f"converge {args.kind}")
    for n in schedule:
        try:
            counts = dist.scaled_counts(n)
        except ValueError:
            raise ValueError(
                f"n={n} is not admissible for this distribution: "
                "every n*p must be an integer"
            )
        if reflection and any(c <= 3 for c in counts):
            raise ValueError(
                f"n={n} is not admissible for this distribution: "
                "every n*p must exceed 3"
            )
    if reflection:
        limit = reflective(dist)
        values = (normalized_log_orbit(args.family, n, dist) for n in schedule)
    else:
        limit = float(symplectic_entropy(dist))
        values = (normalized_logq_quotient(n, dist, args.q) for n in schedule)
    records = [
        {
            "command": "converge",
            "kind": args.kind,
            key: getattr(args, key),
            "dist": _dist_str(dist),
            "n": n,
            "value": _fmt_float(value),
            "limit": _fmt_float(limit),
            "error": _fmt_error(abs(value - limit)),
        }
        for n, value in zip(schedule, values)
    ]
    return records, 0


def _cmd_chain_check(args: argparse.Namespace) -> tuple[list[dict], int]:
    dist = _parse_dist(args.dist)
    cmap = _parse_blocks(args.blocks, len(dist))
    rec: dict = {
        "command": "chain-check",
        "target": args.target,
        "dist": _dist_str(dist),
        "blocks": ",".join(str(b) for b in cmap.blocks),
    }
    if args.target in ("shannon", "reflective"):
        if args.target == "shannon":
            lhs = shannon(dist)
            res = shannon_chain_residual(dist, cmap)
        else:
            lhs = reflective(dist)
            res = reflective_chain_residual(dist, cmap)
        ok = abs(res) < 1e-10
        rec.update(
            lhs=_fmt_float(lhs),
            rhs=_fmt_float(lhs - res),
            residual=_fmt_error(res),
        )
    elif args.target == "symplectic-entropy":
        lhs = symplectic_entropy(dist)
        res = symplectic_chain_residual(dist, cmap)
        ok = res == 0
        rec.update(lhs=str(lhs), rhs=str(lhs - res), residual=str(res))
    else:
        poincare = args.target == "poincare"
        if args.target == "symplectic-cardinality":
            _require(args, ("n", "q"), "this target")
            report = symplectic_chain_identity_check(args.n, dist, cmap, args.q)
            rec.update(n=args.n, q=args.q)
        else:
            context = "the poincare target" if poincare else "this target"
            _require(args, ("family", "n"), context)
            check = coarsening_poincare_check if poincare else coarsening_cardinality_check
            report = check(args.family, args.n, dist, cmap)
            rec.update(family=args.family, n=args.n)
        fmt = _poly_str if poincare else _int_str
        ok = report.holds
        rec.update(lhs=fmt(report.lhs), rhs=fmt(report.rhs), residual=fmt(report.residual))
    rec["holds"] = ok
    return [rec], 0 if ok else 1


def _positive_compositions(total: int, max_parts: int):
    for k in range(1, max_parts + 1):
        for cuts in itertools.combinations(range(1, total), k - 1):
            bounds = (0,) + cuts + (total,)
            yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def _cmd_oracle_verify(args: argparse.Namespace) -> tuple[list[dict], int]:
    from . import oracle  # only this command needs it; kept off the start-up path

    max_rank = oracle.MAX_RANK if args.max_rank is None else args.max_rank
    if max_rank < 1:
        raise CliParseError("--max-rank must be at least 1")
    records: list[dict] = []
    failures = 0

    def add(check: str, case: str, got: object, want: object) -> None:
        nonlocal failures
        match = got == want
        if not match:
            failures += 1
        records.append(
            {
                "command": "oracle-verify",
                "check": check,
                "case": case,
                "oracle": str(got),
                "closed": str(want),
                "match": match,
            }
        )

    if args.scope in ("all", "words"):
        for n in range(1, 7):
            for counts in _positive_compositions(n, 3):
                add(
                    "type-class",
                    f"n={n} counts={','.join(map(str, counts))}",
                    oracle.count_type_class(n, counts),
                    multinomial(n, counts),
                )
    if args.scope in ("all", "reflection"):
        max_rank = min(max_rank, oracle.MAX_RANK)
        for family in ("A", "B", "D"):
            lo = 2 if family == "D" else 1
            for rank in range(lo, max_rank + 1):
                add(
                    "length-census",
                    f"{family} rank={rank}",
                    _poly_str(oracle.reflection_length_census(family, rank)),
                    _poly_str(poincare_closed(family, rank)),
                )
                diagram = Diagram(family, rank)
                for size in range(1, rank + 1):
                    for removal in itertools.combinations(range(1, rank + 1), size):
                        add(
                            "parabolic-census",
                            f"{family} rank={rank} remove={','.join(map(str, removal))}",
                            _poly_str(oracle.parabolic_length_census(family, rank, removal)),
                            _poly_str(poincare_parabolic(remove_nodes(diagram, removal))),
                        )
    if args.scope in ("all", "symplectic"):
        for q in (2, 3):
            for n in (1, 2):
                for s in range(n + 1):
                    add(
                        "isotropic-subspaces",
                        f"s={s} n={n} q={q}",
                        oracle.enumerate_isotropic_subspaces(s, n, q),
                        ig_count(s, n, q),
                    )
                shapes = [()] + [
                    c
                    for total in range(1, n + 1)
                    for c in _positive_compositions(total, total)
                ]
                for incs in shapes:
                    add(
                        "isotropic-flags",
                        f"increments={','.join(map(str, incs)) or '-'} n={n} q={q}",
                        oracle.enumerate_isotropic_flags(incs, n, q),
                        isotropic_flag_count(FlagType(incs, n, q)),
                    )
        for q in (2, 3):
            for m in range(4):
                add(
                    "general-linear",
                    f"m={m} q={q}",
                    oracle.enumerate_general_linear(m, q),
                    gl_order(m, q),
                )
        for n, q in sorted(oracle.SP_FEASIBLE):
            add(
                "symplectic-group",
                f"n={n} q={q}",
                oracle.enumerate_symplectic_group(n, q),
                sp_order(n, q),
            )
        for n in (1, 2):
            for s in range(n + 1):
                report = oracle.stabilizer_and_orbit_check(s, n, 2)
                add(
                    "orbit-stabilizer",
                    f"s={s} n={n} q=2",
                    f"orbit={report.orbit_size} stab={report.stabilizer_size}",
                    f"orbit={report.expected_orbit} stab={report.expected_stabilizer}",
                )
    records.append(
        {
            "command": "oracle-verify",
            "check": "summary",
            "case": f"checks={len(records)} failures={failures}",
            "oracle": "",
            "closed": "",
            "match": failures == 0,
        }
    )
    return records, 0 if failures == 0 else 1


_DISPATCH = {
    "count": _cmd_count,
    "entropy": _cmd_entropy,
    "converge": _cmd_converge,
    "chain-check": _cmd_chain_check,
    "oracle-verify": _cmd_oracle_verify,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="output format (default json, one object per line)",
    )
    parser = argparse.ArgumentParser(
        prog="orbit-entropy",
        description="Exact orbit counts for reflection and symplectic groups "
        "and the entropies they converge to.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", parents=[common], help="exact cardinalities")
    p_count.add_argument("kind", choices=("reflection", "symplectic", "isotropic"))
    p_count.add_argument("--family", choices=("A", "B", "C", "D"))
    p_count.add_argument("--n", type=int)
    p_count.add_argument("--q", type=int)
    p_count.add_argument("--s", type=int)
    p_count.add_argument("--dist", help="exact fractions, e.g. 1/2,1/4,1/4")
    p_count.add_argument(
        "--object",
        choices=("flag", "quotient"),
        default="flag",
        help="symplectic object: full-shape flag (default) or parabolic quotient",
    )

    p_entropy = sub.add_parser("entropy", parents=[common], help="entropy functionals")
    p_entropy.add_argument("--dist", required=True)

    p_conv = sub.add_parser("converge", parents=[common], help="convergence sweep")
    p_conv.add_argument("kind", choices=("reflection", "symplectic"))
    p_conv.add_argument("--family", choices=("A", "B", "C", "D"))
    p_conv.add_argument("--q", type=int)
    p_conv.add_argument("--dist", required=True)
    p_conv.add_argument("--n", required=True, help="comma-separated schedule, e.g. 8,16,32")

    p_chain = sub.add_parser("chain-check", parents=[common], help="chain-rule identities")
    p_chain.add_argument(
        "--target",
        required=True,
        choices=(
            "shannon",
            "reflective",
            "symplectic-entropy",
            "reflective-cardinality",
            "symplectic-cardinality",
            "poincare",
        ),
    )
    p_chain.add_argument("--dist", required=True)
    p_chain.add_argument("--blocks", required=True, help="coarse block sizes, e.g. 2,1")
    p_chain.add_argument("--family", choices=("A", "B", "C", "D"))
    p_chain.add_argument("--n", type=int)
    p_chain.add_argument("--q", type=int)

    p_oracle = sub.add_parser(
        "oracle-verify", parents=[common], help="brute force against closed forms"
    )
    p_oracle.add_argument(
        "--scope", choices=("all", "words", "reflection", "symplectic"), default="all"
    )
    # default None: oracle.MAX_RANK, read when the command runs
    p_oracle.add_argument("--max-rank", type=int)

    return parser


@contextlib.contextmanager
def _unlimited_int_digits() -> Iterator[None]:
    # counts routinely exceed the int-to-str digit limit of CPython 3.10.7
    # and later; older versions have no limit and no setter
    set_digits = getattr(sys, "set_int_max_str_digits", None)
    if set_digits is None:
        yield
        return
    saved = sys.get_int_max_str_digits()
    set_digits(0)
    try:
        yield
    finally:
        set_digits(saved)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    with _unlimited_int_digits():
        try:
            records, code = _DISPATCH[args.command](args)
        except CliParseError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        except InexactDivisionError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        _emit(records, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
