"""Command-line front end: exact counts, entropy functionals,
convergence sweeps, chain-rule checks, and oracle verification.

Output is deterministic and machine-readable: JSON objects one per line
by default, CSV with a header row via --format csv.  Counts are emitted
as decimal strings because they routinely exceed 64-bit range.  Data
goes to stdout, diagnostics to stderr.  Exit codes: 0 success, 1
identity or verification failure, 2 argument or parse error, 3 domain
error, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import contextlib
import decimal
import functools
import itertools
import json
import os
import sys
from collections.abc import Iterator, Sequence
from fractions import Fraction

from .dynkin import FAMILIES, Diagram, poincare_closed, poincare_parabolic, remove_nodes
from .entropy import (
    CoarseMap,
    ProbVec,
    _check_compatible,
    reflective,
    reflective_chain_residual,
    shannon,
    shannon_chain_residual,
    symplectic_chain_residual,
    symplectic_entropy,
    tsallis2,
)
from .exact import _EXACT_CONTEXT, InexactDivisionError, IntPolynomial, multinomial
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
        # Fraction also reads decimal and exponent notation (0.1, 1e-1): a
        # token with '.' is refused unread, one with 'e' or 'E' once read
        if "." not in tok:
            try:
                entries.append(Fraction(tok))
            except (ValueError, ZeroDivisionError) as exc:
                raise CliParseError(f"cannot parse probability {tok!r}: {exc}")
        if "." in tok or "e" in tok.lower():
            raise CliParseError(
                f"decimal probability {tok!r} not accepted; "
                "write exact fractions like 1/3"
            )
    try:
        return ProbVec(entries)
    except ValueError as exc:
        raise CliParseError(str(exc))


def _parse_ints(text: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise CliParseError(f"cannot parse {what} {text!r}")


def _parse_blocks(text: str, dist: ProbVec) -> CoarseMap:
    try:
        cmap = CoarseMap(_parse_ints(text, "block sizes"))
        _check_compatible(dist, cmap)
    except ValueError as exc:
        raise CliParseError(str(exc))
    return cmap


def _parse_schedule(text: str) -> list[int]:
    ns = _parse_ints(text, "schedule")
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
    The operations run in exact._EXACT_CONTEXT, never the caller's
    context, so one that would lose a digit raises instead.
    """
    if value.bit_length() < _DECIMAL_STR_BITS:
        return str(value)
    ctx = _EXACT_CONTEXT

    @functools.cache
    def power(w: int) -> decimal.Decimal:
        if w <= _DECIMAL_LEAF_BITS:
            return decimal.Decimal(1 << w)
        h = w >> 1
        return ctx.multiply(power(h), power(w - h))

    def convert(n: int, w: int) -> decimal.Decimal:
        # n < 2^w
        if w <= _DECIMAL_LEAF_BITS:
            return decimal.Decimal(n)
        h = w >> 1
        hi = n >> h
        return ctx.fma(convert(hi, w - h), power(h), convert(n - (hi << h), h))

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


# the flags each count kind requires, in the order its record echoes them
_COUNT_FIELDS = {
    "reflection": ("family", "n", "dist"),
    "symplectic": ("n", "q", "dist"),
    "isotropic": ("s", "n", "q"),
}


def _cmd_count(args: argparse.Namespace) -> tuple[list[dict], int]:
    fields = _COUNT_FIELDS[args.kind]
    _require(args, fields, f"count {args.kind}")
    rec = {"command": "count", "kind": args.kind}
    rec.update((name, getattr(args, name)) for name in fields)
    if args.kind == "isotropic":
        value = ig_count(args.s, args.n, args.q)
    else:
        dist = _parse_dist(args.dist)
        rec["dist"] = _dist_str(dist)
        if args.kind == "reflection":
            value = orbit_count(args.family, args.n, dist)
        else:
            rec["object"] = args.object
            if args.object == "quotient":
                value = sp_quotient_closed(args.n, dist, args.q)
            else:
                # full-shape flag: one subspace per part, ending at a Lagrangian
                counts = dist.scaled_counts(args.n)
                value = isotropic_flag_count(FlagType(counts, args.n, args.q))
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
        counts = dist.scaled_counts(n)  # every n*p must be an integer
        if reflection and min(counts) <= 3:
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
    cmap = _parse_blocks(args.blocks, dist)
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
        symplectic = args.target == "symplectic-cardinality"
        fields = ("n", "q") if symplectic else ("family", "n")
        _require(args, fields, "the poincare target" if poincare else "this target")
        rec.update((name, getattr(args, name)) for name in fields)
        if symplectic:
            report = symplectic_chain_identity_check(args.n, dist, cmap, args.q)
        else:
            check = coarsening_poincare_check if poincare else coarsening_cardinality_check
            report = check(args.family, args.n, dist, cmap)
        fmt = _poly_str if poincare else _int_str
        ok = report.holds
        lhs = fmt(report.lhs)
        # a held identity has rhs == lhs and a zero residual, which both
        # formats print as "0": nothing is formatted again or subtracted
        rhs, res = (lhs, "0") if ok else (fmt(report.rhs), fmt(report.residual))
        rec.update(lhs=lhs, rhs=rhs, residual=res)
    rec["holds"] = ok
    return [rec], 0 if ok else 1


def _positive_compositions(total: int, max_parts: int):
    for k in range(1, max_parts + 1):
        for cuts in itertools.combinations(range(1, total), k - 1):
            bounds = (0,) + cuts + (total,)
            yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def _oracle_cases(oracle, scope: str, max_rank: int) -> Iterator[tuple]:
    """(check, case, oracle value, closed value) for each oracle-verify case
    in scope, in output order; each oracle value is computed before the
    closed form it is compared with."""
    if scope in ("all", "words"):
        for n in range(1, 7):
            for counts in _positive_compositions(n, 3):
                got = oracle.count_type_class(n, counts)
                case = f"n={n} counts={','.join(map(str, counts))}"
                yield "type-class", case, got, multinomial(n, counts)
    if scope in ("all", "reflection"):
        for family, lowest in (("A", 1), ("B", 1), ("D", 2)):
            for rank in range(lowest, min(max_rank, oracle.MAX_RANK) + 1):
                got = _poly_str(oracle.reflection_length_census(family, rank))
                want = _poly_str(poincare_closed(family, rank))
                case = f"{family} rank={rank}"
                yield "length-census", case, got, want
                diagram = Diagram(family, rank)
                for size in range(1, rank + 1):
                    for removal in itertools.combinations(range(1, rank + 1), size):
                        got = _poly_str(oracle.parabolic_length_census(family, rank, removal))
                        want = _poly_str(poincare_parabolic(remove_nodes(diagram, removal)))
                        removed = ",".join(map(str, removal))
                        yield "parabolic-census", f"{case} remove={removed}", got, want
    if scope not in ("all", "symplectic"):
        return
    for q, n in itertools.product((2, 3), (1, 2)):
        for s in range(n + 1):
            got = oracle.enumerate_isotropic_subspaces(s, n, q)
            yield "isotropic-subspaces", f"s={s} n={n} q={q}", got, ig_count(s, n, q)
        shapes = [()] + [c for k in range(1, n + 1) for c in _positive_compositions(k, k)]
        for incs in shapes:
            got = oracle.enumerate_isotropic_flags(incs, n, q)
            want = isotropic_flag_count(FlagType(incs, n, q))
            case = f"increments={','.join(map(str, incs)) or '-'} n={n} q={q}"
            yield "isotropic-flags", case, got, want
    for q, m in itertools.product((2, 3), range(4)):
        got = oracle.enumerate_general_linear(m, q)
        yield "general-linear", f"m={m} q={q}", got, gl_order(m, q)
    for n, q in sorted(oracle.SP_FEASIBLE):
        got = oracle.enumerate_symplectic_group(n, q)
        yield "symplectic-group", f"n={n} q={q}", got, sp_order(n, q)
    for n in (1, 2):
        for s in range(n + 1):
            report = oracle.stabilizer_and_orbit_check(s, n, 2)
            got = f"orbit={report.orbit_size} stab={report.stabilizer_size}"
            want = f"orbit={report.expected_orbit} stab={report.expected_stabilizer}"
            yield "orbit-stabilizer", f"s={s} n={n} q=2", got, want


def _oracle_record(check: str, case: str, got: object, want: object, match: bool) -> dict:
    return {"command": "oracle-verify", "check": check, "case": case,
            "oracle": str(got), "closed": str(want), "match": match}


def _cmd_oracle_verify(args: argparse.Namespace) -> tuple[list[dict], int]:
    from . import oracle  # only this command needs it; kept off the start-up path

    max_rank = oracle.MAX_RANK if args.max_rank is None else args.max_rank
    if max_rank < 1:
        raise CliParseError("--max-rank must be at least 1")
    records = [
        _oracle_record(check, case, got, want, got == want)
        for check, case, got, want in _oracle_cases(oracle, args.scope, max_rank)
    ]
    failures = sum(not rec["match"] for rec in records)
    summary = f"checks={len(records)} failures={failures}"
    records.append(_oracle_record("summary", summary, "", "", failures == 0))
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
    p_count.add_argument("--family", choices=FAMILIES)
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
    p_conv.add_argument("--family", choices=FAMILIES)
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
    p_chain.add_argument("--family", choices=FAMILIES)
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


# the exit code of each error a command may raise, a subclass before its base
_EXIT_CODES = ((CliParseError, 2), (ValueError, 3), (InexactDivisionError, 1))


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    with _unlimited_int_digits():
        try:
            records, code = _DISPATCH[args.command](args)
        except tuple(kind for kind, _ in _EXIT_CODES) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))
        try:
            _emit(records, args.format)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader has gone (as with `| head`); what is still buffered
            # goes to devnull, so the flush at shutdown cannot fail as well
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
