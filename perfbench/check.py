"""Output checks for one op: CLI stdout against the library's own values.

This module does not import the library.  The expected values arrive as
JSON (``libcalls.encode``): big ints as hex, floats as exact reprs.  The
formatting rules below restate the CLI's documented output format.
"""

from __future__ import annotations

import hashlib
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from workloads import argv

EXPECTED = Path(__file__).with_name("expected.json")

OK, DEFECT, FAIL = "ok", "known-defect", "fail"


@contextmanager
def unlimited_digits():
    """Lift CPython's int<->str digit limit inside the block only."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        yield
        return
    old = get()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def fmt_float(x: float) -> str:
    return "0" if x == 0 else f"{x:.12g}"


def fmt_error(x: float) -> str:
    s = f"{x:.9f}"
    return "0.000000000" if s == "-0.000000000" else s


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def poly_at_one(text: str) -> int:
    """Value at t = 1 of a polynomial printed as '1 + 2t + ... - 3t^5'."""
    total = 0
    for term in text.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        digits = term.lstrip("-").split("t")[0]
        total += sign * (int(digits) if digits else 1)
    return total


def recorded_for(workload: str, seed: int, ops: list[dict]) -> list:
    """Per op, [command line, exit code, stdout sha256] recorded for this
    seed by record.py, or None where the seed or the op was not recorded."""
    try:
        entries = json.loads(EXPECTED.read_text())[workload].get(str(seed), [])
    except (FileNotFoundError, KeyError):
        entries = []
    out = []
    for i, op in enumerate(ops):
        entry = entries[i] if i < len(entries) else None
        out.append(entry if entry and entry[0] == " ".join(argv(op)) else None)
    return out


def _int(hex_text: str) -> int:
    return int(hex_text, 16)


def _problems(op: dict, recs: list[dict], want: dict) -> list[str]:
    cmd = op["cmd"]
    if cmd == "oracle-verify":
        summary = recs[-1]
        out = []
        if summary.get("check") != "summary" or summary.get("match") is not True:
            out.append("oracle summary does not report match: true")
        if summary.get("case") != f"checks={want['checks']} failures=0":
            out.append(f"oracle summary {summary.get('case')!r}, "
                       f"library ran {want['checks']} checks")
        if not all(r.get("match") is True for r in recs):
            out.append("an oracle check does not match")
        return out
    if cmd == "converge":
        got = [(r["n"], r["value"], r["limit"]) for r in recs]
        exp = [(n, fmt_float(v), fmt_float(want["limit"]))
               for n, v in zip(want["n"], want["values"])]
        return [] if got == exp else ["converge values differ from the library's"]
    if len(recs) != 1:
        return [f"expected one record, got {len(recs)}"]
    rec = recs[0]
    if cmd == "count":
        return [] if int(rec["value"]) == _int(want["value"]) else [
            "count differs from the library's"]
    if cmd == "entropy":
        exp = {"shannon": fmt_float(want["shannon"]),
               "tsallis2": want["tsallis2"],
               "reflective": fmt_float(want["reflective"]),
               "symplectic": want["symplectic"]}
        return [f"entropy {k} differs" for k in exp if rec[k] != exp[k]]
    out = [] if rec["holds"] is True else ["chain-check holds is not true"]
    target = op["target"]
    if target in ("shannon", "reflective"):
        lhs, res = want["lhs"], want["residual"]
        if (rec["lhs"], rec["rhs"], rec["residual"]) != (
                fmt_float(lhs), fmt_float(lhs - res), fmt_error(res)):
            out.append("chain-check sides differ from the library's")
        return out
    if rec["lhs"] != rec["rhs"] or rec["residual"] != "0":
        out.append("chain-check lhs != rhs")
    if target == "symplectic-entropy":
        if rec["lhs"] != want["lhs"]:
            out.append("chain-check lhs differs from the library's")
    elif target == "poincare":
        if poly_at_one(rec["lhs"]) != _int(want["at_one"]):
            out.append("Poincare lhs at t=1 differs from orbit_count")
    elif int(rec["lhs"]) != _int(want["lhs"]):
        out.append("chain-check lhs differs from the library's")
    return out


def check_op(op: dict, code: int, stdout: bytes, stderr: bytes,
             want: dict, recorded: list | None) -> tuple[str, list[str]]:
    """Outcome (OK, DEFECT or FAIL) and the reasons for it.

    ``recorded`` is [argv, exit code, sha256 of stdout] from expected.json
    when this seed was recorded.  Ops that exited 0 there must reproduce
    the same bytes; ops recorded as failing are held to the invariants only,
    so a fix that makes them print is not counted as a miss.
    """
    if "error" in want:
        return FAIL, [f"library raised {want['error']}"]
    if code != 0:
        if op.get("defect") and code == 3 and b"integer string conversion" in stderr:
            return DEFECT, [f"exit 3: {op['defect']}"]
        return FAIL, [f"exit {code}: {stderr.decode(errors='replace').strip()[-200:]}"]
    problems = []
    if recorded and recorded[1] == 0 and recorded[2] != sha256(stdout):
        problems.append("stdout differs from the recorded sha256")
    try:
        with unlimited_digits():
            recs = [json.loads(line) for line in stdout.decode().splitlines()]
            problems += _problems(op, recs, want)
    except (ValueError, KeyError, IndexError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return (FAIL, problems) if problems else (OK, [])
