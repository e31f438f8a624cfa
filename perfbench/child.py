"""Child process of run.py: one library pass or one traced pass.

    python perfbench/child.py lib|trace --workload W --seed N

Run from the repository root with PYTHONPATH=src.  Prints one JSON line.
``lib`` times each op's library calls with tracing off.  ``trace`` wraps
every call in a span and adds, per op, the replays from libcalls and an
in-process ``cli.main`` with stdout captured; spans stay in memory and
are printed at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from time import perf_counter

import orbit_entropy
from orbit_entropy.cli import main as cli_main
from orbit_entropy.dynkin import poincare_closed

import check
import libcalls
import workloads

_NULL = contextlib.nullcontext()


def _no_span(name: str):
    return _NULL


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        t = self.tracer
        self.index = len(t.spans)
        t.spans.append([self.name, t.op, t.stack[-1] if t.stack else -1,
                        perf_counter(), 0.0])
        t.stack.append(self.index)

    def __exit__(self, *exc) -> None:
        t = self.tracer
        t.spans[self.index][4] = perf_counter()
        t.stack.pop()


class Tracer:
    """Spans as [name, op index, parent span index, start, end]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1

    def span(self, name: str) -> _Span:
        return _Span(self, name)


def lib_pass(ops: list[dict]) -> dict:
    out = []
    for op in ops:
        poincare_closed.cache_clear()
        t0 = perf_counter()
        try:
            res = libcalls.run_lib(op, _no_span)
            elapsed = perf_counter() - t0
            want = libcalls.encode(op, res)
        except Exception as exc:
            # a library failure fails this op's check; the run goes on
            elapsed = perf_counter() - t0
            want = {"error": repr(exc)}
        out.append({"s": elapsed, "want": want})
    return {"ops": out}


def trace_pass(ops: list[dict], recorded: list) -> dict:
    tracer = Tracer()
    sizes = libcalls.Sizes()
    hits = misses = checks = 0
    results = []
    for i, op in enumerate(ops):
        tracer.op = i
        poincare_closed.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        try:
            with tracer.span("op"):
                with tracer.span("lib"):
                    res = libcalls.run_lib(op, tracer.span)
                info = poincare_closed.cache_info()
                hits += info.hits
                misses += info.misses
                libcalls.replay(op, res, tracer.span, sizes)
                poincare_closed.cache_clear()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    with tracer.span("cli.main"):
                        code = cli_main(workloads.argv(op))
            checks += res.get("checks", 0)
            stdout = out.getvalue().encode()
            outcome, problems = check.check_op(
                op, code, stdout, err.getvalue().encode(),
                libcalls.encode(op, res), recorded[i])
        except Exception as exc:
            # a library or CLI failure fails this op; the run goes on
            code, stdout, outcome, problems = None, b"", check.FAIL, [repr(exc)]
        results.append({"outcome": outcome, "problems": problems,
                        "code": code, "stdout_bytes": len(stdout)})
    return {
        "ops": results,
        "spans": tracer.spans,
        "counts": {
            "exact.max_bits": sizes.max_bits,
            "dynkin.max_degree": sizes.max_degree,
            "dynkin.cache_hits": hits,
            "dynkin.cache_misses": misses,
            "oracle.checks": checks,
            "cli.stdout_bytes": sum(r["stdout_bytes"] for r in results),
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("lib", "trace"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    src = os.path.realpath("src")
    if not os.path.realpath(orbit_entropy.__file__).startswith(src + os.sep):
        print(f"error: orbit_entropy imported from {orbit_entropy.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    ops = workloads.build(args.workload, args.seed)
    if args.mode == "lib":
        result = lib_pass(ops)
    else:
        result = trace_pass(ops, check.recorded_for(args.workload, args.seed, ops))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
