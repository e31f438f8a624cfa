"""The benchmark harness under perfbench/ drives the library through its
public API; one tiny op per command and per chain-check target must pass
the harness's own output check."""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from orbit_entropy import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import check  # noqa: E402
import libcalls  # noqa: E402
import workloads  # noqa: E402

OPS = [
    {"cmd": "count", "kind": "reflection", "family": "D", "n": 8, "dist": "1/2,1/4,1/4"},
    {"cmd": "count", "kind": "symplectic", "n": 4, "q": 2, "dist": "1/4,1/4,1/2"},
    {"cmd": "count", "kind": "symplectic", "object": "quotient", "n": 4, "q": 3,
     "dist": "1/4,1/4,1/2"},
    {"cmd": "count", "kind": "isotropic", "n": 4, "q": 2, "s": 2},
    {"cmd": "entropy", "dist": "1/4,1/4,1/2"},
    {"cmd": "converge", "kind": "reflection", "family": "B", "n": "8,16",
     "dist": "1/2,1/2"},
    {"cmd": "converge", "kind": "symplectic", "q": 2, "n": "4,8", "dist": "1/4,1/4,1/2"},
    {"cmd": "oracle-verify"},
] + [
    {"cmd": "chain-check", "target": target, "dist": "1/2,1/4,1/4", "blocks": "1,2",
     **fields}
    for target, fields in (
        ("shannon", {}),
        ("reflective", {}),
        ("symplectic-entropy", {}),
        ("reflective-cardinality", {"family": "D", "n": 8}),
        ("symplectic-cardinality", {"n": 8, "q": 2}),
        ("poincare", {"family": "D", "n": 8}),
    )
]


def _null_span(name):
    return contextlib.nullcontext()


@pytest.mark.parametrize("op", OPS, ids=lambda op: " ".join(workloads.argv(op)))
def test_harness_check_passes(op):
    res = libcalls.run_lib(op, _null_span)
    libcalls.replay(op, res, _null_span, libcalls.Sizes())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(workloads.argv(op))
    outcome, problems = check.check_op(
        op, code, out.getvalue().encode(), err.getvalue().encode(),
        libcalls.encode(op, res), None,
    )
    assert outcome == check.OK, problems
