"""Command line contract: byte-exact golden outputs, exit codes, stream
separation, and determinism."""

import decimal
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from orbit_entropy import cli, exact
from orbit_entropy.cli import _unlimited_int_digits
from orbit_entropy.entropy import CoarseMap, ProbVec
from orbit_entropy.report import IdentityReport
from orbit_entropy.symplectic import (
    FlagType,
    isotropic_flag_count,
    symplectic_chain_identity_check,
)

GOLDEN = Path(__file__).parent / "golden"


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOLDEN_CASES = [
    (
        ["count", "reflection", "--family", "B", "--n", "8", "--dist", "1/2,1/2"],
        "count_reflection_b8.jsonl",
    ),
    (
        ["count", "symplectic", "--n", "2", "--q", "2", "--dist", "1/2,1/2"],
        "count_symplectic_n2q2.jsonl",
    ),
    (
        ["count", "reflection", "--family", "A", "--n", "4", "--dist", "1/2,1/2"],
        "count_reflection_a4.jsonl",
    ),
    (
        [
            "count", "reflection", "--family", "B", "--n", "8",
            "--dist", "1/2,1/2", "--format", "csv",
        ],
        "count_reflection_b8.csv",
    ),
    (["entropy", "--dist", "1/2,1/2"], "entropy_half.jsonl"),
    (["entropy", "--dist", "1"], "entropy_point.jsonl"),
    (["entropy", "--dist", "1/3,1/3,1/3"], "entropy_uniform3.jsonl"),
    (
        [
            "converge", "reflection", "--family", "B",
            "--dist", "1/2,1/2", "--n", "8,16,32,64",
        ],
        "converge_reflection_b.jsonl",
    ),
    (
        ["converge", "symplectic", "--q", "2", "--dist", "1/2,1/2", "--n", "8,16,32,64"],
        "converge_symplectic_q2.jsonl",
    ),
    (
        [
            "chain-check", "--target", "symplectic-cardinality", "--n", "4",
            "--q", "2", "--dist", "1/4,1/4,1/2", "--blocks", "2,1",
        ],
        "chain_symplectic_card.jsonl",
    ),
    (
        ["chain-check", "--target", "shannon", "--dist", "1/2,1/4,1/4", "--blocks", "2,1"],
        "chain_shannon.jsonl",
    ),
    (
        [
            "chain-check", "--target", "poincare", "--family", "A", "--n", "6",
            "--dist", "1/6,2/6,3/6", "--blocks", "2,1",
        ],
        "chain_poincare_a6.jsonl",
    ),
    (
        [
            "chain-check", "--target", "reflective-cardinality", "--family", "B",
            "--n", "8", "--dist", "1/4,1/4,1/2", "--blocks", "2,1",
        ],
        "chain_reflective_card_b8.jsonl",
    ),
    (
        [
            "chain-check", "--target", "reflective-cardinality", "--family", "D",
            "--n", "12", "--dist", "1/3,1/6,1/2", "--blocks", "1,2",
        ],
        "chain_reflective_card_d12.jsonl",
    ),
    (
        [
            "chain-check", "--target", "poincare", "--family", "D", "--n", "8",
            "--dist", "1/4,1/4,1/2", "--blocks", "2,1",
        ],
        "chain_poincare_d8.jsonl",
    ),
    (
        [
            "chain-check", "--target", "symplectic-entropy",
            "--dist", "1/4,1/4,1/2", "--blocks", "2,1",
        ],
        "chain_symplectic_entropy.jsonl",
    ),
    (
        ["converge", "reflection", "--family", "D", "--dist", "1/2,1/2", "--n", "8,16,32"],
        "converge_reflection_d.jsonl",
    ),
    (
        [
            "converge", "symplectic", "--q", "3", "--dist", "1/4,1/4,1/2",
            "--n", "8,16", "--format", "csv",
        ],
        "converge_symplectic_q3.csv",
    ),
    (
        [
            "chain-check", "--target", "symplectic-cardinality", "--n", "12",
            "--q", "3", "--dist", "1/3,1/6,1/2", "--blocks", "1,2",
        ],
        "chain_symplectic_card_n12q3.jsonl",
    ),
    (
        [
            "chain-check", "--target", "poincare", "--family", "B", "--n", "12",
            "--dist", "1/3,1/6,1/2", "--blocks", "1,2",
        ],
        "chain_poincare_b12.jsonl",
    ),
]


@pytest.mark.parametrize("argv,golden", GOLDEN_CASES, ids=[g for _, g in GOLDEN_CASES])
def test_golden_output(argv, golden, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    assert err == ""
    assert out == (GOLDEN / golden).read_text()


def test_repeat_runs_are_byte_identical(capsys):
    argv = ["converge", "symplectic", "--q", "3", "--dist", "1/4,1/4,1/2", "--n", "8,16,32"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second


def test_quotient_object_uses_partial_flag():
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(
            ["count", "symplectic", "--n", "2", "--q", "2", "--dist", "1/2,1/2",
             "--object", "quotient"]
        )
    assert code == 0
    record = json.loads(buf.getvalue())
    assert record["object"] == "quotient"
    assert record["value"] == "15"


def test_isotropic_count_record(capsys):
    code, out, err = run_cli(["count", "isotropic", "--s", "1", "--n", "2", "--q", "2"], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["value"] == "15"


def test_dist_echo_is_normalized(capsys):
    _, out, _ = run_cli(
        ["count", "reflection", "--family", "A", "--n", "6", "--dist", "1/6,2/6,3/6"],
        capsys,
    )
    assert json.loads(out)["dist"] == "1/6,1/3,1/2"


def test_decimal_probability_is_a_parse_error(capsys):
    code, out, err = run_cli(
        ["count", "reflection", "--family", "B", "--n", "8", "--dist", "0.5,0.5"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert "error:" in err
    assert "fraction" in err


@pytest.mark.parametrize(
    "dist,token", [("1e-1,9/10", "1e-1"), ("5E-1,1/2", "5E-1"), ("1/2,5e-1", "5e-1")]
)
def test_exponent_probability_is_a_parse_error(dist, token, capsys):
    # Fraction reads exponent notation as well; it is decimal notation too
    code, out, err = run_cli(
        ["count", "reflection", "--family", "B", "--n", "8", "--dist", dist],
        capsys,
    )
    assert (code, out) == (2, "")
    assert err == (
        f"error: decimal probability {token!r} not accepted; "
        "write exact fractions like 1/3\n"
    )


def test_unparseable_probability_is_named(capsys):
    code, out, err = run_cli(["entropy", "--dist", "one,1/2"], capsys)
    assert (code, out) == (2, "")
    assert err == (
        "error: cannot parse probability 'one': Invalid literal for Fraction: 'one'\n"
    )


@pytest.mark.parametrize(
    "token,message",
    [
        # '.' refuses a token unread; 'e' only a token Fraction reads
        ("1.x", "decimal probability '1.x' not accepted; write exact fractions like 1/3"),
        ("1e", "cannot parse probability '1e': Invalid literal for Fraction: '1e'"),
        ("1e-1", "decimal probability '1e-1' not accepted; write exact fractions like 1/3"),
    ],
)
def test_probability_token_messages(token, message, capsys):
    code, out, err = run_cli(["entropy", "--dist", f"1/2,{token}"], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_non_integral_split_is_a_domain_error(capsys):
    code, out, err = run_cli(
        ["count", "reflection", "--family", "B", "--n", "5", "--dist", "1/2,1/2"],
        capsys,
    )
    assert code == 3
    assert out == ""
    assert err != ""


@pytest.mark.parametrize(
    "target", ["symplectic-cardinality", "reflective-cardinality", "poincare"]
)
def test_exact_chain_target_names_the_fine_entry_first(target, capsys):
    # the fine side is checked first, so the entry n does not serve is named
    # rather than the coarse entry the fine one was summed into
    code, out, err = run_cli(
        ["chain-check", "--target", target, "--family", "B", "--q", "2", "--n", "6",
         "--dist", "1/4,1/4,1/2", "--blocks", "2,1"],
        capsys,
    )
    assert code == 3
    assert out == ""
    assert err == "error: n=6 does not make 1/4 integral\n"


@pytest.mark.parametrize("family,n", [("A", 1), ("B", 1), ("D", 1), ("D", 2)])
def test_count_and_chain_check_accept_the_same_inputs(family, n, capsys):
    common = ["--family", family, "--n", str(n), "--dist", "1"]
    code, out, err = run_cli(["count", "reflection", *common], capsys)
    assert (code, err) == (0, "")
    value = json.loads(out)["value"]
    for target in ("reflective-cardinality", "poincare"):
        code, out, err = run_cli(
            ["chain-check", "--target", target, *common, "--blocks", "1"], capsys
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["lhs"] == value


def test_inadmissible_schedule_point_is_named(capsys):
    code, out, err = run_cli(
        ["converge", "reflection", "--family", "B", "--dist", "1/2,1/2", "--n", "8,9"],
        capsys,
    )
    assert code == 3
    assert "9" in err
    # the schedule point is refused by the rule, and with the message, of
    # the count it would take
    count = run_cli(
        ["count", "reflection", "--family", "B", "--dist", "1/2,1/2", "--n", "9"], capsys
    )
    assert (code, out, err) == count
    assert err == "error: n=9 does not make 1/2 integral\n"


def test_small_blocks_are_rejected_for_reflection_schedules(capsys):
    # n*p must exceed 3 for every entry, so n=6 fails for a half split
    code, _, err = run_cli(
        ["converge", "reflection", "--family", "B", "--dist", "1/2,1/2", "--n", "6,8"],
        capsys,
    )
    assert code == 3
    assert "n=6" in err


def test_symplectic_schedule_only_needs_integrality(capsys):
    code, out, _ = run_cli(
        ["converge", "symplectic", "--q", "2", "--dist", "1/2,1/2", "--n", "2,4"],
        capsys,
    )
    assert code == 0
    assert len(out.splitlines()) == 2


@pytest.mark.parametrize(
    "zeros, message",
    [
        # the certified bound leaves the float open and the count has more
        # bits than an int can hold
        (60, "is too large to build"),
        # math.lgamma of the rank overflows
        (306, "the float estimate of ln |W/W_P| overflows"),
    ],
)
def test_converge_reflection_refuses_an_n_beyond_the_bound(zeros, message, capsys):
    code, out, err = run_cli(
        ["converge", "reflection", "--family", "B", "--n", "1" + "0" * zeros,
         "--dist", "1/2,1/2"],
        capsys,
    )
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_mismatched_blocks_are_a_parse_error(capsys):
    code, _, err = run_cli(
        ["chain-check", "--target", "shannon", "--dist", "1/2,1/4,1/4", "--blocks", "2,2"],
        capsys,
    )
    assert code == 2
    assert "coarse map covers 4 entries, vector has 3" in err


def test_missing_required_flag_is_a_parse_error(capsys):
    code, _, err = run_cli(["count", "reflection", "--n", "4", "--dist", "1/2,1/2"], capsys)
    assert code == 2
    assert "family" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ["converge", "reflection", "--dist", "1/2,1/2", "--n", "8"],
            "--family is required for converge reflection",
        ),
        (
            ["converge", "symplectic", "--dist", "1/2,1/2", "--n", "8"],
            "--q is required for converge symplectic",
        ),
        (
            ["chain-check", "--target", "poincare", "--dist", "1/2,1/2",
             "--blocks", "1,1", "--n", "8"],
            "--family is required for the poincare target",
        ),
        (
            ["chain-check", "--target", "reflective-cardinality", "--dist", "1/2,1/2",
             "--blocks", "1,1", "--family", "B"],
            "--n is required for this target",
        ),
        (
            ["chain-check", "--target", "symplectic-cardinality", "--dist", "1/2,1/2",
             "--blocks", "1,1", "--n", "8"],
            "--q is required for this target",
        ),
    ],
)
def test_missing_target_flag_message(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


# modules a CLI call must not pay for at start-up: dataclasses (with the
# inspect it imports) is not used, typing would serve annotations only, csv
# serves only --format csv and the oracle only oracle-verify
UNUSED_AT_IMPORT = ("dataclasses", "inspect", "typing", "csv", "orbit_entropy.oracle")


def test_cli_import_loads_no_unused_module():
    probe = (
        "import sys\n"
        "import orbit_entropy\n"
        "print('dataclasses' in sys.modules)\n"
        "import orbit_entropy.cli\n"
        f"print(sorted(set({UNUSED_AT_IMPORT!r}) & set(sys.modules)))\n"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    # -S: no site hooks (.pth files), which may import modules themselves
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "False\n[]\n"


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_closed_stdout_exits_141_without_a_traceback():
    # the reader is gone before the child writes, as with `| head -c 10`
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    argv = ["converge", "symplectic", "--q", "2", "--dist", "1/2,1/2", "--n", "8,16,32,64"]
    try:
        done = subprocess.run(
            [sys.executable, "-m", "orbit_entropy.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, b"")


def _readme_examples():
    # each `$ orbit-entropy ...` line of the README's command-line block,
    # with the lines shown under it; a line starting "..." elides the rest
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for chunk in block.strip().split("\n\n"):
        command, *shown = chunk.splitlines()
        assert command.startswith("$ orbit-entropy ")
        examples.append((command.split()[2:], shown))
    return examples


README_EXAMPLES = _readme_examples()


@pytest.mark.parametrize(
    "argv,shown", README_EXAMPLES, ids=[" ".join(a[:2]) for a, _ in README_EXAMPLES]
)
def test_readme_example_output(argv, shown, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    kept = next((i for i, line in enumerate(shown) if line.startswith("...")), len(shown))
    assert lines[:kept] == shown[:kept]
    assert len(lines) == kept if kept == len(shown) else len(lines) > kept


def test_identity_failure_exits_one(monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "symplectic_chain_identity_check", lambda *a, **k: IdentityReport(1, 2)
    )
    code, out, _ = run_cli(
        ["chain-check", "--target", "symplectic-cardinality", "--n", "4", "--q", "2",
         "--dist", "1/4,1/4,1/2", "--blocks", "2,1"],
        capsys,
    )
    assert code == 1
    assert '"holds": false' in out
    assert json.loads(out)["residual"] == "-1"


def test_held_poincare_check_subtracts_nothing(monkeypatch, capsys):
    # a held identity prints its residual as "0" without computing lhs - rhs
    subtractions = []
    subtract = exact.IntPolynomial.__sub__

    def counted(a, b):
        subtractions.append((a, b))
        return subtract(a, b)

    monkeypatch.setattr(exact.IntPolynomial, "__sub__", counted)
    code, out, err = run_cli(
        ["chain-check", "--target", "poincare", "--family", "B", "--n", "12",
         "--dist", "1/3,1/6,1/2", "--blocks", "1,2"],
        capsys,
    )
    assert (code, err) == (0, "")
    record = json.loads(out)
    assert record["holds"] is True and record["residual"] == "0"
    assert subtractions == []


_FINE, _BLOCKS = ["--dist", "1/4,1/4,1/2"], ["--blocks", "2,1"]
# one small op per command and per chain-check target, both formats
NO_PRODUCT_OPS = [
    ["count", "reflection", "--family", "B", "--n", "8", *_FINE],
    ["count", "symplectic", "--n", "4", "--q", "2", *_FINE],
    ["count", "symplectic", "--object", "quotient", "--n", "4", "--q", "2", *_FINE],
    ["count", "isotropic", "--s", "1", "--n", "2", "--q", "2", "--format", "csv"],
    ["entropy", *_FINE],
    ["converge", "reflection", "--family", "D", *_FINE, "--n", "16,32"],
    ["converge", "symplectic", "--q", "3", *_FINE, "--n", "8,16", "--format", "csv"],
    ["chain-check", "--target", "shannon", *_FINE, *_BLOCKS],
    ["chain-check", "--target", "reflective", *_FINE, *_BLOCKS],
    ["chain-check", "--target", "symplectic-entropy", *_FINE, *_BLOCKS],
    ["chain-check", "--target", "reflective-cardinality", "--family", "B", "--n", "8",
     *_FINE, *_BLOCKS],
    ["chain-check", "--target", "symplectic-cardinality", "--n", "4", "--q", "2",
     *_FINE, *_BLOCKS],
    *(["chain-check", "--target", "poincare", "--family", family, "--n", "8",
       *_FINE, *_BLOCKS] for family in "ABCD"),
    ["chain-check", "--target", "poincare", "--family", "C", "--n", "8",
     *_FINE, *_BLOCKS, "--format", "csv"],
    ["oracle-verify"],
    ["oracle-verify", "--format", "csv"],
]


@pytest.mark.parametrize("argv", NO_PRODUCT_OPS, ids=" ".join)
def test_no_command_multiplies_polynomials(argv, monkeypatch, capsys):
    # the chain rules are proved from degree lists, so the polynomial
    # product's speed matters to no command
    products = []
    multiply = exact.IntPolynomial.__mul__

    def counted(a, b):
        products.append((a, b))
        return multiply(a, b)

    monkeypatch.setattr(exact.IntPolynomial, "__mul__", counted)
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "") and out
    assert products == []


def test_failed_self_check_exits_one(monkeypatch, capsys):
    # a count whose evaluation drops a factor fails its residue check
    original = exact.product
    monkeypatch.setattr(exact, "product", lambda values: original(list(values)[1:]))
    code, out, err = run_cli(["count", "isotropic", "--s", "1", "--n", "2", "--q", "2"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "stabilizer factorization" in err


def test_oracle_verify_reflection_subset(capsys):
    code, out, err = run_cli(["oracle-verify", "--scope", "reflection", "--max-rank", "2"], capsys)
    assert code == 0
    lines = out.splitlines()
    records = [json.loads(line) for line in lines]
    assert all(r["match"] for r in records)
    summary = records[-1]
    assert summary["check"] == "summary"
    assert "failures=0" in summary["case"]


@pytest.mark.parametrize("max_rank", ["-1", "0"])
def test_oracle_verify_max_rank_below_one_is_a_parse_error(max_rank, capsys):
    # such a rank would verify no reflection case and still report success
    code, out, err = run_cli(
        ["oracle-verify", "--scope", "reflection", "--max-rank", max_rank], capsys
    )
    assert code == 2
    assert out == ""
    assert err == "error: --max-rank must be at least 1\n"


# the checks each --scope runs; "all" runs every one of them
ORACLE_SCOPE_CHECKS = {
    "words": {"type-class"},
    "reflection": {"length-census", "parabolic-census"},
    "symplectic": {
        "isotropic-subspaces",
        "isotropic-flags",
        "general-linear",
        "symplectic-group",
        "orbit-stabilizer",
    },
}


def oracle_verify_cases(argv, capsys):
    """stdout and case records of a passing oracle-verify run."""
    code, out, err = run_cli(["oracle-verify", *argv], capsys)
    assert (code, err) == (0, "")
    *cases, summary = [json.loads(line) for line in out.splitlines()]
    assert summary == {
        "command": "oracle-verify",
        "check": "summary",
        "case": f"checks={len(cases)} failures=0",
        "oracle": "",
        "closed": "",
        "match": True,
    }
    return out, cases


def test_oracle_verify_scopes_are_slices_of_the_full_run(capsys):
    full_out, full = oracle_verify_cases(["--scope", "all"], capsys)
    assert {r["check"] for r in full} == set().union(*ORACLE_SCOPE_CHECKS.values())
    for scope, checks in ORACLE_SCOPE_CHECKS.items():
        _, cases = oracle_verify_cases(["--scope", scope], capsys)
        assert cases == [r for r in full if r["check"] in checks], scope
    # reflection cases read "<family> rank=<rank>[ remove=...]"
    _, low = oracle_verify_cases(["--scope", "reflection", "--max-rank", "2"], capsys)
    assert len(low) == 16
    assert low == [
        r
        for r in full
        if r["check"] in ORACLE_SCOPE_CHECKS["reflection"]
        and int(r["case"].split()[1].removeprefix("rank=")) <= 2
    ]
    # ranks past the oracle's cap run exactly the default cases
    assert oracle_verify_cases(["--max-rank", "9"], capsys)[0] == full_out


def test_oracle_verify_reports_every_mismatch(monkeypatch, capsys):
    monkeypatch.setattr(cli, "gl_order", lambda m, q: 0)
    code, out, err = run_cli(["oracle-verify"], capsys)
    assert (code, err) == (1, "")
    *cases, summary = [json.loads(line) for line in out.splitlines()]
    assert len(cases) == 167
    assert [r["check"] for r in cases if not r["match"]] == ["general-linear"] * 8
    assert (summary["case"], summary["match"]) == ("checks=167 failures=8", False)


@pytest.mark.parametrize(
    "exc, code", [(ValueError, 3), (exact.InexactDivisionError, 1)]
)
def test_oracle_verify_error_prints_no_records(exc, code, monkeypatch, capsys):
    from orbit_entropy import oracle

    def fail(n, q):
        raise exc("oracle failed")

    monkeypatch.setattr(oracle, "enumerate_symplectic_group", fail)
    assert run_cli(["oracle-verify"], capsys) == (code, "", "error: oracle failed\n")


ORACLE_VERIFY_HELP = """\
usage: orbit-entropy oracle-verify [-h] [--format {json,csv}]
                                   [--scope {all,words,reflection,symplectic}]
                                   [--max-rank MAX_RANK]

options:
  -h, --help            show this help message and exit
  --format {json,csv}   output format (default json, one object per line)
  --scope {all,words,reflection,symplectic}
  --max-rank MAX_RANK
"""


def test_oracle_verify_help_is_pinned(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(["oracle-verify", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == ORACLE_VERIFY_HELP


# recorded before --family read dynkin.FAMILIES
SUBCOMMAND_HELP = {
    "count": """\
usage: orbit-entropy count [-h] [--format {json,csv}] [--family {A,B,C,D}]
                           [--n N] [--q Q] [--s S] [--dist DIST]
                           [--object {flag,quotient}]
                           {reflection,symplectic,isotropic}

positional arguments:
  {reflection,symplectic,isotropic}

options:
  -h, --help            show this help message and exit
  --format {json,csv}   output format (default json, one object per line)
  --family {A,B,C,D}
  --n N
  --q Q
  --s S
  --dist DIST           exact fractions, e.g. 1/2,1/4,1/4
  --object {flag,quotient}
                        symplectic object: full-shape flag (default) or
                        parabolic quotient
""",
    "converge": """\
usage: orbit-entropy converge [-h] [--format {json,csv}] [--family {A,B,C,D}]
                              [--q Q] --dist DIST --n N
                              {reflection,symplectic}

positional arguments:
  {reflection,symplectic}

options:
  -h, --help            show this help message and exit
  --format {json,csv}   output format (default json, one object per line)
  --family {A,B,C,D}
  --q Q
  --dist DIST
  --n N                 comma-separated schedule, e.g. 8,16,32
""",
    "chain-check": """\
usage: orbit-entropy chain-check [-h] [--format {json,csv}] --target
                                 {shannon,reflective,symplectic-entropy,reflective-cardinality,symplectic-cardinality,poincare}
                                 --dist DIST --blocks BLOCKS
                                 [--family {A,B,C,D}] [--n N] [--q Q]

options:
  -h, --help            show this help message and exit
  --format {json,csv}   output format (default json, one object per line)
  --target {shannon,reflective,symplectic-entropy,reflective-cardinality,symplectic-cardinality,poincare}
  --dist DIST
  --blocks BLOCKS       coarse block sizes, e.g. 2,1
  --family {A,B,C,D}
  --n N
  --q Q
""",
}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_HELP))
def test_subcommand_help_is_pinned(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == SUBCOMMAND_HELP[command]


def test_oracle_verify_csv_header(capsys):
    code, out, _ = run_cli(
        ["oracle-verify", "--scope", "words", "--format", "csv"], capsys
    )
    assert code == 0
    assert out.splitlines()[0] == "command,check,case,oracle,closed,match"


def test_every_json_line_parses(capsys):
    _, out, _ = run_cli(
        ["converge", "reflection", "--family", "D", "--dist", "1/4,1/4,1/2", "--n", "8,16"],
        capsys,
    )
    for line in out.splitlines():
        record = json.loads(line)
        assert record["command"] == "converge"


def test_count_past_the_int_digit_limit_prints(capsys):
    # 256,624 decimal digits, far past CPython's default 4300-digit limit
    argv = ["count", "symplectic", "--n", "1024", "--q", "2", "--dist", "1/4,1/4,1/2"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and err == ""
    counts = ProbVec(("1/4", "1/4", "1/2")).scaled_counts(1024)
    expected = isotropic_flag_count(FlagType(counts, 1024, 2))
    with _unlimited_int_digits():
        assert int(json.loads(out)["value"]) == expected


def test_chain_check_past_the_int_digit_limit_prints(capsys):
    argv = [
        "chain-check", "--target", "symplectic-cardinality", "--n", "200",
        "--q", "2", "--dist", "1/4,1/4,1/2", "--blocks", "2,1",
    ]
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and err == ""
    record = json.loads(out)
    expected = symplectic_chain_identity_check(
        200, ProbVec(("1/4", "1/4", "1/2")), CoarseMap((2, 1)), 2
    )
    with _unlimited_int_digits():
        assert int(record["lhs"]) == int(record["rhs"]) == expected.lhs
    assert record["residual"] == "0" and record["holds"] is True


def test_digit_limit_is_restored_after_main(capsys):
    limit = getattr(sys, "get_int_max_str_digits", None)
    before = limit() if limit else None
    run_cli(["count", "isotropic", "--s", "1", "--n", "2", "--q", "2"], capsys)
    assert (limit() if limit else None) == before


# stdout sha256 of outputs too long for a golden file: numbers far past
# every golden file, and the 168 lines of oracle-verify at its defaults
BIG_OUTPUT_SHA256 = [
    (
        ["count", "symplectic", "--n", "1024", "--q", "2", "--dist", "1/4,1/4,1/2"],
        "fe97242d1e6e168626880f2112e53058cc934155ea98274e45084185b0cd3d8c",
    ),
    (
        ["count", "symplectic", "--n", "1024", "--q", "2", "--dist", "1/4,1/4,1/2",
         "--format", "csv"],
        "cf3c801b1fdfacdb88646ca28425026e4221e6cbd6d0830ea67c6da75a5692e3",
    ),
    (
        ["chain-check", "--target", "symplectic-cardinality", "--n", "200", "--q", "2",
         "--dist", "1/4,1/4,1/2", "--blocks", "2,1"],
        "a48c8ce0675049072a604d40a31a0f7e6aa3c182d4bab10de08eb77a60a2520f",
    ),
    (
        ["converge", "symplectic", "--q", "2", "--n", "256,512,1024",
         "--dist", "1/8,3/8,1/2"],
        "a5c6f6966bd3f0d9307d75b72ec3f25c3b19943d0eff2d885c579e5dda0c4a37",
    ),
    (
        ["converge", "reflection", "--family", "B", "--n", "4096,16384,65536",
         "--dist", "1/8,3/8,1/2"],
        "59ed694f65f860f972bf979774eb856ec4203770208052d7b46414aa919fe1c6",
    ),
    # every default case, 167 checks: pins which cases --max-rank's default runs
    (
        ["oracle-verify"],
        "0ebad3a678fb39b292ff818f0560d83ab200cb35c6c8ebc1c9034d5e48d20a23",
    ),
    (
        ["oracle-verify", "--format", "csv"],
        "d7fef98634b9914ffc568efe98ad6ac0b706900e472c34f20f9be3c291e4f49e",
    ),
]


@pytest.mark.parametrize(
    "argv,digest",
    BIG_OUTPUT_SHA256,
    ids=["count-json", "count-csv", "chain-check", "converge-symplectic",
         "converge-reflection", "oracle-verify", "oracle-verify-csv"],
)
def test_big_output_is_pinned(argv, digest, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _int_from_digits(digits):
    # the int a decimal string names, by splitting the string in halves and
    # joining them with int multiplications: an independent route, and one
    # far faster than int(digits) for millions of digits
    if len(digits) <= 1000:
        return int(digits)
    h = len(digits) // 2
    return _int_from_digits(digits[:-h]) * 10**h + _int_from_digits(digits[-h:])


def test_int_str_is_str_around_the_crossover():
    bits = cli._DECIMAL_STR_BITS
    k0 = int(bits * math.log10(2))
    values = [0, 1, -1, 2**bits, 2**bits - 1, -(2**bits)]
    for k in range(k0 - 3, k0 + 4):
        for v in (10**k - 1, 10**k, 10**k + 1):
            values += [v, -v]
    with _unlimited_int_digits():
        for v in values:
            assert cli._int_str(v) == str(v), v


def test_int_str_ignores_and_keeps_the_callers_context():
    # a caller's low precision and floor rounding would drop digits; the
    # conversion uses exact's own context and leaves the caller's as it was
    bits = cli._DECIMAL_STR_BITS
    values = [2 ** (bits - 1) - 1, 2**bits - 1, 2**bits, 3**40_000, -(7**30_000)]
    with _unlimited_int_digits(), decimal.localcontext() as ctx:
        ctx.prec, ctx.rounding = 5, decimal.ROUND_FLOOR
        ctx.clear_flags()
        texts = [cli._int_str(v) for v in values]
        assert (ctx.prec, ctx.rounding) == (5, decimal.ROUND_FLOOR)
        assert not any(ctx.flags.values())
        assert texts == [str(v) for v in values]


@pytest.mark.parametrize("seed", range(4))
def test_int_str_is_str_on_random_ints(seed):
    rng = random.Random(seed)
    with _unlimited_int_digits():
        for _ in range(6):
            v = rng.getrandbits(rng.randrange(1, 300_000)) * rng.choice((1, -1))
            assert cli._int_str(v) == str(v)


@pytest.mark.parametrize("digits", [100_000, 903_090])
def test_int_str_names_the_int_it_formats(digits):
    # up to 3 Mbit, where str() itself takes many seconds on CPython 3.11:
    # the string is drawn first and the int built from it
    rng = random.Random(digits)
    text = str(rng.randrange(1, 10)) + "".join(rng.choices("0123456789", k=digits - 1))
    value = _int_from_digits(text)
    assert value.bit_length() > digits * 3
    assert cli._int_str(value) == text
    assert cli._int_str(-value) == "-" + text
