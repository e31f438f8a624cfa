#!/usr/bin/env python3
"""Benchmark of the orbit-entropy CLI and library.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ./src.

--trace 0 measures, with tracing off, rounds of one library pass (all ops
in one fresh child), one CLI pass (each op a fresh
``python -m orbit_entropy.cli`` child, one at a time) and a few set-up
starts (interpreter start until ``import orbit_entropy.cli`` returns)
until S seconds have passed; set-up time is the median of all the
starts.  Every CLI op's stdout is checked against the library's values
and, for recorded seeds, against the sha256 in expected.json.

--trace 1 alternates the untraced library pass with a traced pass
(child.py trace) and reports the per-layer split; spans go to
perfbench/out/.

Lines starting with '#' describe the run; the last line is the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import check
import workloads

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
SETUP_STARTS_PER_ROUND = 10
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
IMPORT_PROBE = "import orbit_entropy.cli, sys; sys.stdout.write('.'); sys.stdout.flush()"

SPAN_METRICS = (
    "exact.q_factorial", "exact.q_multinomial", "exact.multinomial",
    "exact.polymul", "dynkin.poincare_closed", "dynkin.poincare_quotient",
    "reflection.orbit_count", "reflection.normalized_log_orbit",
    "reflection.coarsening_cardinality_check",
    "reflection.coarsening_poincare_check", "symplectic.sp_quotient_closed",
    "symplectic.crosscheck", "symplectic.sp_order", "symplectic.ig_count",
    "symplectic.isotropic_flag_count", "symplectic.chain_identity_check",
    "symplectic.normalized_logq", "entropy.parse", "entropy.functionals",
    "entropy.floatlog", "oracle.verify", "cli.main", "cli.format",
)
COUNT_METRICS = ("exact.max_bits", "dynkin.max_degree", "dynkin.cache_hits",
                 "dynkin.cache_misses", "oracle.checks", "cli.stdout_bytes")
COUNT_UNITS = {"exact.max_bits": "bit", "cli.stdout_bytes": "B"}


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip()
                       for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "seed": seed,
            "loadavg": os.getloadavg()}


def child_env(root: Path) -> dict:
    """The caller's environment without its PYTHON* settings (such as
    PYTHONDONTWRITEBYTECODE), so children import the program from ./src
    with bytecode caching, as a user's shell would."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(root / "src")
    return env


def spawn(cmd: list[str], env: dict) -> tuple[int, bytes, bytes, float, float]:
    """Run one child to completion: exit code, stdout, stderr, wall
    seconds and the child's own peak RSS in MB (from wait4)."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    try:
        # stderr is a short message at most, so it fits the pipe buffer
        # while stdout is drained
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    return proc.returncode, out, err, wall, usage.ru_maxrss / 1024


def time_import(env: dict) -> float:
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", IMPORT_PROBE],
                            stdout=subprocess.PIPE, env=env)
    with proc:
        first = proc.stdout.read(1)
        elapsed = perf_counter() - t0
        proc.stdout.read()
    if first != b"." or proc.returncode:
        raise RuntimeError("import orbit_entropy.cli failed")
    return elapsed


def child_pass(mode: str, args, env: dict) -> tuple[dict, float]:
    code, out, err, _, rss = spawn(
        [sys.executable, str(BENCH / "child.py"), mode, "--workload",
         args.workload, "--seed", str(args.seed)], env)
    if code != 0:
        raise RuntimeError(f"{mode} pass exited {code}: {err.decode()[-500:]}")
    return json.loads(out), rss


def pass_layers(traced: dict) -> tuple[dict, float]:
    """Per-layer seconds of one traced pass, and its traced library total."""
    sums = dict.fromkeys(SPAN_METRICS, 0.0)
    lib_by_op: dict[int, float] = {}
    main_by_op: dict[int, float] = {}
    for name, op, _, start, end in traced["spans"]:
        if name in sums:
            sums[name] += end - start
        if name == "lib":
            lib_by_op[op] = end - start
        elif name == "cli.main":
            main_by_op[op] = end - start
    layers = {f"{name}_s": value for name, value in sums.items()}
    layers["cli.overhead_s"] = sum(main_by_op[i] - lib_by_op[i] for i in main_by_op)
    return layers, sum(lib_by_op.values())


def self_times(spans: list) -> dict:
    """Per span name: summed duration and summed self time (duration
    minus the time its child spans cover)."""
    covered = [0.0] * len(spans)
    for name, _, parent, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, _, _, start, end) in enumerate(spans):
        entry = out.setdefault(name, {"total_s": 0.0, "self_s": 0.0})
        entry["total_s"] += end - start
        entry["self_s"] += end - start - covered[i]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "orbit_entropy" / "cli.py").is_file():
        print("error: run from the repository root; src/orbit_entropy/cli.py "
              "not found", file=sys.stderr)
        return 2
    env = child_env(root)
    ops = workloads.build(args.workload, args.seed)
    recorded = check.recorded_for(args.workload, args.seed, ops)
    env_record = environment(args.seed)
    print("# env " + json.dumps(env_record))

    time_import(env)  # fills __pycache__; not counted

    lib_times: list[list[float]] = [[] for _ in ops]
    cli_times: list[list[float]] = [[] for _ in ops]
    outcomes: list[list[tuple[str, list[str]]]] = [[] for _ in ops]
    # peak RSS per child slot (the library pass, then each op), per round
    rss: list[list[float]] = [[] for _ in range(len(ops) + 1)]
    traced_layers: list[dict] = []
    traced_totals: list[float] = []
    traced_counts: list[dict] = []
    traced_spans: list[list] = []
    setup_times: list[float] = []
    deadline = perf_counter() + args.seconds
    rounds = 0
    min_rounds = MIN_TRACED_ROUNDS if args.trace else MIN_ROUNDS
    while rounds < min_rounds or perf_counter() < deadline:
        lib, lib_rss = child_pass("lib", args, env)
        rss[0].append(lib_rss)
        for i, rec in enumerate(lib["ops"]):
            lib_times[i].append(rec["s"])
        if args.trace:
            traced, _ = child_pass("trace", args, env)
            layers, total = pass_layers(traced)
            traced_layers.append(layers)
            traced_totals.append(total)
            traced_counts.append(traced["counts"])
            traced_spans.append(traced["spans"])
            for i, rec in enumerate(traced["ops"]):
                outcomes[i].append((rec["outcome"], rec["problems"]))
        else:
            for i, op in enumerate(ops):
                cmd = [sys.executable, "-m", "orbit_entropy.cli",
                       *workloads.argv(op)]
                code, out, err, wall, op_rss = spawn(cmd, env)
                rss[i + 1].append(op_rss)
                cli_times[i].append(wall)
                outcomes[i].append(check.check_op(
                    op, code, out, err, lib["ops"][i]["want"], recorded[i]))
            # a few starts in every round, so host drift over the run
            # reaches set-up time as it reaches the other metrics
            setup_times += [time_import(env) for _ in range(SETUP_STARTS_PER_ROUND)]
        rounds += 1

    attempted = sum(len(o) for o in outcomes)
    failed = sum(outcome != check.OK for o in outcomes for outcome, _ in o)
    correct = not any(outcome == check.FAIL for o in outcomes for outcome, _ in o)
    lib_wall = sum(statistics.median(t) for t in lib_times)
    for i, op in enumerate(ops):
        outcome, problems = outcomes[i][-1]
        kinds = sorted({o for o, _ in outcomes[i]})
        cli = (f"cli {statistics.median(cli_times[i]):8.4f} s  "
               if cli_times[i] else "")
        print(f"# op {i + 1:2d} {'/'.join(kinds):12s} {cli}"
              f"lib {statistics.median(lib_times[i]):8.4f} s  "
              f"{' '.join(workloads.argv(op))}"
              + (f"  [{'; '.join(problems)}]" if problems else ""))
    print(f"# rounds {rounds}, ops attempted {attempted}, failed {failed}, "
          f"ops_failed_frac {failed / attempted:.6f} ratio")

    if args.trace:
        counts_repeat = all(c == traced_counts[0] for c in traced_counts)
        if not counts_repeat:
            print("# self-test failed: exact counts differ between traced "
                  "passes: " + json.dumps(traced_counts), file=sys.stderr)
            correct = False
        metrics = {name: {"value": statistics.median(p[name] for p in traced_layers),
                          "unit": "s"} for name in traced_layers[0]}
        for name in COUNT_METRICS:
            metrics[name] = {"value": traced_counts[0][name],
                             "unit": COUNT_UNITS.get(name, "count")}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced_totals) - lib_wall, "unit": "s"}
        main_s = metrics["cli.main_s"]["value"]
        shares = {name: m["value"] / main_s for name, m in metrics.items()
                  if m["unit"] == "s" and name != "trace.overhead_s"}
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "env": env_record, "workload": args.workload,
            "ops": [" ".join(workloads.argv(op)) for op in ops],
            "span_fields": ["name", "op", "parent", "start", "end"],
            "passes": traced_spans,
            "self_times": [self_times(s) for s in traced_spans],
            "metrics": metrics, "share_of_cli_main": shares,
        }))
        for name, share in shares.items():
            print(f"# {name:45s} {metrics[name]['value']:10.5f} s  "
                  f"{100 * share:6.1f}% of cli.main_s")
        print(f"# spans written to {trace_file.relative_to(root)}")
    else:
        cli_wall = sum(statistics.median(t) for t in cli_times)
        metrics = {
            "cli_wall_s": {"value": cli_wall, "unit": "s"},
            "lib_wall_s": {"value": lib_wall, "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            # the largest child, each child's peak taken as its median
            # over the rounds
            "peak_rss_mb": {"value": max(statistics.median(r) for r in rss if r),
                            "unit": "MB"},
            "ops_ok_frac": {"value": 1 - failed / attempted, "unit": "ratio"},
        }
        for name, m in metrics.items():
            print(f"# {name:12s} {m['value']:.6f} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
