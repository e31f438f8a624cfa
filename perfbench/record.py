#!/usr/bin/env python3
"""Record each op's exit code and stdout sha256 into expected.json.

    python3 perfbench/record.py

Run from the repository root, at the commit whose output is the
reference.  Seeds 0-19 of every workload are recorded.  run.py then requires every op recorded with exit code 0 to
reproduce its stdout byte for byte on that seed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import check
import workloads
from run import child_env, spawn

SEEDS = range(20)


def main() -> int:
    env = child_env(Path.cwd())
    data: dict = {}
    for workload in workloads.WORKLOADS:
        data[workload] = {}
        for seed in SEEDS:
            entries = []
            for op in workloads.build(workload, seed):
                line = " ".join(workloads.argv(op))
                code, out, err, _, _ = spawn(
                    [sys.executable, "-m", "orbit_entropy.cli", *workloads.argv(op)], env)
                if code != 0 and not op.get("defect"):
                    print(f"{workload} seed {seed}: exit {code}: {line}: "
                          f"{err.decode()[-300:]}", file=sys.stderr)
                entries.append([line, code, check.sha256(out)])
            data[workload][str(seed)] = entries
            print(f"{workload} seed {seed}: {len(entries)} ops", file=sys.stderr)
    check.EXPECTED.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
