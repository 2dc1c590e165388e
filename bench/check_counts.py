#!/usr/bin/env python3
"""Run the traced benchmark twice on one seed, under two different string
hash seeds, and check that every count is identical across the two runs:
call counts and the workload counts (solvers.yes, kernel.removed, ...).
Times (unit s) are not compared.

    python3 bench/check_counts.py --workload solve-desk --seed 1
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def traced_counts(workload: str, seed: int, hash_seed: str) -> dict:
    env = {**os.environ, "PYTHONHASHSEED": hash_seed}
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"traced run failed (exit {proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"traced run was not correct:\n{proc.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] != "s"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    first = traced_counts(args.workload, args.seed, "1")
    second = traced_counts(args.workload, args.seed, "2")
    differ = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
    for name in differ:
        print(f"DIFFERS {name}: {first.get(name)} vs {second.get(name)}")
    print(f"{args.workload} seed {args.seed}: {len(first) - len(differ)} of {len(first)} counts identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
