"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [--seed N] [--workload NAME ...]

For each workload, runs ``run.py --trace 1`` twice, in fresh processes with
different hash seeds, and requires the same input digest, identical
deterministic counters and a correct result from both (a traced output that
is not byte-identical to the untraced one makes the result incorrect).
Exits 1 on any difference.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"


def traced_run(workload: str, seed: int, hashseed: int):
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"FAIL {workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    digest = next(line for line in lines if line.startswith("inputs: "))
    counters = next(json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("counters "))
    return digest, counters, json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--workload", nargs="*", default=list(workloads.WORKLOADS))
    args = ap.parse_args()
    ok = True
    for name in args.workload:
        (d1, c1, r1), (d2, c2, r2) = traced_run(name, args.seed, 1), traced_run(name, args.seed, 2)
        problems = []
        if d1 != d2:
            problems.append(f"input digests differ: {d1!r} vs {d2!r}")
        diff = sorted(k for k in c1.keys() | c2.keys() if c1.get(k) != c2.get(k))
        if diff:
            problems.append("counters differ: " + ", ".join(f"{k} {c1.get(k)} vs {c2.get(k)}" for k in diff))
        if not (r1["correct"] and r2["correct"]):
            problems.append(f"incorrect result: failed {r1['failed']} and {r2['failed']}")
        ok &= not problems
        if problems:
            print(f"FAIL {name}: " + "; ".join(problems))
        else:
            print(f"PASS {name}: {len(c1)} counters identical across two traced runs")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
