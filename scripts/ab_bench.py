"""Benchmark two checkouts against each other in alternated pairs of runs.

Run from anywhere, with two checkouts of the repository:

    python3 scripts/ab_bench.py PARENT CHANGE --workload synth_chains --pairs 10 [--seed 1]

Each pair runs ``perfbench/run.py --workload W --seed S --seconds 20 --trace
0`` once in each checkout, in a fresh process with
``PYTHONDONTWRITEBYTECODE=1``, so that no run leaves bytecode for the next.
PARENT runs first in odd pairs and CHANGE in even ones.  Metric names and
directions are the ``end_to_end`` entries of CHANGE's ``BENCHMARK.json``.

It prints one line per metric: the median of each side, the distance
between the quartiles of PARENT's runs (``statistics.quantiles``), and the
pairs in which CHANGE was better, ties counting for neither side.  It exits
1 if any run is not ``correct``, has failed requests or ends without its
result line, and 0 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: str, workload: str, seed: int) -> dict:
    """One benchmark run in ``checkout``: the JSON object of its last line."""
    argv = ["perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "20", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, *argv],
        cwd=checkout,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if proc.returncode == 0 else {"exit": proc.returncode}
    except (IndexError, json.JSONDecodeError):
        return {"exit": proc.returncode}


def summary(specs: list[dict], parent: list[dict], change: list[dict]) -> tuple[list[str], bool]:
    """The report lines for the pairs ``zip(parent, change)`` of run results,
    and whether every run is correct with no failed request."""
    lines, ok = [], True
    for side, runs in (("parent", parent), ("change", change)):
        for i, r in enumerate(runs, 1):
            if not r.get("correct") or r.get("failed") != 0:
                ok = False
                lines.append(f"pair {i} {side}: correct={r.get('correct')} failed={r.get('failed')} exit={r.get('exit', 0)}")
    if not ok:
        return lines, ok
    for spec in specs:
        name, sign = spec["name"], 1 if spec["better"] == "higher" else -1
        a = [r["metrics"][name]["value"] for r in parent]
        b = [r["metrics"][name]["value"] for r in change]
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        q1, _, q3 = statistics.quantiles(a, n=4) if len(a) > 1 else (a[0],) * 3
        lines.append(
            f"{name:<16} parent {statistics.median(a):.4g}  change {statistics.median(b):.4g} {spec['unit']}  "
            f"parent IQR {q3 - q1:.3g}  change better in {wins}/{len(a)}"
        )
    return lines, ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark two checkouts in alternated pairs of runs.")
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--workload", required=True, help="a workload of perfbench/run.py")
    ap.add_argument("--pairs", type=int, required=True, help="pairs of runs, at least 1")
    ap.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    specs = json.loads((Path(args.change) / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    parent, change = [], []
    for i in range(args.pairs):
        sides = [(args.parent, parent), (args.change, change)]
        for checkout, runs in sides if i % 2 == 0 else sides[::-1]:
            runs.append(run_once(checkout, args.workload, args.seed))
            print(f"pair {i + 1}: {checkout} {json.dumps(runs[-1])}", file=sys.stderr, flush=True)
    lines, ok = summary(specs, parent, change)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
