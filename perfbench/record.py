"""Record this checkout's answers as the benchmark's canonical answers.

    python3 perfbench/record.py [WORKLOAD ...]

Writes ``canonical.json``: for synth_chains every request any seed can draw,
for ktheory_big the requests of seeds 0-9, and for les_small those of seeds
0-2 (every les_small verdict is also re-derived by the oracle on any seed, so
a few seeds suffice to pin the exact text).  Named workloads are recorded
afresh and the others kept.  Each answer is checked against the oracle
before it is recorded.  Rerun only when a change to graphck is
meant to change answers, and say so where the change is described.
"""

import json
import shutil
import sys

import run
import workloads

SEEDS = {"synth_chains": range(10), "ktheory_big": range(10), "les_small": range(3)}


def main() -> int:
    answers = run.load_recorded()
    for name in sys.argv[1:] or SEEDS:
        seeds = SEEDS[name]
        answers[name] = {}
        workdir = run.HERE / ".work" / f"record-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        for seed in seeds:
            gk, bench_pass = run.setup(name, seed, str(workdir))
            requests = bench_pass.requests + (workloads.synth_deep_universe() if name == "synth_chains" else [])
            for req in requests:
                if req.key in answers[name]:
                    continue
                _, obj = run.execute(gk, req)
                _, answer, check = workloads.KINDS[req.kind]
                err = check(gk, req, obj)
                if err is not None:
                    print(f"{req.key}: {err}", file=sys.stderr)
                    return 1
                answers[name][req.key] = answer(obj)
            print(f"{name} seed {seed}: {len(answers[name])} answers", flush=True)
        shutil.rmtree(workdir)
    with open(run.HERE / "canonical.json", "w", encoding="utf-8") as fh:
        json.dump(answers, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
