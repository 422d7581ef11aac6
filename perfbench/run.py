"""graphck benchmark: seeded closed-loop workloads with one client.

Run from the repository root:

    python3 perfbench/run.py --workload synth_chains --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: the workload's pass of
requests is replayed back to back, one request at a time, for the number of
whole passes that takes about ``--seconds`` on the reference host (see
``workloads.PASS_SECONDS``).  Times are scaled to reference host speed by a
probe kernel timed between requests (see ``hostspeed.py``); the raw figures
are printed beside them.  ``--trace 1`` runs one pass untraced and one pass
with every graphck boundary wrapped (see ``tracer.py``) and reports the
per-layer metrics, the deterministic counters and the tracing overhead; a
pass is fixed work, so the counters repeat exactly for a seed.
``--workload all`` runs every workload in a fresh process of its own.

Metric names and units come from ``BENCHMARK.json`` at the repository root.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every distinct
request's output is checked after the timed part against an independent
reference (``oracle.py``), the recorded answers in ``canonical.json`` and
the workload's invariants; a request that raises, fails a check or repeats
with a different output counts as failed.
"""

import os

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"  # before numpy is imported anywhere

import argparse
import contextlib
import gc
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
TAIL_BEYOND = 10
GRAPHCK_MODULES = ("abelian", "graphs", "ktheory", "synthesis", "lab", "scenarios", "cli")


class BenchmarkError(RuntimeError):
    pass


def load_graphck() -> SimpleNamespace:
    """Import graphck afresh from this checkout's ``src`` (never an installed copy)."""
    for name in [n for n in sys.modules if n == "graphck" or n.startswith("graphck.")]:
        del sys.modules[name]
    if not (SRC / "graphck" / "__init__.py").is_file():
        raise BenchmarkError(f"no graphck sources under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"graphck.{name}") for name in GRAPHCK_MODULES}
    if Path(mods["abelian"].__file__).resolve().parent != SRC / "graphck":
        raise BenchmarkError(f"graphck was imported from {mods['abelian'].__file__}, not {SRC}")
    import numpy

    return SimpleNamespace(np=numpy, **mods)


def execute(gk, req):
    return workloads.KINDS[req.kind][0](gk, req.payload)


def setup(workload: str, seed: int, workdir: str):
    """Import graphck, generate the seeded pass and warm up; returns (gk, pass)."""
    gk = load_graphck()
    bench_pass = workloads.WORKLOADS[workload](gk, seed, workdir)
    for req in bench_pass.warmup:
        execute(gk, req)
    return gk, bench_pass


class Outcome:
    """Latencies and outputs of a closed loop over a pass."""

    def __init__(self):
        self.latencies: list[float] = []  # raw seconds
        self.scaled: list[float] = []  # seconds at reference host speed (see hostspeed.py)
        self.keys: list[str] = []
        self.first: dict = {}  # key -> (request, exact output text, checked object)
        self.errors: dict[int, str] = {}  # index into latencies -> reason
        self.speed = 1.0


def closed_loop(gk, requests, passes: int, trace=None) -> Outcome:
    """Send the pass's requests one at a time, ``passes`` times over."""
    out = Outcome()
    # Collect the set-up's garbage and freeze what survives (graphck, numpy,
    # the inputs), so a full collection during a request scans only what the
    # loop made.  Unfrozen, les_small's slowest requests were the ones that
    # met a 20-45 ms full collection, and its tail moved with their count.
    gc.collect()
    gc.freeze()
    probe = hostspeed.Probe()
    segments = []
    for i in range(passes * len(requests)):
        req = requests[i % len(requests)]
        if trace is not None:
            trace.request_id = i
        segments.append(len(probe.samples) - 1)
        t0 = perf_counter()
        try:
            text, obj = execute(gk, req)
        except Exception as exc:  # a failed request is counted, never fatal
            text, obj = None, None
            out.errors[i] = f"raised {type(exc).__name__}: {exc}"
        out.latencies.append(perf_counter() - t0)
        out.keys.append(req.key)
        if text is not None:
            seen = out.first.setdefault(req.key, (req, text, obj))
            if seen[1] != text:
                out.errors[i] = "output differs from the first run of the same request"
        probe.tick()
    probe.tick(force=True)
    out.scaled = probe.scale(out.latencies, segments)
    out.speed = probe.speed()
    return out


def load_recorded() -> dict:
    path = HERE / "canonical.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def verify(gk, workload: str, outcome: Outcome) -> tuple[int, dict]:
    """Check each distinct output once; returns (#checked against records, failing keys)."""
    recorded = load_recorded().get(workload, {})
    bad: dict[str, str] = {}
    matched = 0
    for key, (req, _text, obj) in outcome.first.items():
        _, answer, check = workloads.KINDS[req.kind]
        err = check(gk, req, obj)
        if err is None and answer is not None and key in recorded:
            got = answer(obj)
            matched += 1
            if got != recorded[key]:
                err = f"answer {got!r} differs from the recorded {recorded[key]!r}"
        if err is not None:
            bad[key] = err
    for i, reason in outcome.errors.items():
        bad.setdefault(outcome.keys[i], reason)
    return matched, bad


def failed_indices(outcome: Outcome, bad: dict) -> set:
    return {i for i, key in enumerate(outcome.keys) if key in bad} | set(outcome.errors)


def tail(latencies: list[float]):
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, percentile)."""
    s = sorted(latencies)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def environment() -> str:
    import numpy

    threads = ",".join(f"{v}={os.environ[v]}" for v in BLAS_THREAD_VARS)
    return f"nproc={os.cpu_count()} python={platform.python_version()} numpy={numpy.__version__} {threads}"


def metric_specs(kind: str) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)[kind]


def emit(correct: bool, attempted: int, failed: int, values: dict, kind: str) -> None:
    metrics = {}
    for spec in metric_specs(kind):
        if spec["name"] not in values:
            raise BenchmarkError(f"the run did not produce metric {spec['name']}")
        metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


def report_failures(bad: dict) -> None:
    for key, reason in list(bad.items())[:10]:
        print(f"FAILED {key}: {reason}")


def measure(args, workdir: str) -> None:
    raw_times, times = [], []
    for _ in range(SETUP_REPEATS):
        (gk, bench_pass), raw, scaled = hostspeed.scaled_call(lambda: setup(args.workload, args.seed, workdir))
        raw_times.append(raw)
        times.append(scaled)
    print(f"inputs: {len(bench_pass.requests)} requests per pass, digest {bench_pass.digest()}")

    passes = max(1, round(args.seconds / workloads.PASS_SECONDS[args.workload]))
    out = closed_loop(gk, bench_pass.requests, passes)
    matched, bad = verify(gk, args.workload, out)
    failed = failed_indices(out, bad)
    report_failures(bad)
    attempted = len(out.latencies)
    lat = [float("inf") if i in failed else x for i, x in enumerate(out.scaled)]
    raw_lat = [float("inf") if i in failed else x for i, x in enumerate(out.latencies)]
    tail_s, tail_pct = tail(lat)
    completed = attempted - len(failed)
    values = {
        "throughput_rps": completed / sum(out.scaled),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "setup_s": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"checked {len(out.first)} distinct outputs, {matched} against recorded answers")
    print(f"times are at reference host speed; this run's host ran at x{out.speed:.3f} of it (hostspeed.py)")
    notes = {
        "throughput_rps": f"{completed} requests, {passes} passes; raw {completed / sum(out.latencies):.4f}",
        "latency_p50_ms": f"raw {statistics.median(raw_lat) * 1e3:.4f}",
        "latency_tail_ms": f"p{tail_pct:.1f} of n={attempted}, {TAIL_BEYOND} beyond; raw {tail(raw_lat)[0] * 1e3:.4f}",
        "setup_s": f"median of {SETUP_REPEATS}: " + ", ".join(f"{t:.4f}" for t in times)
        + f"; raw {statistics.median(raw_times):.4f}",
    }
    for spec in metric_specs("end_to_end"):
        name = spec["name"]
        print(f"  {name:<18} {values[name]:>12.4f} {spec['unit']:<6} {notes.get(name, '')}")
    print(f"  {'failed_frac':<18} {len(failed) / attempted:>12.4f} ratio  {len(failed)}/{attempted}")
    emit(not failed, attempted, len(failed), values, "end_to_end")


def measure_traced(args, workdir: str) -> None:
    gk, bench_pass = setup(args.workload, args.seed, workdir)
    print(f"inputs: {len(bench_pass.requests)} requests per pass, digest {bench_pass.digest()}")
    plain = closed_loop(gk, bench_pass.requests, 1)
    tr = tracer.Tracer()
    tr.install()
    try:
        traced = closed_loop(gk, bench_pass.requests, 1, trace=tr)
    finally:
        tr.uninstall()
    matched, bad = verify(gk, args.workload, plain)
    for key, (_, text, _) in plain.first.items():
        if key not in traced.first or traced.first[key][1] != text:
            bad.setdefault(key, "traced output is not byte-identical to the untraced output")
    for i, reason in traced.errors.items():
        bad.setdefault(traced.keys[i], f"traced: {reason}")
    report_failures(bad)
    failed = failed_indices(plain, bad) | {len(plain.keys) + i for i in failed_indices(traced, bad)}

    counters, self_s = tr.summary()
    missing = [n for n in workloads.EXPECTED_BOUNDARIES[args.workload] if counters[f"{n}.calls"] == 0]
    if missing:
        raise tracer.CoverageError(f"{args.workload} never entered {missing}; a boundary was renamed or bypassed")
    overhead = sum(traced.scaled) / sum(plain.scaled)
    print(f"checked {len(plain.first)} distinct outputs, {matched} against recorded answers")
    print(f"tracing overhead: traced {len(traced.keys) / sum(traced.scaled):.3f} rps against untraced "
          f"{len(plain.keys) / sum(plain.scaled):.3f} rps at reference host speed (x{overhead:.3f}); "
          f"{len(tr.spans)} spans")
    print("counters " + json.dumps(counters, sort_keys=True))
    print("self_s " + json.dumps({k: round(v, 6) for k, v in self_s.items()}, sort_keys=True))
    values = {**counters, **self_s, "trace.overhead_ratio": overhead}
    attempted = len(plain.keys) + len(traced.keys)
    emit(not failed, attempted, len(failed), values, "per_layer")


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS is that workload's alone."""
    results, code = {}, 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            print(f"{name} exited with {proc.returncode}")
            code = 1
            continue
        results[name] = json.loads(lines[-1])
        code |= 0 if results[name]["correct"] else 1
    print(json.dumps({
        "correct": code == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    print(f"graphck benchmark workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}; closed loop, one client")
    if args.workload == "all":
        return run_all(args)
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        print("environment: " + environment())
        (measure_traced if args.trace else measure)(args, str(workdir))
    except (BenchmarkError, tracer.CoverageError, ImportError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only if no other run is using it
    return 0


if __name__ == "__main__":
    sys.exit(main())
