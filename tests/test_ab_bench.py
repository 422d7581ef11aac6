"""The summary of ``scripts/ab_bench.py`` on canned ``perfbench/run.py`` result lines."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ab_bench.py"
SPECS = [
    {"name": "throughput_rps", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
]


def load_script():
    spec = importlib.util.spec_from_file_location("ab_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(rps, p50, correct=True, failed=0):
    """The object of a result line as ``perfbench/run.py`` prints it."""
    metrics = {"throughput_rps": {"value": rps, "unit": "1/s"}, "latency_p50_ms": {"value": p50, "unit": "ms"}}
    return {"correct": correct, "attempted": 100, "failed": failed, "metrics": metrics}


def test_summary_gives_medians_the_parent_spread_and_wins_per_metric():
    module = load_script()
    parent = [result(100, 2.0), result(104, 2.2), result(96, 2.1), result(102, 1.9), result(98, 2.0)]
    change = [result(110, 2.0), result(104, 2.1), result(105, 2.0), result(101, 1.8), result(99, 2.3)]
    lines, ok = module.summary(SPECS, parent, change)
    # parent quartiles (exclusive method): 97 and 103 for throughput, 1.95
    # and 2.15 for p50; throughput ties once, p50 ties once
    assert ok
    assert lines == [
        "throughput_rps   parent 100  change 104 1/s  parent IQR 6  change better in 3/5",
        "latency_p50_ms   parent 2  change 2 ms  parent IQR 0.2  change better in 3/5",
    ]


def test_summary_fails_on_an_incorrect_run_or_a_failed_request():
    module = load_script()
    good = [result(100, 2.0), result(100, 2.0)]
    for bad in (result(100, 2.0, correct=False), result(100, 2.0, failed=1), {"exit": 2}):
        lines, ok = module.summary(SPECS, good, [good[0], bad])
        assert not ok
        assert len(lines) == 1 and lines[0].startswith("pair 2 change: ")
    assert module.summary(SPECS, good[:1], good[1:]) == (
        [
            "throughput_rps   parent 100  change 100 1/s  parent IQR 0  change better in 0/1",
            "latency_p50_ms   parent 2  change 2 ms  parent IQR 0  change better in 0/1",
        ],
        True,
    )
