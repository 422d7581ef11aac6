"""What the benchmark reads from graphck must exist and keep working.

``perfbench/tracer.py`` wraps each ``BOUNDARIES`` entry by module and
attribute path, and a traced run fails on one it cannot find.  The workloads
in ``perfbench/workloads.py`` read further names: Smith transforms, K-theory
result fields, the synthesis request, the lab and scenario functions.  These
tests make a removed or renamed name fail here as well.  They load the
perfbench modules by path; nothing is wrapped.
"""

import importlib
import importlib.util
import json
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from graphck.abelian import IntMatrix, smith_normal_form

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
GRAPHCK_MODULES = ("abelian", "graphs", "ktheory", "synthesis", "lab", "scenarios", "cli")


def load(name, monkeypatch):
    """perfbench/<name>.py as a module, registered under its bare name while the test runs."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # dataclasses and sibling imports look it up
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_resolves(monkeypatch):
    boundaries = load("tracer", monkeypatch).BOUNDARIES
    assert boundaries
    missing = []
    for _, modname, path, _ in boundaries:
        owner = importlib.import_module(f"graphck.{modname}")
        *classes, attr = path.split(".")
        for name in classes:
            owner = vars(owner).get(name)
        if owner is None or attr not in vars(owner):
            missing.append(f"graphck.{modname}.{path}")
    assert not missing


def test_tracer_observes_a_smith_form(monkeypatch):
    tracer = load("tracer", monkeypatch)
    m = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    tr = tracer.Tracer()
    tr._observe_snf(m, smith_normal_form(m))
    sizes = tr.snf_sizes
    assert (sizes["entries"], sizes["nnz"]) == (9, 9)
    assert sizes["max_bits"] >= 1


def graphck_namespace():
    """The ``gk`` namespace the workloads read graphck through."""
    return SimpleNamespace(np=np, **{n: importlib.import_module(f"graphck.{n}") for n in GRAPHCK_MODULES})


def small_requests(workloads, gk, tmp_path):
    """A few small requests per workload, of every kind in ``workloads.KINDS``."""
    Request, sc = workloads.Request, gk.scenarios
    verts, edges = workloads._random_graph(random.Random(3), 8, 2)
    exempt = verts[:2]
    path = tmp_path / "g.json"
    path.write_text(
        json.dumps(
            {
                "vertices": verts,
                "edges": [{"id": e, "from": o, "to": t} for e, o, t in edges],
                "relation_exempt": exempt,
            }
        )
    )
    synth = ((1, 1, (2,)), (0, 1, ()), (2, 1, ()))  # cases i, ii and iii
    return {
        "synth_chains": [workloads._synth_request(r0, r1, t, workloads.GRID_DEPTH) for r0, r1, t in synth],
        "ktheory_big": [
            Request("k:T", "ktheory", gk.graphs.FiniteGraph(verts, edges, exempt), (verts, edges, exempt)),
            Request("k:O", "ktheory", gk.graphs.FiniteGraph(verts, edges), (verts, edges, [])),
        ],
        "les_small": [Request("les", "les", str(path), (verts, edges, exempt))],
        "lab_numeric": [
            Request("s", "lab_straighten", [sc.injected_defect_trial(5, 1e-3)]),
            Request("w", "lab_w", (sc.lemma36_scenario(sc.CANONICAL_W_SCENARIOS[0]), [0.5, 0.9])),
            Request("f", "lab_family", sc.family_scenario(sc.CANONICAL_FAMILY_SCENARIOS[1], seed=1)),
        ],
    }


def test_one_request_of_every_workload_kind_runs_and_checks(monkeypatch, tmp_path):
    load("oracle", monkeypatch)
    workloads = load("workloads", monkeypatch)
    gk = graphck_namespace()
    requests = [r for reqs in small_requests(workloads, gk, tmp_path).values() for r in reqs]
    assert {r.kind for r in requests} == set(workloads.KINDS)
    for req in requests:
        run, answer, check = workloads.KINDS[req.kind]
        text, obj = run(gk, req.payload)
        assert isinstance(text, str) and text
        assert check(gk, req, obj) is None, req.key
        if answer is not None:
            assert answer(obj)


def test_every_expected_boundary_is_entered(monkeypatch, tmp_path):
    # a traced benchmark run fails on an expected boundary it never enters
    tracer = load("tracer", monkeypatch)
    load("oracle", monkeypatch)
    workloads = load("workloads", monkeypatch)
    gk = graphck_namespace()
    per_workload = small_requests(workloads, gk, tmp_path)
    assert set(per_workload) == set(workloads.EXPECTED_BOUNDARIES)
    for workload, requests in per_workload.items():
        tr = tracer.Tracer()
        tr.install()
        try:
            for req in requests:
                workloads.KINDS[req.kind][0](gk, req.payload)
        finally:
            tr.uninstall()
        counters, _ = tr.summary()
        never = [n for n in workloads.EXPECTED_BOUNDARIES[workload] if not counters[f"{n}.calls"]]
        assert not never, workload
