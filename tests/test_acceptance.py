"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance and runtime bound is pinned here.
"""

import itertools
import random
import time

import numpy as np

from graphck.abelian import IntMatrix, parse_group_expr, smith_normal_form
from graphck.graphs import FiniteGraph
from graphck.ktheory import chain_ktheory_report, ktheory, les_check
from graphck.lab import (
    condition_o_residuals,
    lemma36_w,
    partial_isometry_defect,
    straighten,
    straighten_family,
)
from graphck.scenarios import (
    CANONICAL_FAMILY_SCENARIOS,
    CANONICAL_W_SCENARIOS,
    family_scenario,
    injected_defect_trial,
    lemma36_scenario,
)
from graphck.synthesis import SynthesisRequest, build_case_i, build_case_ii, synthesize

TORSION_POOL = (2, 3, 4, 9)


def _verdict(num, ok, detail, t0, limit):
    elapsed = time.time() - t0
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail} ({elapsed:.2f}s, limit {limit}s)"
    print(line)
    assert ok, line
    assert elapsed < limit, f"criterion {num} exceeded its runtime bound: {elapsed:.2f}s"


def torsion_multisets(max_len=2):
    out = [()]
    for n in TORSION_POOL:
        out.append((n,))
    for pair in itertools.combinations_with_replacement(TORSION_POOL, 2):
        out.append(pair)
    return out


def test_criterion_1_case_i_reproduction():
    t0 = time.time()
    count = 0
    for l in range(0, 4):
        for k in range(0, 3):
            for torsion in itertools.product(TORSION_POOL, repeat=k):
                if l + k == 0:
                    continue
                kt = ktheory(build_case_i(l, torsion))
                expected = parse_group_expr(
                    " + ".join([f"Z^{l}"] * (l > 0) + [f"Z/{n}" for n in torsion]) or "0"
                )
                assert kt.k0.canonical_pair() == expected.canonical_pair(), (l, torsion)
                assert kt.k1.canonical_pair() == (l, ()), (l, torsion)
                count += 1
    _verdict(1, True, f"{count} equal-rank graphs reproduce their K-theory exactly", t0, 5)


def test_criterion_2_p_infinity():
    t0 = time.time()
    res = synthesize(SynthesisRequest(parse_group_expr("0"), parse_group_expr("Z"), depth=6))
    ok = (
        res.case_tag == "ii"
        and res.verification.passed
        and res.verification.stabilized
        and res.verification.k0.is_trivial
        and res.verification.k1.canonical_pair() == (1, ())
    )
    _verdict(2, ok, "the (0, Z) request synthesizes and verifies at depth 6, window 2", t0, 5)


def test_criterion_3_full_synthesis_grid():
    t0 = time.time()
    count = 0
    for r0 in range(0, 4):
        for r1 in range(0, 4):
            for torsion in torsion_multisets():
                if r0 == 0 and r1 == 0 and not torsion:
                    continue
                g0 = parse_group_expr(
                    " + ".join(([f"Z^{r0}"] if r0 else []) + [f"Z/{n}" for n in torsion]) or "0"
                )
                g1 = parse_group_expr(f"Z^{r1}" if r1 else "0")
                res = synthesize(SynthesisRequest(g0, g1, depth=4))
                assert res.verification.passed, (r0, r1, torsion, res.verification.messages)
                assert res.verification.k0.canonical_pair() == g0.canonical_pair()
                assert res.verification.k1.canonical_pair() == g1.canonical_pair()
                count += 1
    _verdict(3, True, f"all {count} grid requests round-trip with verification", t0, 60)


def test_criterion_4_case_ii_per_layer_structure():
    t0 = time.time()
    chain = build_case_ii(3, 1, (), 6)
    rep = chain_ktheory_report(chain, window=2)
    ok = True
    for n in range(0, 5):
        ok = ok and rep.layer_results[n].k1.canonical_pair() == (2, ())
        ok = ok and rep.k0_homs[n].kernel_rank() == 2
    _verdict(4, ok, "layers 0..4 have free rank-2 degree-one groups and kernel rank p+1 = 2", t0, 10)


def test_criterion_5_les_property_suite():
    t0 = time.time()
    rng = random.Random(20240810)
    for trial in range(200):
        nv = rng.randint(1, 6)
        verts = [f"v{i}" for i in range(nv)]
        edges = [
            (f"e{k}", rng.choice(verts), rng.choice(verts))
            for k in range(rng.randint(0, 12))
        ]
        exempt = {v for v in verts if rng.random() < 0.35}
        graph = FiniteGraph(verts, edges, exempt)
        rep = les_check(graph)  # ktheory() inside re-verifies the dual routes
        assert rep.passed, (trial, verts, edges, exempt, rep.checks)
    _verdict(5, True, "200 random graphs pass every exactness node and the dual degree-one routes", t0, 30)


def test_criterion_6_snf_property_suite():
    t0 = time.time()
    rng = random.Random(8128)
    for trial in range(500):
        rows, cols = rng.randint(0, 8), rng.randint(0, 8)
        m = IntMatrix(rows, cols, [rng.randint(-9, 9) for _ in range(rows * cols)])
        smith_normal_form(m).verify(m)
    _verdict(6, True, "500 random matrices satisfy U M V = D, unimodularity, divisibility", t0, 30)


def test_criterion_7_straightening_numerics():
    t0 = time.time()
    medians = []
    for d in (1e-2, 1e-3, 1e-4):
        moves = []
        for seed in range(50):
            trial = injected_defect_trial(seed, d)
            y = straighten(trial.x)
            assert partial_isometry_defect(y) <= 1e-10
            assert np.linalg.norm(trial.left_projection @ y - y, 2) <= 1e-12
            assert np.linalg.norm(y @ trial.right_projection - y, 2) <= 1e-12
            moves.append(float(np.linalg.norm(y - trial.x, 2)))
        moves.sort()
        medians.append(moves[25])
    ok = medians[0] > medians[1] > medians[2]
    _verdict(
        7,
        ok,
        f"150 trials straighten to 1e-10 with medians {', '.join(f'{m:.2e}' for m in medians)}",
        t0,
        10,
    )


def test_criterion_8_interpolation_numerics():
    t0 = time.time()
    ok = True
    for name in CANONICAL_W_SCENARIOS:
        sc = lemma36_scenario(name)
        reports = [
            lemma36_w(sc.a, sc.b, sc.r, t, sc.case, ideal_fiber=sc.ideal_fiber)[1]
            for t in (0.5, 0.9, 0.99)
        ]
        for defect in reports[0].defects:
            vals = [rep.defects[defect] for rep in reports]
            ok = ok and vals[0] > vals[1] > vals[2] and vals[2] <= 1e-1
        for rep in reports:
            for key, val in rep.j_residuals.items():
                if key.startswith("pre:"):
                    ok = ok and val <= 1e-10
    _verdict(8, ok, "every named defect decreases strictly over t = 0.5, 0.9, 0.99 and ends below 1e-1", t0, 10)


def test_criterion_9_family_pipeline():
    t0 = time.time()
    ok = True
    for name in CANONICAL_FAMILY_SCENARIOS:
        sc = family_scenario(name, seed=42)
        out = straighten_family(sc.small, sc.large, sc.infinite_vertices, sc.fields)
        res = condition_o_residuals(sc.large, sc.infinite_vertices, out)
        ok = ok and max(res.values()) <= 1e-10
        for e in sc.small.edges:
            before = b"".join(f.tobytes() for f in sc.fields[e[0]].fibers)
            after = b"".join(f.tobytes() for f in out[e[0]].fibers)
            ok = ok and before == after
        for eid in sc.new_edge_ids:
            ok = ok and (out[eid] - sc.fields[eid]).norm() <= 1e-2
    _verdict(9, ok, "all three family scenarios return exact families with untouched small edges", t0, 10)
