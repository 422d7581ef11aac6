"""Seeded request workloads for the graphck benchmark.

Every workload is a closed loop with one client: each request is one
user-level call (``synthesize``, ``ktheory``, ``graphck les-check FILE`` or a
lab sweep) and the next starts only when the previous one returns.  A
workload builds one *pass*, a fixed list of requests derived from the seed;
the timed loop replays it in whole passes, so every run sees the same mix.
The seed sets the inputs and their order in the pass.  A run makes
``round(seconds / PASS_SECONDS[workload])`` passes, at least one: the work of
a run depends on ``--seconds`` and not on the clock, so a slow spell on the
host lengthens a run instead of shrinking its sample.

Each request's output is reduced to a string.  The first occurrence of every
distinct request is checked in full after the timed part (oracle, recorded
answer, invariants); repeats must reproduce the first output exactly.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass

import oracle

# typical wall time of one pass on the reference host (2 cores, Python 3.11);
# it sets how many passes a run of --seconds makes
PASS_SECONDS = {"synth_chains": 10.5, "ktheory_big": 16.0, "les_small": 9.5, "lab_numeric": 0.55}
TORSION_POOL = (2, 3, 4, 9)
GRID_DEPTH = 4
DEEP_DEPTH = 16
# one deep request per (r0, r1) with r0 != r1: deep cost grows with |r1 - r0|,
# so fixing the ranks and seeding only the torsion keeps the tail comparable
# across seeds
DEEP_RANKS = tuple((r0, r1) for r0 in range(4) for r1 in range(4) if r0 != r1)
# (vertices, out-degree) of the ktheory_big graphs; each graph is one
# Toeplitz and one full-relation request.  The order statistics are placed
# inside groups of like requests, because one graph's cost varies with the
# seed (4% for a 150-vertex sparse graph, up to 20% for a dense one) and a
# statistic in the gap between two groups jumps with it.  Twelve large
# graphs, sparse and dense, give 24 requests of 180-450 ms that carry the big
# Smith forms and most of the time; the tail (11th slowest) is in their
# middle.  Below them, the 24 sparse 150-vertex graphs give 24 Toeplitz
# requests (about 140 ms) over 24 full-relation ones (about 100 ms), so the
# median is in the middle of the Toeplitz group
BIG_GRAPHS = ((200, 3),) * 8 + ((80, 20),) * 4 + ((150, 3),) * 24
BIG_EXEMPT_FRACTION = 0.2
# thousands of distinct graphs, so that the slowest requests come from many
# graphs near the largest size, not from repeats of the seed's one or two
# largest graphs as with 600 graphs in seven passes
LES_GRAPHS = 2100
LES_EXEMPT_PROBABILITY = 0.35
LAB_DEFECTS = (1e-2, 1e-3, 1e-4)
LAB_TRIALS_PER_REQUEST = 10
LAB_BLOCKS = 4
LAB_T_VALUES = 8
LAB_FAMILY_SEEDS = 4
DEFECT_TOL = 1e-10
ONE_SIDED_TOL = 1e-12
NEW_EDGE_DRIFT_TOL = 1e-2


@dataclass
class Request:
    key: str  # stable identity of the input; recorded answers are keyed by it
    kind: str
    payload: object
    expected: object = None  # what the check compares against: the request, or the graph for the oracle


@dataclass
class Pass:
    requests: list
    warmup: list

    def digest(self) -> str:
        return hashlib.sha256("\n".join(r.key for r in self.requests).encode()).hexdigest()[:16]


def _sha(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# synth_chains
# ---------------------------------------------------------------------------


def _torsion_multisets():
    return [()] + [(n,) for n in TORSION_POOL] + list(itertools.combinations_with_replacement(TORSION_POOL, 2))


def _group_text(free: int, torsion) -> str:
    return " + ".join(([f"Z^{free}"] if free else []) + [f"Z/{n}" for n in torsion]) or "0"


def _synth_request(r0, r1, torsion, depth) -> Request:
    expected = (
        oracle.format_group(r0, oracle.invariant_factors(torsion)),
        oracle.format_group(r1, ()),
    )
    key = f"synth:{r0}:{r1}:{','.join(map(str, torsion))}:{depth}"
    return Request(key, "synth", (_group_text(r0, torsion), _group_text(r1, ()), depth), expected)


def build_synth_chains(gk, seed: int, workdir: str) -> Pass:
    rng = random.Random(f"synth_chains:{seed}")
    multisets = _torsion_multisets()
    grid = [
        _synth_request(r0, r1, t, GRID_DEPTH)
        for r0 in range(4)
        for r1 in range(4)
        for t in multisets
        if (r0, r1, t) != (0, 0, ())
    ]
    requests = grid + [_synth_request(r0, r1, rng.choice(multisets), DEEP_DEPTH) for r0, r1 in DEEP_RANKS]
    rng.shuffle(requests)
    return Pass(requests, warmup=[_synth_request(1, 1, (), GRID_DEPTH), _synth_request(0, 1, (), GRID_DEPTH)])


def synth_deep_universe() -> list:
    """Every deep request a seed can draw."""
    return [_synth_request(r0, r1, t, DEEP_DEPTH) for r0, r1 in DEEP_RANKS for t in _torsion_multisets()]


def run_synth(gk, payload) -> tuple[str, object]:
    k0, k1, depth = payload
    req = gk.synthesis.SynthesisRequest(gk.abelian.parse_group_expr(k0), gk.abelian.parse_group_expr(k1), depth=depth)
    d = gk.synthesis.synthesize(req).to_json_dict()
    return json.dumps(d, sort_keys=True), d


def synth_answer(d) -> str:
    return f"{d['case']}|{d['k0']}|{d['k1']}|{d['verified']}"


def check_synth(gk, req: Request, d) -> str | None:
    if not d["verified"]:
        return f"synthesis verification failed: {d.get('messages')}"
    if (d["k0"], d["k1"]) != req.expected:
        return f"verified groups {(d['k0'], d['k1'])} differ from the request {req.expected}"
    return None


# ---------------------------------------------------------------------------
# ktheory_big
# ---------------------------------------------------------------------------


def _random_graph(rng: random.Random, n: int, outdeg: int):
    verts = [f"v{i:03d}" for i in range(n)]
    edges = [(f"e{i * outdeg + k:04d}", verts[i], rng.choice(verts)) for i in range(n) for k in range(outdeg)]
    return verts, edges


def build_ktheory_big(gk, seed: int, workdir: str) -> Pass:
    rng = random.Random(f"ktheory_big:{seed}")
    requests = []
    for n, outdeg in BIG_GRAPHS:
        verts, edges = _random_graph(rng, n, outdeg)
        exempt = sorted(rng.sample(verts, round(BIG_EXEMPT_FRACTION * n)))
        base = _sha(json.dumps([verts, edges]))
        for tag, ex in (("T", exempt), ("O", [])):
            graph = gk.graphs.FiniteGraph(verts, edges, ex)
            requests.append(Request(f"ktheory:{base}:{tag}", "ktheory", graph, (verts, edges, ex)))
    rng.shuffle(requests)
    small = gk.graphs.FiniteGraph(*_random_graph(random.Random(0), 8, 2))
    return Pass(requests, warmup=[Request("ktheory:warmup", "ktheory", small)])


def run_ktheory(gk, graph) -> tuple[str, object]:
    kt = gk.ktheory.ktheory(graph)
    pairs = (kt.k0.canonical_pair(), kt.k1.canonical_pair())
    classes = [kt.k0_class_of_vertex[v] for v in kt.vertex_order]
    return repr((pairs, classes, kt.k1_lattice.entries)), pairs


def ktheory_answer(pairs) -> str:
    return "|".join(oracle.format_group(*p) for p in pairs)


def check_ktheory(gk, req: Request, pairs) -> str | None:
    (k0_free, k0_torsion), (k1_free, k1_torsion) = pairs
    verts, edges, exempt = req.expected
    if k0_free - k1_free != len(exempt):
        return f"rank K0 - rank K1 = {k0_free - k1_free}, expected the exempt count {len(exempt)}"
    want = oracle.ktheory_answer(verts, edges, set(exempt))
    got = (k0_free, tuple(k0_torsion), k1_free)
    if got != want or k1_torsion:
        return f"K-groups {got} differ from the reference {want}"
    return None


# ---------------------------------------------------------------------------
# les_small
# ---------------------------------------------------------------------------


def build_les_small(gk, seed: int, workdir: str) -> Pass:
    rng = random.Random(f"les_small:{seed}")
    requests = []
    for i in range(LES_GRAPHS):
        n = rng.randint(1, 16)
        verts = [f"v{j}" for j in range(n)]
        edges = [(f"e{k}", rng.choice(verts), rng.choice(verts)) for k in range(rng.randint(0, 3 * n))]
        exempt = [v for v in verts if rng.random() < LES_EXEMPT_PROBABILITY]
        text = json.dumps(
            {
                "vertices": verts,
                "edges": [{"id": e, "from": o, "to": t} for e, o, t in edges],
                "relation_exempt": exempt,
            }
        )
        path = f"{workdir}/g{i:04d}.json"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        requests.append(Request(f"les:{_sha(text)}", "les", path, (verts, edges, exempt)))
    return Pass(requests, warmup=requests[:5])


def run_les(gk, path) -> tuple[str, object]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gk.cli.main(["les-check", path])
    d = {"exit": code, "verdict": json.loads(out.getvalue())}
    return json.dumps(d, sort_keys=True), d


def les_answer(d) -> str:
    terms = d["verdict"]["terms"]
    return "|".join([str(d["exit"]), str(d["verdict"]["passed"])] + [terms[k] for k in sorted(terms)])


def check_les(gk, req: Request, d) -> str | None:
    verdict = d["verdict"]
    if d["exit"] != 0 or not verdict["passed"] or not all(verdict["nodes"].values()):
        return f"les-check failed: exit {d['exit']}, nodes {verdict['nodes']}"
    want = oracle.les_terms(*req.expected)
    if verdict["terms"] != want:
        return f"terms {verdict['terms']} differ from the reference {want}"
    return None


# ---------------------------------------------------------------------------
# lab_numeric
# ---------------------------------------------------------------------------


def _array_sha(arrays) -> str:
    h = hashlib.sha1()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def build_lab_numeric(gk, seed: int, workdir: str) -> Pass:
    sc = gk.scenarios
    rng = random.Random(f"lab_numeric:{seed}")
    straighten = []
    for d in LAB_DEFECTS:
        for _ in range(LAB_BLOCKS):
            trials = [sc.injected_defect_trial(rng.randrange(2**31), d) for _ in range(LAB_TRIALS_PER_REQUEST)]
            key = f"lab:straighten:{d:g}:{_array_sha(t.x for t in trials)}"
            straighten.append(Request(key, "lab_straighten", trials))
    ts = sorted(round(rng.uniform(0.5, 0.995), 6) for _ in range(LAB_T_VALUES))
    w = [Request(f"lab:w:{name}:{ts}", "lab_w", (sc.lemma36_scenario(name), ts)) for name in sc.CANONICAL_W_SCENARIOS]
    family = []
    for name in sc.CANONICAL_FAMILY_SCENARIOS:
        for _ in range(LAB_FAMILY_SEEDS):
            fseed = rng.randrange(2**31)
            family.append(Request(f"lab:family:{name}:{fseed}", "lab_family", sc.family_scenario(name, seed=fseed)))
    requests = straighten + w + family
    rng.shuffle(requests)
    return Pass(requests, warmup=[straighten[0], w[0], family[0]])


def run_lab_straighten(gk, trials):
    ys = [gk.lab.straighten(t.x) for t in trials]
    return _array_sha(ys), ys


def run_lab_w(gk, payload):
    scenario, ts = payload
    texts, reports = [], []
    for t in ts:
        w, rep = gk.lab.lemma36_w(scenario.a, scenario.b, scenario.r, t, scenario.case, ideal_fiber=scenario.ideal_fiber)
        texts.append(_array_sha(w.fibers) + repr((sorted(rep.defects.items()), sorted(rep.j_residuals.items()))))
        reports.append(rep)
    return "\n".join(texts), reports


def run_lab_family(gk, scenario):
    fields = gk.lab.straighten_family(scenario.small, scenario.large, scenario.infinite_vertices, scenario.fields)
    residuals = gk.lab.condition_o_residuals(scenario.large, scenario.infinite_vertices, fields)
    text = _array_sha(f for e in sorted(fields) for f in fields[e].fibers) + repr(sorted(residuals.items()))
    return text, (fields, residuals)


def check_lab(gk, req: Request, obj) -> str | None:
    np = gk.np
    if req.kind == "lab_straighten":
        for trial, y in zip(req.payload, obj):
            defect = gk.lab.partial_isometry_defect(y)
            if defect > DEFECT_TOL:
                return f"straightened defect {defect:.3e} above {DEFECT_TOL}"
            sided = max(
                np.linalg.norm(trial.left_projection @ y - y, 2), np.linalg.norm(y @ trial.right_projection - y, 2)
            )
            if sided > ONE_SIDED_TOL:
                return f"one-sided relation residual {sided:.3e} above {ONE_SIDED_TOL}"
        return None
    if req.kind == "lab_w":
        bad = {k: v for rep in obj for k, v in rep.j_residuals.items() if k.startswith("pre:") and v > DEFECT_TOL}
        return f"ideal residuals above {DEFECT_TOL}: {bad}" if bad else None
    scenario = req.payload
    fields, residuals = obj
    if max(residuals.values()) > DEFECT_TOL:
        return f"family residual {max(residuals.values()):.3e} above {DEFECT_TOL}"
    for e in scenario.small.edges:
        if any((a != b).any() for a, b in zip(fields[e[0]].fibers, scenario.fields[e[0]].fibers)):
            return f"small-graph edge {e[0]} was modified"
    for eid in scenario.new_edge_ids:
        drift = (fields[eid] - scenario.fields[eid]).norm()
        if drift > NEW_EDGE_DRIFT_TOL:
            return f"new edge {eid} drifted {drift:.3e}"
    return None


# kind -> (run(gk, payload) -> (exact output text, checked object),
#          recorded-answer string or None, check(gk, request, object) -> error or None)
KINDS = {
    "synth": (run_synth, synth_answer, check_synth),
    "ktheory": (run_ktheory, ktheory_answer, check_ktheory),
    "les": (run_les, les_answer, check_les),
    "lab_straighten": (run_lab_straighten, None, check_lab),
    "lab_w": (run_lab_w, None, check_lab),
    "lab_family": (run_lab_family, None, check_lab),
}

WORKLOADS = {
    "synth_chains": build_synth_chains,
    "ktheory_big": build_ktheory_big,
    "les_small": build_les_small,
    "lab_numeric": build_lab_numeric,
}

# boundaries a workload must enter; a zero count on one of them fails the
# traced run, so a rename in graphck shows as an error rather than a zero
EXPECTED_BOUNDARIES = {
    "synth_chains": (
        "abelian.smith_normal_form", "abelian.ColumnLattice", "abelian.kernel_basis", "abelian.cokernel",
        "abelian.GroupHom", "abelian.hom_compose", "abelian.colimit_chain_detailed", "abelian.IntMatrix.mat_vec",
        "abelian.IntMatrix.__matmul__", "ktheory.ktheory", "ktheory.chain_ktheory_report", "ktheory.inclusion_k0",
        "ktheory.relation_matrix", "graphs.check_condition_a", "graphs.check_condition_b2",
        "graphs.GraphChain.layer_graph", "synthesis.build_case_i", "synthesis.build_case_ii",
        "synthesis.build_case_iii", "synthesis.synthesize",
    ),
    "ktheory_big": (
        "abelian.smith_normal_form", "abelian.ColumnLattice", "abelian.kernel_basis", "abelian.cokernel",
        "ktheory.ktheory", "ktheory.relation_matrix",
    ),
    "les_small": (
        "abelian.smith_normal_form", "abelian.ColumnLattice", "abelian.kernel_basis", "abelian.cokernel",
        "ktheory.ktheory", "ktheory.les_check", "ktheory.relation_matrix", "graphs.load_graph", "cli.main",
    ),
    "lab_numeric": ("lab.straighten", "lab.lemma36_w", "lab.straighten_family", "lab.condition_o_residuals"),
}
