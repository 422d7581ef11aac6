"""Graph structure and condition-checker tests.

The exit-condition checker is validated against a brute-force enumeration of
vertex-simple directed cycles on every random graph with at most six
vertices, which is the stated oracle for that operation.
"""

import json
import random
from collections import Counter

import pytest

from graphck.abelian import parse_group_pair
from graphck.graphs import (
    FiniteGraph,
    GraphChain,
    GraphFormatError,
    Verdict,
    check_condition_a,
    check_condition_b2,
    dump_graph,
    every_cycle_has_exit,
    graph_from_json_dict,
    is_cycle,
    is_irreducible,
)
from graphck.ktheory import chain_ktheory_report
from graphck.synthesis import build_case_ii, build_case_iii
from helpers import toeplitz_s_set


def G(vertices, edges, exempt=()):
    return FiniteGraph(vertices, [(f"e{k}", o, t) for k, (o, t) in enumerate(edges)], exempt)


# ---------------------------------------------------------------------------
# Brute-force oracle: enumerate vertex-simple cycles
# ---------------------------------------------------------------------------


def simple_cycles(graph):
    """All vertex-simple directed cycles, as vertex tuples (smallest first)."""
    verts = graph.vertex_list
    succ = {v: sorted({e[2] for e in graph.out_edges(v)}) for v in verts}
    seen = set()

    def walk(start, path, on_path):
        for w in succ[path[-1]]:
            if w == start:
                cyc = tuple(path)
                k = cyc.index(min(cyc))
                seen.add(cyc[k:] + cyc[:k])
            elif w > start and w not in on_path:
                walk(start, path + [w], on_path | {w})

    for v in verts:
        walk(v, [v], {v})
    return seen


def exit_oracle(graph):
    return all(
        any(graph.out_degree(v) >= 2 for v in cyc) for cyc in simple_cycles(graph)
    )


def random_graph(rng, max_vertices=6, max_edges=12):
    nv = rng.randint(1, max_vertices)
    verts = [f"v{i}" for i in range(nv)]
    edges = [(rng.choice(verts), rng.choice(verts)) for _ in range(rng.randint(0, max_edges))]
    return G(verts, edges)


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


def test_single_loop_is_irreducible_cycle():
    g = G({"v"}, [("v", "v")])
    assert is_irreducible(g)
    assert is_cycle(g)
    assert not every_cycle_has_exit(g)


def test_two_loops():
    g = G({"v"}, [("v", "v"), ("v", "v")])
    assert is_irreducible(g)
    assert not is_cycle(g)
    assert every_cycle_has_exit(g)


def test_one_way_edge_not_irreducible():
    assert not is_irreducible(G({"u", "v"}, [("u", "v")]))


def test_three_cycle():
    g = G({"a", "b", "c"}, [("a", "b"), ("b", "c"), ("c", "a")])
    assert is_cycle(g)
    assert is_irreducible(g)
    assert not every_cycle_has_exit(g)


def test_irreducible_empty_graph_raises():
    with pytest.raises(ValueError):
        is_irreducible(FiniteGraph(set(), []))


def test_case_graphs_are_irreducible_non_cycles():
    from graphck.synthesis import build_case_i

    for l, torsion in [(1, ()), (3, ()), (0, (2,)), (2, (2, 4))]:
        g = build_case_i(l, torsion)
        assert is_irreducible(g)
        assert not is_cycle(g)
        assert every_cycle_has_exit(g)


def test_exit_condition_against_enumeration():
    rng = random.Random(2024)
    for _ in range(300):
        g = random_graph(rng)
        assert every_cycle_has_exit(g) == exit_oracle(g)


def test_cycle_implies_irreducible_and_exit_property():
    rng = random.Random(77)
    for _ in range(300):
        g = random_graph(rng)
        if is_cycle(g):
            assert is_irreducible(g)
        if is_irreducible(g) and not is_cycle(g):
            assert every_cycle_has_exit(g)


def reach_all_pairs(graph):
    """Oracle: is every vertex reachable from every vertex?  A fixpoint of the
    reachability relation over all ordered pairs, closed under edges."""
    verts = graph.vertex_list
    reach = {(v, v) for v in verts}
    changed = True
    while changed:
        changed = False
        for _, o, t in graph.edges:
            for v in verts:
                if (v, o) in reach and (v, t) not in reach:
                    reach.add((v, t))
                    changed = True
    return bool(verts) and len(reach) == len(verts) ** 2


def test_strong_connectivity_against_all_pairs_reachability():
    # random graphs with loops, parallel edges, single vertices and isolated
    # vertices, then every layer of synthesized chains
    rng = random.Random(11)
    graphs = [random_graph(rng, max_vertices=7, max_edges=rng.choice((3, 8, 16))) for _ in range(600)]
    graphs += [G({"v"}, []), G({"v"}, [("v", "v")]), G({"u", "v"}, [("u", "u")]), G({"u", "v"}, [("u", "v")] * 2)]
    graphs += [G({"a", "b", "c"}, [("a", "b"), ("b", "a"), ("b", "a")])]
    chains = [build_case_ii(2, 1, (), 5), build_case_iii(2, 1, (3,), 5), build_case_ii(3, 2, (2,), 4)]
    graphs += [chain.layer_graph(n) for chain in chains for n in range(len(chain))]
    assert sum(map(reach_all_pairs, graphs)) not in (0, len(graphs))
    for g in graphs:
        assert is_irreducible(g) == reach_all_pairs(g), (g.vertex_list, g.edges)
    assert not is_cycle(FiniteGraph(set(), []))


# ---------------------------------------------------------------------------
# Chains: S sets and conditions
# ---------------------------------------------------------------------------


def chain_with_full_layers():
    # u is infinite-valence: every non-u vertex keeps its out-edges in layer 0
    edges = [
        ("g", "v", "u"),
        ("lv", "v", "v"),
        ("h1", "u", "v"),
        ("h2", "u", "w"),
        ("lw", "w", "w"),
        ("back", "w", "v"),
    ]
    return GraphChain({"u"}, [["u", "v", "w"], ["u", "v", "w", "x"]], edges + [("hx", "u", "x"), ("xb", "x", "v"), ("lx", "x", "x")])


def test_s_set_excludes_infinite_valence():
    chain = chain_with_full_layers()
    assert toeplitz_s_set(chain, 0) == {"v", "w"}
    assert toeplitz_s_set(chain, 1) == {"v", "w", "x"}


def test_s_set_excludes_escaping_vertex():
    # w sends an edge into layer 1 only: the definition drops it from S_0
    edges = [
        ("g", "v", "u"),
        ("lv", "v", "v"),
        ("h1", "u", "v"),
        ("lw", "w", "w"),
        ("back", "w", "v"),
        ("escape", "w", "x"),
        ("hx", "u", "x"),
        ("xb", "x", "v"),
        ("lx", "x", "x"),
    ]
    chain = GraphChain({"u"}, [["u", "v", "w"], ["u", "v", "w", "x"]], edges)
    assert toeplitz_s_set(chain, 0) == {"v"}
    # oracle: scan edges with origin in layer 0 and terminus outside
    layer0 = chain.layers[0]
    escaping = {o for _, o, t in chain.edges if o in layer0 and t not in layer0}
    assert toeplitz_s_set(chain, 0) == layer0 - escaping - {"u"}


def test_synthesized_chains_satisfy_conditions():
    for chain in (build_case_ii(2, 1, (), 5), build_case_iii(2, 1, (3,), 5)):
        report = check_condition_a(chain)
        assert report.passed, report.witnesses


def test_condition_a1_violation_reported():
    chain = GraphChain(
        {"u"},
        [["v"], ["u", "v"]],
        [("lv", "v", "v"), ("g", "u", "v"), ("h", "v", "u")],
    )
    report = check_condition_a(chain)
    assert not report.checks["a1"]
    assert "u" in report.witnesses["a1"]


def test_condition_a2_empty_layer_is_a_witness():
    chain = GraphChain([], [[], ["a"], ["a"]], [("l1", "a", "a"), ("l2", "a", "a")])
    report = check_condition_a(chain)
    assert report.checks == {"a1": True, "a2": False, "a3": True, "a4": True, "a5": True, "a6": True}
    assert report.witnesses == {"a2": "layer 0 is empty"}


def test_prefix_keeps_induced_edges_and_its_infinite_vertices():
    chain = GraphChain(
        {"u"},
        [["v"], ["u", "v"]],
        [("lv", "v", "v"), ("g", "u", "v"), ("h", "v", "u")],
    )
    first = chain.prefix(1)
    assert (first.infinite_vertices, first.layers, first.edges) == (
        frozenset(),
        (frozenset({"v"}),),
        (("lv", "v", "v"),),
    )
    assert chain.prefix(2) == chain
    for n in (0, len(chain) + 1):
        with pytest.raises(ValueError, match="out of range"):
            chain.prefix(n)
    # a prefix of random length of each random and grown chain reads like the
    # chain rebuilt from its layers and induced edges, also where an edge of a
    # finite-valence vertex leaves the prefix (the chain fails (a4))
    rng = random.Random(33)
    for chain in random_and_grown_chains():
        n = rng.randint(1, len(chain))
        layer = chain.layers[n - 1]
        induced = [e for e in chain.edges if e[1] in layer and e[2] in layer]
        prefix, rebuilt = chain.prefix(n), GraphChain(chain.infinite_vertices & layer, chain.layers[:n], induced)
        assert prefix == rebuilt and hash(prefix) == hash(rebuilt)
        for k in range(n):
            assert toeplitz_s_set(prefix, k) == toeplitz_s_set(rebuilt, k)
            assert prefix.layer_graph(k) == rebuilt.layer_graph(k)


def test_condition_a6_violation_when_emission_stops():
    base = build_case_ii(2, 1, (), 6)
    # drop every edge from u into the vertices new at layer 3 (towers j = 4)
    new3 = base.layers[3] - base.layers[2]
    pruned = [e for e in base.edges if not (e[1] == "u" and e[2] in new3)]
    chain = GraphChain({"u"}, base.layers, pruned)
    report = check_condition_a(chain)
    assert not report.checks["a6"]
    assert "u" in report.witnesses["a6"]
    # oracle: a definition scan of the dropped layer
    assert not any(o == "u" and t in new3 for _, o, t in pruned)


def test_condition_a4_violation():
    # finite-valence vertex w with an out-edge leaving layer 0
    edges = [
        ("g", "v", "u"),
        ("lv", "v", "v"),
        ("h1", "u", "v"),
        ("lw", "w", "w"),
        ("back", "w", "v"),
        ("escape", "w", "x"),
        ("hx", "u", "x"),
        ("xb", "x", "v"),
        ("lx", "x", "x"),
    ]
    chain = GraphChain({"u"}, [["u", "v", "w"], ["u", "v", "w", "x"]], edges)
    report = check_condition_a(chain)
    assert not report.checks["a4"]
    assert "escape" in report.witnesses["a4"]


def per_layer_edge_conditions(chain):
    """(a4)-(a6) by their definitions: one scan of the edges per layer."""
    d = chain.infinite_vertices
    # the new part of layer n: the vertices first appearing in it
    new = [chain.layers[0]] + [b - a for a, b in zip(chain.layers, chain.layers[1:])]
    verdicts, witnesses = {}, {}

    def first_failure(scans):
        for witness in scans:
            if witness:
                return witness
        return ""

    a4 = first_failure(
        f"edge {eid!r} leaves layer {n} from finite-valence vertex {o!r}"
        for n, layer in enumerate(chain.layers)
        for eid, o, t in chain.edges
        if o in layer and o not in d and t not in layer
    )
    a5 = first_failure(
        f"edge {eid!r} enters layer {n} from outside layer {n + 1}"
        for n in range(len(chain) - 1)
        for eid, o, t in chain.edges
        if t in chain.layers[n] and o not in chain.layers[n + 1]
    )
    a6 = first_failure(
        f"vertex {u!r} emits no edge into the new part of layer {n}"
        for n in range(len(chain))
        for u in sorted(d)
        if not any(o == u and t in new[n] for _, o, t in chain.edges)
    )
    for name, witness in (("a4", a4), ("a5", a5), ("a6", a6)):
        verdicts[name] = not witness
        if witness:
            witnesses[name] = witness
    return verdicts, witnesses


def random_chain(rng):
    verts = [f"v{j}" for j in range(rng.randint(1, 9))]
    rng.shuffle(verts)
    sizes = sorted(rng.randint(1, len(verts)) for _ in range(rng.randint(1, 6)))
    top = verts[: sizes[-1]]
    edges = [(f"e{k:02d}", rng.choice(top), rng.choice(top)) for k in range(rng.randint(0, 4 * len(top)))]
    return GraphChain([v for v in top if rng.random() < 0.25], [verts[:s] for s in sizes], edges)


def test_edge_conditions_match_per_layer_scans():
    rng = random.Random(20)
    chains = [random_chain(rng) for _ in range(1500)]
    chains += [build_case_ii(2, 1, (), 6), build_case_iii(2, 1, (3,), 5), build_case_iii(3, 2, (2,), 7)]
    seen = set()
    for chain in chains:
        report = check_condition_a(chain)
        verdicts, witnesses = per_layer_edge_conditions(chain)
        assert {k: report.checks[k] for k in verdicts} == verdicts
        assert {k: v for k, v in report.witnesses.items() if k in verdicts} == witnesses
        seen.update(verdicts.items())
    # the sample holds passing and failing chains for every condition
    assert seen == {(k, ok) for k in ("a4", "a5", "a6") for ok in (True, False)}


def per_layer_condition_a(chain):
    """(a1)-(a6) by their definitions, (a2) on each layer's own graph built
    from its vertex set."""
    report = Verdict()
    missing = sorted(chain.infinite_vertices - chain.layers[0])
    report.record("a1", f"infinite-valence vertex {missing[0]!r} not in layer 0" if missing else None)
    witness = None
    for n, layer in enumerate(chain.layers):
        g = FiniteGraph(layer, [e for e in chain.edges if e[1] in layer and e[2] in layer])
        if not layer:
            witness = f"layer {n} is empty"
        elif not is_irreducible(g):
            witness = f"layer {n} is not strongly connected"
        elif is_cycle(g):
            witness = f"layer {n} is a cycle"
        if witness:
            break
    report.record("a2", witness)
    report.record("a3")
    _, witnesses = per_layer_edge_conditions(chain)
    for name in ("a4", "a5", "a6"):
        report.record(name, witnesses.get(name))
    return report


def grown_chain(rng):
    """A chain whose layer 0 is empty or a directed cycle, sometimes with
    chords, and whose later layers add vertices that mostly get an edge from
    and an edge to the layer so far: every (a2) outcome occurs."""
    verts = [f"x{j}" for j in range(16)]
    rng.shuffle(verts)
    edges = []

    def add(o, t):
        edges.append((f"e{len(edges):02d}", o, t))

    size = rng.choice((0, 1, 1, 2, 3, 4))
    for j in range(size):
        add(verts[j], verts[(j + 1) % size])
    for _ in range(rng.choice((0, 0, 1, 2)) if size else 0):
        add(rng.choice(verts[:size]), rng.choice(verts[:size]))
    sizes = [size]
    for _ in range(rng.randint(1, 4)):
        size += rng.randint(0, 3)
        for w in verts[sizes[-1] : size]:
            if rng.random() < 0.9:
                add(rng.choice(verts[:size]), w)
            if rng.random() < 0.9:
                add(w, rng.choice(verts[:size]))
        sizes.append(size)
    if rng.random() < 0.3 and size:
        add(rng.choice(verts[:size]), rng.choice(verts[:size]))
    return GraphChain([v for v in verts[:size] if rng.random() < 0.15], [verts[:k] for k in sizes], edges)


def synth_grid_chains():
    """The chains of the synth_chains benchmark grid: every pair of unequal
    ranks 0-3 with every torsion part of at most two orders from (2, 3, 4, 9),
    built at depth 6 and emitted at depth 4, as ``synthesize`` does."""
    pool = (2, 3, 4, 9)
    torsions = [()] + [(n,) for n in pool] + [(a, b) for i, a in enumerate(pool) for b in pool[i:]]
    for r0 in range(4):
        for r1 in range(4):
            for torsion in torsions if r0 != r1 else ():
                _, t = parse_group_pair(" + ".join(f"Z/{n}" for n in torsion) or "0")
                padded = build_case_ii(r1 + 1, r1 - r0, t, 6) if r0 < r1 else build_case_iii(r0, r0 - r1, t, 6)
                yield from (padded, padded.prefix(4))


def random_and_grown_chains():
    rng = random.Random(26)
    return [random_chain(rng) for _ in range(1500)] + [grown_chain(rng) for _ in range(1500)]


def deep_chains():
    """Case ii and iii chains of depth 16 to 34."""
    return [
        chain
        for depth in (16, 17, 25, 34)
        for chain in (build_case_ii(3, 1, (2,), depth), build_case_iii(3, 1, (2,), depth), build_case_ii(4, 2, (), depth))
    ]


def test_condition_a_matches_per_layer_graphs():
    # the verdict, each layer's S set and each layer graph equal their
    # per-layer definitions on random, synthesized grid and deep chains
    chains = random_and_grown_chains()
    outcomes = Counter()
    for chain in chains:
        a2 = check_condition_a(chain).witnesses.get("a2")
        outcomes[a2 and a2.split(" ", 2)[2]] += 1
    # every (a2) outcome, passing (None) included, occurs often among them
    assert min(outcomes.values()) >= 50 and len(outcomes) == 4, outcomes
    chains += [*synth_grid_chains(), *deep_chains()]
    for chain in chains:
        report, ref = check_condition_a(chain), per_layer_condition_a(chain)
        assert (list(report.checks.items()), report.witnesses) == (list(ref.checks.items()), ref.witnesses)
        for n, layer in enumerate(chain.layers):
            escaping = {o for _, o, t in chain.edges if o in layer and t not in layer}
            s = layer - chain.infinite_vertices - escaping
            assert toeplitz_s_set(chain, n) == s
            induced = [e for e in chain.edges if e[1] in layer and e[2] in layer]
            assert chain.layer_graph(n) == FiniteGraph(layer, induced, layer - s)


def assert_same_layer_graph(g, ref):
    assert (g.vertices, g.edges, g.relation_exempt) == (ref.vertices, ref.edges, ref.relation_exempt)
    assert (g.vertex_list, g.s_vertices, g.vertex_index) == (ref.vertex_list, ref.s_vertices, ref.vertex_index)
    out = [g.out_edges(v) for v in ref.vertex_list]
    assert out == [ref.out_edges(v) for v in ref.vertex_list]
    assert [g.in_edges(v) for v in ref.vertex_list] == [ref.in_edges(v) for v in ref.vertex_list]
    assert all(list(es) == sorted(es) for es in out)


def test_layer_graphs_from_extend_layer_on_layer_to_each_layer_graph():
    # the chain's groups are the differences of consecutive layers and of
    # their induced edge lists; from every first layer, each graph built on
    # the one before equals the layer graph built by the public constructor
    # from the per-layer definition, and holds its out-edges sorted, which
    # inclusion_k0's tuple comparison of out-edges rests on
    chains = [*random_and_grown_chains(), *synth_grid_chains(), *deep_chains()]
    extended = 0
    for chain in chains:
        refs, below, induced_below = [], frozenset(), set()
        for n, layer in enumerate(chain.layers):
            induced = [e for e in chain.edges if e[1] in layer and e[2] in layer]
            escaping = {o for _, o, t in chain.edges if o in layer and t not in layer}
            s = layer - chain.infinite_vertices - escaping
            refs.append(FiniteGraph(layer, induced, layer - s))
            added = chain._added_vertices[n]
            assert len(added) == len(set(added)) and set(added) == layer - below
            assert chain._added_edges[n] == [e for e in induced if e not in induced_below]
            below, induced_below = layer, set(induced)
        for first in range(len(chain)):
            graphs = chain.layer_graphs_from(first)
            assert len(graphs) == len(chain) - first
            for g, ref in zip(graphs, refs[first:]):
                assert_same_layer_graph(g, ref)
            extended += len(graphs) - 1
    assert extended > 10_000


def test_out_edges_are_sorted_however_a_graph_is_built():
    rng = random.Random(28)
    for _ in range(300):
        g = random_graph(rng, max_vertices=8, max_edges=20)
        # edge ids listed out of order, and out of order within each origin
        shuffled = list(g.edges)
        rng.shuffle(shuffled)
        checked = FiniteGraph(g.vertex_list, shuffled, g.relation_exempt)
        for built in (checked, FiniteGraph._grown(g, (), (), g.relation_exempt)):
            for v in built.vertex_list:
                assert list(built.out_edges(v)) == sorted(built.out_edges(v))
                assert list(built.in_edges(v)) == sorted(built.in_edges(v))
        # the full-relation twin that les_check and the CLI build
        assert_same_layer_graph(FiniteGraph._grown(g, (), (), frozenset()), FiniteGraph(g.vertex_list, g.edges))


# ---------------------------------------------------------------------------
# Out-star matching (b2)
# ---------------------------------------------------------------------------


def test_b2_matches_with_equal_classes():
    # x (outside layer 0) has the same out-star as w when classes agree
    edges = [
        ("g", "v", "u"),
        ("lv", "v", "v"),
        ("h1", "u", "v"),
        ("h2", "u", "w"),
        ("lw", "w", "w"),
        ("back", "w", "v"),
        ("hx", "u", "x"),
        ("lx", "x", "x"),
        ("xback", "x", "v"),
    ]
    chain = GraphChain({"u"}, [["u", "v", "w"], ["u", "v", "w", "x"]], edges)
    classes = {"u": (0,), "v": (1,), "w": (2,), "x": (2,)}
    report = check_condition_b2(chain, classes)
    assert report.passed
    assert report.matches["x"] == "w"


def test_b2_degree_obstruction_fails():
    edges = [
        ("g", "v", "u"),
        ("lv", "v", "v"),
        ("h1", "u", "v"),
        ("h2", "u", "w"),
        ("lw", "w", "w"),
        ("back", "w", "v"),
        ("hx", "u", "x"),
        ("lx", "x", "x"),
        ("xb1", "x", "v"),
        ("xb2", "x", "w"),  # out-degree 3: no layer-0 vertex matches
    ]
    chain = GraphChain({"u"}, [["u", "v", "w"], ["u", "v", "w", "x"]], edges)
    classes = {v: (0,) for v in "uvwx"}
    report = check_condition_b2(chain, classes)
    assert not report.passed
    assert "x" in report.failures


def test_b2_missing_classes_are_unchecked():
    chain = chain_with_full_layers()
    report = check_condition_b2(chain, {"u": (0,), "v": (0,), "w": (0,)})
    assert report.unchecked == ["x"]
    assert report.passed  # unchecked is not failure


def per_vertex_b2(chain, classes):
    """(b2) by its definition: every out-star read from a scan of all edges."""
    d = chain.infinite_vertices

    def shape(u):
        counts = {}
        for _, o, t in chain.edges:
            if o == u:
                counts[t] = counts.get(t, 0) + 1
        if any(t not in classes for t in counts):
            return None
        return sorted((c, t == u, tuple(classes[t])) for t, c in counts.items())

    candidates = sorted(chain.layers[0] - d)
    matches, failures, unchecked = {}, {}, []
    for u in sorted(chain.vertices - chain.layers[0] - d):
        want = shape(u)
        if want is None:
            unchecked.append(u)
            continue
        found = next((v for v in candidates if shape(v) is not None and shape(v) == want), None)
        if found is None:
            failures[u] = "no layer-0 vertex with an isomorphic out-star"
        else:
            matches[u] = found
    return {"passed": not failures, "matches": matches, "failures": failures, "unchecked": unchecked}


def test_b2_matches_a_per_vertex_scan():
    rng = random.Random(41)
    cases = []
    for chain in (build_case_ii(2, 1, (), 6), build_case_ii(3, 1, (2,), 6), build_case_iii(2, 1, (3,), 6)):
        classes = chain_ktheory_report(chain, window=2).k0_class_map
        cases.append((chain, classes))
        # a class map that misses a vertex, and one that moves a class
        cases.append((chain, {v: c for v, c in classes.items() if v != min(classes)}))
        cases.append((chain, {**classes, max(classes): (7,) * len(classes[max(classes)])}))
    for _ in range(600):
        chain = random_chain(rng)
        classes = {v: (rng.randint(0, 2),) for v in chain.vertices if rng.random() < 0.9}
        cases.append((chain, classes))
    seen = set()
    for chain, classes in cases:
        report = check_condition_b2(chain, classes).to_json_dict()
        assert report == per_vertex_b2(chain, classes)
        seen.update(k for k in ("matches", "failures", "unchecked") if report[k])
    # the sample matches, fails and leaves vertices unchecked
    assert seen == {"matches", "failures", "unchecked"}


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_finite_graph_roundtrip():
    g = G({"a", "b"}, [("a", "b"), ("b", "a"), ("a", "a")], exempt={"b"})
    data = json.loads(dump_graph(g))
    assert list(data.keys()) == ["vertices", "edges", "relation_exempt"]
    assert graph_from_json_dict(data) == g


def test_chain_roundtrip():
    chain = build_case_ii(2, 1, (), 4)
    data = json.loads(dump_graph(chain))
    assert list(data.keys()) == ["vertices", "edges", "infinite_vertices", "layers"]
    assert graph_from_json_dict(data) == chain


ODD_IDS = ['q"uote', "back\\slash", "tab\tnew\nline\x00\x1f\x7f", "caf\u00e9", "\u65e5\u672c", "\u2028\U0001f600", "", " "]


@pytest.mark.parametrize(
    "graph",
    [
        FiniteGraph(ODD_IDS, [(v + "!", v, w) for v, w in zip(ODD_IDS, ODD_IDS[1:] + ODD_IDS[:1])], ODD_IDS[::3]),
        FiniteGraph({"\\"}, []),
        GraphChain(ODD_IDS[:2], [[], ODD_IDS[:2], ODD_IDS], [("e\"0", ODD_IDS[0], ODD_IDS[1]), ("\u00e9", ODD_IDS[2], ODD_IDS[0])]),
        GraphChain([], [["x"]], []),
        build_case_iii(2, 1, (3,), 5),
    ],
    ids=["graph", "no_edges", "chain", "chain_without_edges", "case_iii"],
)
def test_dump_writes_the_bytes_of_json_dump_with_indent_two(graph):
    data = {"vertices": sorted(graph.vertices), "edges": [{"id": i, "from": o, "to": t} for i, o, t in graph.edges]}
    if isinstance(graph, GraphChain):
        data["infinite_vertices"] = sorted(graph.infinite_vertices)
        data["layers"] = [sorted(layer) for layer in graph.layers]
    else:
        data["relation_exempt"] = sorted(graph.relation_exempt)
    want = json.dumps(data, ensure_ascii=False, indent=2) + "\n"
    assert dump_graph(graph) == want


def test_dump_is_deterministic():
    a = dump_graph(build_case_iii(2, 1, (3,), 5))
    b = dump_graph(build_case_iii(2, 1, (3,), 5))
    assert a == b


@pytest.mark.parametrize(
    "data",
    [
        [],
        {"edges": []},
        {"vertices": "v", "edges": []},
        {"vertices": ["v"], "edges": [{"id": "e"}]},
        {"vertices": ["v"], "edges": [{"id": "e", "from": "v", "to": "nope"}]},
        {"vertices": ["v"], "edges": [], "relation_exempt": ["ghost"]},
        {"vertices": ["v"], "edges": [], "layers": "bad"},
        {"vertices": ["v"], "edges": [{"id": "e", "from": ["v"], "to": "v"}]},
        {"vertices": ["v"], "edges": [{"id": "e", "from": "v", "to": {"v": 1}}]},
        {"vertices": ["v"], "edges": [{"id": {"k": 1}, "from": "v", "to": "v"}]},
        {"vertices": ["v"], "edges": [{"id": 1, "from": "v", "to": "v"}]},
        {"vertices": ["v"], "layers": [["v"]], "edges": [{"id": "e", "from": ["v"], "to": "v"}]},
        # non-string items that str() would turn into known vertices
        {"vertices": ["1"], "edges": [], "layers": [[1]]},
        {"vertices": ["1"], "edges": [], "layers": [["1"]], "infinite_vertices": [1]},
        {"vertices": ["1"], "edges": [], "relation_exempt": [1]},
    ],
)
def test_malformed_inputs_raise(data):
    with pytest.raises(GraphFormatError):
        graph_from_json_dict(data)


def test_duplicate_edge_ids_rejected():
    with pytest.raises(GraphFormatError):
        FiniteGraph({"v"}, [("e", "v", "v"), ("e", "v", "v")])


def test_duplicate_edge_ids_rejected_after_normalization():
    # 1 and "1" both become the edge id "1"
    with pytest.raises(GraphFormatError, match="duplicate edge id '1'"):
        FiniteGraph(["a", "b"], [(1, "a", "b"), ("1", "b", "a")])
    with pytest.raises(GraphFormatError, match="duplicate edge id '1'"):
        GraphChain([], [["a", "b"]], [("1", "a", "b"), (1, "b", "a")])


def test_edge_endpoints_are_normalized_like_vertices():
    # vertices and edge ids go through str(), and so do the endpoints
    assert FiniteGraph([1, 2], [("e", 1, "2")]).edges == (("e", "1", "2"),)
    assert GraphChain([], [[1], [1, 2]], [("e", 2, 1)]).edges == (("e", "2", "1"),)
    with pytest.raises(GraphFormatError, match="edge 'e' has unknown origin '3'"):
        FiniteGraph([1, 2], [("e", 3, 1)])


@pytest.mark.parametrize(
    "edges",
    [
        [("e", "a", "b"), ("e", "b", "a")],  # duplicate id
        [("e", "a", "b"), ("f", "b", "z")],  # dangling terminus
        [("e", "z", "a")],  # dangling origin
    ],
)
def test_chain_rejects_bad_edges_before_any_layer_graph(edges):
    # layer graphs skip the edge check, so the chain's own check must catch
    # every bad edge, whatever layer it would fall in
    with pytest.raises(GraphFormatError):
        GraphChain([], [["a"], ["a", "b"]], edges)


def test_layer_graphs_equal_checked_graphs():
    chain = build_case_iii(2, 1, (3,), 5)
    for n in range(len(chain)):
        g = chain.layer_graph(n)
        checked = FiniteGraph(g.vertex_list, g.edges, g.relation_exempt)
        assert g == checked
        assert (g.vertex_list, g.s_vertices, g.vertex_index) == (
            checked.vertex_list,
            checked.s_vertices,
            checked.vertex_index,
        )
        for v in g.vertices:
            assert (g.out_edges(v), g.in_edges(v)) == (checked.out_edges(v), checked.in_edges(v))


def test_immutability():
    g = G({"v"}, [("v", "v")])
    with pytest.raises(AttributeError):
        g.vertices = frozenset()
