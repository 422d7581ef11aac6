"""K-theory engine tests: single graphs, the exact sequence, and chains."""

import copy
import dataclasses
import importlib
import json
import math
import random
from collections import Counter
from itertools import combinations, count, product

import pytest

from graphck import cli
from graphck.abelian import (
    ColumnLattice,
    FgAbelianGroup,
    GroupHom,
    IntMatrix,
    SmithDecomposition,
    _preimage_lattice_rows,
    format_group,
    kernel_basis,
    smith_normal_form,
)
from graphck.graphs import FiniteGraph, GraphChain, check_condition_a, dump_graph
from graphck.ktheory import (
    _k1_relations_hold,
    _relation_classes,
    boundary_map,
    chain_ktheory_report,
    inclusion_k0,
    inclusion_k1,
    ktheory,
    les_check,
    relation_matrix,
)
from graphck.synthesis import build_case_i, build_case_ii, build_case_iii

# node 3(a)'s witnesses in les_check on the graph of
# test_les_node3_names_the_first_relation_row_a_shifted_class_map_does_not_kill,
# with the first coordinate of one vertex's Toeplitz (T) or full (O) class
# moved by one
_KILLS = "the {} class map kills the relation row at the vertex"
PINNED_SHIFTED_WITNESSES = {
    ("T", "a"): {"check": _KILLS.format("Toeplitz"), "vertex": "a"},
    ("T", "b"): {"check": _KILLS.format("Toeplitz"), "vertex": "a"},
    ("T", "c"): None,
    ("O", "a"): {"check": _KILLS.format("full"), "vertex": "a"},
    ("O", "b"): {"check": _KILLS.format("full"), "vertex": "a"},
    ("O", "c"): {"check": "the full vertex classes generate K0(O)", "generator": 1, "section": [0, 0, 1]},
}


def loops(n):
    return FiniteGraph({"v"}, [(f"l{i}", "v", "v") for i in range(n)])


def with_s_set(graph, at):
    """The graph's vertices and edges with relation set ``at``, so that
    ``relation_matrix`` gives one relation row per vertex of ``at``."""
    return FiniteGraph(graph.vertices, graph.edges, graph.vertices - set(at))


@pytest.fixture
def snf_calls(monkeypatch):
    """Shapes of every Smith form computed."""
    abelian_mod = importlib.import_module("graphck.abelian")
    orig = abelian_mod.smith_normal_form
    calls = []

    def counting(m):
        calls.append((m.rows, m.cols))
        return orig(m)

    monkeypatch.setattr(abelian_mod, "smith_normal_form", counting)
    return calls


# ---------------------------------------------------------------------------
# Single graphs
# ---------------------------------------------------------------------------


def test_two_loops_trivial_k_theory():
    # relation row is (1 - 2) = (-1); its cokernel and kernel both vanish
    kt = ktheory(loops(2))
    assert relation_matrix(loops(2)).to_lists() == [[-1]]
    assert kt.k0.is_trivial and kt.k1.is_trivial


def test_one_loop_circle_algebra():
    kt = ktheory(loops(1))
    assert kt.k0.canonical_pair() == (1, ())
    assert kt.k1.canonical_pair() == (1, ())


@pytest.mark.parametrize(
    "l,torsion",
    [(1, ()), (2, ()), (3, ()), (0, (2,)), (1, (3,)), (2, (2, 4)), (3, (2, 9)), (2, (3, 3))],
)
def test_case_i_k_theory(l, torsion):
    g = build_case_i(l, torsion)
    kt = ktheory(g)
    from graphck.abelian import smith_normal_form

    expected_torsion = ()
    if torsion:
        diag = [[x if i == j else 0 for j in range(len(torsion))] for i, x in enumerate(torsion)]
        expected_torsion = tuple(x for x in smith_normal_form(IntMatrix.from_rows(diag)).diagonal if x >= 2)
    assert kt.k0.canonical_pair() == (l, expected_torsion)
    assert kt.k1.canonical_pair() == (l, ())


def test_case_i_torsion_generators_have_stated_orders():
    g = build_case_i(2, (2, 4))
    kt = ktheory(g)
    k0 = kt.k0
    nfac = len(k0.invariant_factors)
    zero = (0,) * k0.ncoords
    # a torsion class c has order d when d*c vanishes and (d/p)*c does not,
    # for each prime p dividing d (here d is a power of 2)
    for v, d in (("w1", 2), ("w2", 4)):
        c = kt.k0_class_of_vertex[v]
        assert not any(c[nfac:])
        assert k0.reduce_coords([d * x for x in c]) == zero
        assert k0.reduce_coords([d // 2 * x for x in c]) != zero
    # the free part is generated by the v-classes: infinite order
    assert any(kt.k0_class_of_vertex["v1"][nfac:])


def test_case_i_matches_its_closed_form():
    # the star's relations are [z] = 0, the leaf sum [v_1] + ... + [v_l] +
    # [y] = 0 and n_i [w_i] = 0, so the v-classes are a free basis, [w_i] has
    # order n_i, and K1 is the lattice of the vectors e_{v_i} - e_y
    from test_acceptance import TORSION_POOL

    for l in range(6):
        for torsion in (t for k in range(3) for t in product(TORSION_POOL, repeat=k)):
            if l + len(torsion) == 0:
                continue
            kt = ktheory(build_case_i(l, torsion))
            k0, classes = kt.k0, kt.k0_class_of_vertex
            zero, nfac = (0,) * k0.ncoords, len(k0.invariant_factors)
            vs = [f"v{i}" for i in range(1, l + 1)]
            assert classes["z"] == zero
            assert classes["y"] == k0.reduce_coords([-sum(x) for x in zip(zero, *(classes[v] for v in vs))])
            if l:
                free = IntMatrix.from_rows([classes[v][nfac:] for v in vs])
                assert smith_normal_form(free).diagonal == (1,) * l, (l, torsion)
            for i, n in enumerate(torsion, 1):
                c = classes[f"w{i}"]
                assert next(d for d in count(1) if k0.reduce_coords([d * x for x in c]) == zero) == n
            # the lattice holds every e_{v_i} - e_y, and each of its basis
            # vectors x is sum x(v_i) (e_{v_i} - e_y)
            order = {v: i for i, v in enumerate(kt.vertex_order)}
            for v in vs:
                x = [0] * len(order)
                x[order[v]], x[order["y"]] = 1, -1
                assert kt.k1_column.contains(x)
            for col in kt.k1_lattice.columns():
                x = [0] * len(order)
                for v in vs:
                    x[order[v]] = col[order[v]]
                x[order["y"]] = -sum(x)
                assert list(col) == x, (l, torsion)


def test_vertex_classes_generate_k0():
    from graphck.abelian import FgAbelianGroup, GroupHom

    rng = random.Random(13)
    for _ in range(30):
        nv = rng.randint(1, 5)
        verts = [f"v{i}" for i in range(nv)]
        edges = [(f"e{k}", rng.choice(verts), rng.choice(verts)) for k in range(rng.randint(0, 10))]
        exempt = {v for v in verts if rng.random() < 0.3}
        kt = ktheory(FiniteGraph(verts, edges, exempt))
        free_cover = FgAbelianGroup.canonical(nv)
        cols = [kt.k0_class_of_vertex[v] for v in kt.vertex_order]
        ents = []
        for i in range(kt.k0.ncoords):
            ents.extend(col[i] for col in cols)
        cover = GroupHom(
            free_cover,
            FgAbelianGroup.canonical(kt.k0.free_rank, kt.k0.invariant_factors),
            IntMatrix(kt.k0.ncoords, nv, ents),
        )
        assert cover.is_surjective()


def test_rank_zero_equals_rank_one_for_full_relations():
    rng = random.Random(9)
    for _ in range(100):
        nv = rng.randint(1, 6)
        verts = [f"v{i}" for i in range(nv)]
        edges = [(f"e{k}", rng.choice(verts), rng.choice(verts)) for k in range(rng.randint(0, 12))]
        kt = ktheory(FiniteGraph(verts, edges))
        assert kt.k0.free_rank == kt.k1.free_rank


# ---------------------------------------------------------------------------
# Boundary map
# ---------------------------------------------------------------------------


def test_boundary_single_loop():
    g = FiniteGraph({"v"}, [("l", "v", "v")], relation_exempt={"v"})
    assert boundary_map(g, (1,)) == (-1,)


def test_boundary_empty_exempt_set():
    g = loops(1)
    assert boundary_map(g, (5,)) == ()


def test_boundary_rejects_non_classes():
    g = FiniteGraph({"u", "v"}, [("e", "u", "v"), ("lu", "u", "u"), ("lv", "v", "v")])
    # x(v) = x(u) + x(v) forces x(u) = 0
    with pytest.raises(ValueError):
        boundary_map(g, (1, 0))
    # x = e_v holds the relation at v (its one in-edge is v's loop) and fails
    # it at exempt u, where x(u) = 0 but the in-edge sum is x(v) = 1: read
    # unchecked, -x(u) would not be the in-edge sum
    g = FiniteGraph({"u", "v"}, [("lv", "v", "v"), ("e", "v", "u")], {"u"})
    x = (0, 1)
    holds = {u: x[g.vertex_index[u]] == sum(x[g.vertex_index[o]] for _, o, _ in g.in_edges(u)) for u in "uv"}
    assert holds == {"u": False, "v": True}
    assert _in_edge_index_map(g, x) == (-1,)
    with pytest.raises(ValueError, match="not a degree-one class"):
        boundary_map(g, x)
    assert boundary_map(g, (1, 1)) == (-1,)


def test_boundary_onto_for_tower_layers():
    chain = build_case_ii(2, 1, (), 5)
    layer = chain.layer_graph(2)
    full = FiniteGraph(layer.vertices, layer.edges, ())
    kt_full = ktheory(full)
    cols = [boundary_map(layer, x) for x in kt_full.k1_lattice.columns()]
    exempt = sorted(layer.relation_exempt)
    image = ColumnLattice(
        IntMatrix.from_rows([[c[i] for c in cols] for i in range(len(exempt))], cols=len(cols))
    )
    for i in range(len(exempt)):
        unit = tuple(1 if j == i else 0 for j in range(len(exempt)))
        assert image.contains(unit)


def test_k1_column_lattice_is_the_checked_lattice():
    for g in (loops(1), build_case_ii(3, 1, (2,), 5).layer_graph(2), build_case_iii(2, 2, (), 5).layer_graph(1)):
        kt = ktheory(g)
        lat = kt.k1_column
        assert lat.matrix == kt.k1_lattice
        assert lat.equals(ColumnLattice(kt.k1_lattice))


def _full_relation_route_two(graph):
    """Route two as first formulated, kept as a reference: the left kernel of
    the full relation matrix (the degree-one lattice with no exempt vertex),
    cut down to the vectors vanishing on the exempt vertices."""
    verts = graph.vertex_list
    full = smith_normal_form(relation_matrix(with_s_set(graph, verts)))
    full_k1 = IntMatrix.from_sparse_columns(len(verts), [full.u_row(i) for i in range(full.rank, len(verts))])
    full_rows = full_k1.to_lists()
    at_exempt = [full_rows[verts.index(u)] for u in sorted(graph.relation_exempt)]
    ker = kernel_basis(IntMatrix.from_rows(at_exempt, cols=full_k1.cols))
    return full_k1 @ IntMatrix.from_sparse_columns(full_k1.cols, ker)


def _recorded_route_two(monkeypatch, graph):
    """ktheory(graph) and its route-two lattice, the kernel of the transposed
    relation matrix extended by zero off S."""
    ktheory_mod = importlib.import_module("graphck.ktheory")
    kernels = []

    def recording(m):
        kernels.append(kernel_basis(m))
        return kernels[-1]

    monkeypatch.setattr(ktheory_mod, "kernel_basis", recording)
    kt = ktheory(graph)
    monkeypatch.undo()
    (ker,) = kernels
    verts = graph.vertex_list
    spos = [verts.index(u) for u in graph.s_vertices]
    return kt, IntMatrix.from_sparse_columns(len(verts), [{spos[k]: x for k, x in col.items()} for col in ker])


def _route_two_graphs():
    rng = random.Random(93)
    for _ in range(300):
        nv = rng.randint(1, 12)
        verts = [f"v{i:02d}" for i in range(nv)]
        edges = [(f"e{k:02d}", rng.choice(verts), rng.choice(verts)) for k in range(rng.randint(0, 3 * nv))]
        exempt = [v for v in verts if rng.random() < rng.choice((0.1, 0.3, 0.6))] or [rng.choice(verts)]
        yield FiniteGraph(verts, edges, exempt)
    for chain in (build_case_ii(3, 1, (2,), 6), build_case_ii(2, 1, (3,), 6), build_case_iii(3, 1, (2,), 6)):
        for n in range(len(chain)):
            yield chain.layer_graph(n)


def test_route_two_matches_the_full_relation_formulation(monkeypatch):
    nonzero = 0
    for g in _route_two_graphs():
        assert g.relation_exempt
        kt, route_two = _recorded_route_two(monkeypatch, g)
        reference = ColumnLattice(_full_relation_route_two(g))
        assert reference.equals(ColumnLattice(route_two)), (g.vertex_list, g.edges, sorted(g.relation_exempt))
        assert reference.equals(kt.k1_column)
        nonzero += not kt.k1.is_trivial
    # 60 of the random graphs and all 18 chain layers have K1 != 0
    assert nonzero == 78


@pytest.mark.parametrize("corrupt", ["drop", "double"])
@pytest.mark.parametrize(
    "graph",
    [build_case_ii(3, 1, (2,), 5).layer_graph(2), build_case_iii(3, 1, (2,), 5).layer_graph(2)],
)
def test_dual_route_check_catches_a_corrupted_route_two(monkeypatch, graph, corrupt):
    kt = ktheory(graph)
    assert graph.relation_exempt and kt.k1.free_rank >= 1
    ktheory_mod = importlib.import_module("graphck.ktheory")

    def corrupted(m):
        cols = list(kernel_basis(m))
        if corrupt == "drop":
            cols.pop()
        else:
            cols[0] = {i: 2 * x for i, x in cols[0].items()}
        return cols

    monkeypatch.setattr(ktheory_mod, "kernel_basis", corrupted)
    with pytest.raises(AssertionError, match="two K1 computations disagree"):
        ktheory(graph)


# two graphs with one exempt vertex and K1 = Z^2: route two's kernel basis is
# route one's U-row basis on the first, and the same two vectors in the other
# order on the second
K1_BASES = {
    "equal": FiniteGraph(["v0", "v1", "v2"], [("e0", "v0", "v0"), ("e1", "v1", "v1")], ["v2"]),
    "different": FiniteGraph(
        ["v0", "v1", "v2", "v3", "v4"],
        [("e0", "v4", "v4"), ("e1", "v3", "v3"), ("e2", "v0", "v1"), ("e3", "v4", "v0")],
        ["v2"],
    ),
}


@pytest.mark.parametrize("route", ["one", "two"])
@pytest.mark.parametrize("bases", ["equal", "different"])
def test_dual_route_check_compares_lattices_only_when_the_bases_differ(monkeypatch, bases, route):
    graph = K1_BASES[bases]
    kt, route_two = _recorded_route_two(monkeypatch, graph)
    assert kt.k1.free_rank == 2
    assert (route_two == kt.k1_lattice) == (bases == "equal")
    compared = []
    orig_equals = ColumnLattice.equals
    monkeypatch.setattr(ColumnLattice, "equals", lambda self, other: compared.append(other) or orig_equals(self, other))
    ktheory(graph)
    assert len(compared) == (bases != "equal")

    # equal bases skip the lattice comparison, so a corrupted route must make
    # them differ and then fail it
    if route == "two":
        ktheory_mod = importlib.import_module("graphck.ktheory")

        def doubled(m):  # one kernel column scaled by 2
            cols = list(kernel_basis(m))
            cols[0] = {i: 2 * x for i, x in cols[0].items()}
            return cols

        monkeypatch.setattr(ktheory_mod, "kernel_basis", doubled)
    else:
        orig_u_row = SmithDecomposition.u_row
        # the first U row past the rank is read as the second: still in the
        # kernel, so only the dual-route check sees the lattice shrink
        monkeypatch.setattr(SmithDecomposition, "u_row", lambda self, i: orig_u_row(self, i + (i == self.rank)))
    with pytest.raises(AssertionError, match="two K1 computations disagree"):
        ktheory(graph)


def _full_relation_graphs(n, seed):
    """n random graphs with no exempt vertex, parallel edges and loops common."""
    rng = random.Random(seed)
    for _ in range(n):
        nv = rng.randint(1, 10)
        verts = [f"v{i}" for i in range(nv)]
        edges = [(f"e{k:02d}", rng.choice(verts), rng.choice(verts)) for k in range(rng.randint(0, 3 * nv))]
        yield FiniteGraph(verts, edges)


def test_k1_relation_check_catches_a_corrupted_route_one_row(monkeypatch):
    # with no exempt vertex route two is route one's lattice, so the dual-route
    # check compares a lattice with itself and nothing vanishes off S; only
    # the relation check can catch a bad route-one basis
    orig = SmithDecomposition.u_row
    caught = 0
    for g in _full_relation_graphs(200, 17):
        # adding e_k to a left-kernel row of the relation matrix R adds R's row
        # k to c R = 0, and column j of c R is x(j) minus the sum over the
        # edges into j: a nonzero row k breaks the relation at some vertex
        k = next((k for k, row in enumerate(relation_matrix(g).sparse_rows) if row), None)
        if k is None or not ktheory(g).k1.free_rank:
            continue

        def corrupted(self, i):
            row = dict(orig(self, i))
            if i == self.rank:
                row[k] = row.get(k, 0) + 1
            return {j: x for j, x in row.items() if x}

        with monkeypatch.context() as m:
            m.setattr(SmithDecomposition, "u_row", corrupted)
            with pytest.raises(AssertionError, match="K1 representative violates a relation on S"):
                ktheory(g)
        caught += 1
    assert caught == 90


def test_ktheory_refuses_a_k1_basis_that_spans_a_proper_sublattice(monkeypatch):
    # with no exempt vertex both routes read one Smith form, and twice a
    # kernel row still satisfies every relation; only the saturation of the
    # basis lattice tells the doubled basis from one of the kernel
    orig = SmithDecomposition.u_row

    def doubled(self, i):
        row = orig(self, i)
        return {j: 2 * x for j, x in row.items()} if i == self.rank else row

    caught = 0
    for g in _full_relation_graphs(200, 17):
        if not ktheory(g).k1.free_rank:
            continue
        with monkeypatch.context() as m:
            m.setattr(SmithDecomposition, "u_row", doubled)
            with pytest.raises(AssertionError, match="does not span a saturated lattice"):
                ktheory(g)
        caught += 1
    assert caught == 98


def test_ktheory_refuses_a_k1_basis_one_vector_short(monkeypatch):
    # with no exempt vertex both routes read one Smith form, and a basis one
    # vector short of the kernel spans a saturated lattice whose vectors
    # satisfy every relation; only its length, against the rank of K0 read
    # from the diagonal, tells it from a basis of the kernel
    ktheory_mod = importlib.import_module("graphck.ktheory")
    orig = ktheory_mod.cokernel

    def rank_one_up(m):
        k0 = orig(m)
        k0.snf.rank += 1  # the first U row past the rank is not read
        return k0

    caught = 0
    for g in _full_relation_graphs(200, 17):
        if not ktheory(g).k1.free_rank:
            continue
        with monkeypatch.context() as m:
            m.setattr(ktheory_mod, "cokernel", rank_one_up)
            with pytest.raises(AssertionError, match="K1 basis length does not match the rank of K0"):
                ktheory(g)
        caught += 1
    assert caught == 98


def test_k1_relation_check_runs_at_every_vertex(monkeypatch):
    # e_u satisfies the relation at u, whose loop feeds it back, but not at
    # the exempt w, which u also feeds: K1 = 0.  Both routes are made to
    # return e_u, so only the relation at w can refuse it
    graph = FiniteGraph(["u", "w"], [("l", "u", "u"), ("e", "u", "w")], ["w"])
    assert ktheory(graph).k1.is_trivial
    ktheory_mod = importlib.import_module("graphck.ktheory")
    orig = ktheory_mod.cokernel

    def route_one_e_u(m):
        k0 = orig(m)
        k0.snf.rank = 0  # the one U row is read as past the rank
        k0.snf.u_row = lambda i: {0: 1}
        return k0

    monkeypatch.setattr(ktheory_mod, "cokernel", route_one_e_u)
    monkeypatch.setattr(ktheory_mod, "kernel_basis", lambda m: [{0: 1}])
    with pytest.raises(AssertionError, match="K1 representative violates a relation"):
        ktheory(graph)


def _dense_relations_hold(graph, x):
    """The K1 relation check as first written, kept as a reference: at each
    vertex u, x(u) against the sum of x over the edges into u."""
    vidx = graph.vertex_index
    return all(x[vidx[u]] == sum(x[vidx[o]] for _, o, _ in graph.in_edges(u)) for u in graph.vertex_list)


def test_sparse_k1_relation_check_matches_the_dense_reference():
    rng = random.Random(29)
    outcomes = Counter()
    for g in _full_relation_graphs(400, 41):
        nv, vidx = len(g.vertex_list), g.vertex_index
        basis = [list(c) for c in ktheory(g).k1_lattice.columns()]
        # integer combinations of the basis hold everywhere, and a unit step
        # off one of them fails at some vertex
        vectors = basis + [
            [sum(c * col[i] for c, col in zip(coeffs, basis)) for i in range(nv)]
            for coeffs in ([rng.randint(-2, 2) for _ in basis] for _ in range(2))
        ]
        for x in list(vectors):
            y = list(x)
            y[rng.randrange(nv)] += rng.choice((-1, 1))
            vectors.append(y)
        vectors.append([rng.randint(-2, 2) for _ in range(nv)])
        for x in vectors:
            want = _dense_relations_hold(g, x)
            assert _k1_relations_hold(g, {i: v for i, v in enumerate(x) if v}) == want
            assert _k1_relations_hold(g, dict(enumerate(x))) == want
            # parallel edges leaving the support of x: the sums must count
            # in-edge multiplicity
            multi = max(Counter((o, t) for _, o, t in g.edges if x[vidx[o]]).values(), default=0) > 1
            outcomes[want, multi] += 1
    # the check holds and fails, with and without parallel edges, many times
    assert len(outcomes) == 4 and min(outcomes.values()) >= 50


def test_ktheory_with_exempt_vertices_reduces_no_full_relation_matrix(snf_calls):
    rng = random.Random(5)
    verts = [f"v{i:02d}" for i in range(40)]
    edges = [(f"e{k:03d}", rng.choice(verts), rng.choice(verts)) for k in range(120)]
    graphs = [
        FiniteGraph(verts, edges, rng.sample(verts, 8)),
        build_case_ii(3, 1, (2,), 6).layer_graph(4),
        build_case_iii(3, 1, (2,), 6).layer_graph(4),
    ]
    for g in graphs:
        del snf_calls[:]
        ktheory(g)
        nv, ns = len(g.vertex_list), len(g.s_vertices)
        assert 0 < ns < nv
        # the relation matrix for K0 and route one, its transpose for route
        # two, and the nv-row lattices of the two routes
        assert snf_calls[:2] == [(ns, nv), (nv, ns)]
        assert (nv, nv) not in snf_calls


# ---------------------------------------------------------------------------
# Long exact sequence
# ---------------------------------------------------------------------------


def test_les_degenerates_without_exempt_vertices():
    rep = les_check(loops(2))
    assert rep.passed
    assert rep.terms["k1_toeplitz"] == rep.terms["k1_full"]
    assert rep.terms["ideal_k0"] == "0"


def test_les_on_tower_layer():
    chain = build_case_ii(2, 1, (), 5)
    layer = chain.layer_graph(1)
    rep = les_check(layer)
    assert rep.passed
    # the index map is onto, so the Toeplitz and full degree-zero groups agree
    assert rep.terms["k0_toeplitz"] == rep.terms["k0_full"]


def test_les_reuses_the_ktheory_smith_forms(snf_calls):
    # two ktheory calls and the node checks; the Toeplitz relation matrix, its
    # degree-one lattice and both class maps come from ktheory.  The Toeplitz
    # ktheory reduces the transposed Toeplitz matrix for route two, never the
    # full relation matrix, which only the full ktheory reduces; route two's
    # basis equals route one's, so its lattice is not reduced.  The full
    # ktheory has no exempt vertex, so its two routes share one lattice.  The
    # nodes add two Smith forms: the index-map matrix B, whose Smith form
    # gives node 1's kernel and node 2's image, and the presentation of
    # coker j, which gives node 2's kernel and node 3's cokernel
    rep = les_check(build_case_ii(2, 1, (), 5).layer_graph(1))
    assert rep.passed
    assert sorted(rep.checks) == [
        "coker_ideal_map_is_k0_full",
        "exact_at_ideal",
        "exact_at_k0_toeplitz",
        "exact_at_k1_full",
    ]
    assert len(snf_calls) == 7


def _les_node_shapes(monkeypatch, snf_calls, graph):
    """Shapes of the Smith forms les_check computes outside its ktheory calls."""
    ktheory_mod = importlib.import_module("graphck.ktheory")
    orig = ktheory_mod.ktheory
    ends = []

    def marking(g):
        kt = orig(g)
        ends.append(len(snf_calls))
        return kt

    del snf_calls[:]
    with monkeypatch.context() as m:
        m.setattr(ktheory_mod, "ktheory", marking)
        assert les_check(graph).passed
    return snf_calls[ends[-1] :]


def test_les_nodes_reduce_no_vertex_sized_matrix(monkeypatch, snf_calls):
    # beyond the two ktheory calls, les_check reduces B (one row per exempt
    # vertex, one column per K1(O) basis vector) and the presentation of
    # coker j (the K0(T) torsion rows and one row per exempt vertex, one
    # column per K0(T) coordinate)
    graphs = [build_case_ii(2, 1, (), 5).layer_graph(n) for n in range(4)]
    graphs += [g for g, _ in zip(_les_graphs(40, 5), range(40))]
    for g in graphs:
        ne = len(g.relation_exempt)
        kt_t = ktheory(g)
        kt_o = ktheory(FiniteGraph(g.vertices, g.edges)) if ne else kt_t
        shapes = _les_node_shapes(monkeypatch, snf_calls, g)
        assert shapes == [(ne, kt_o.k1.free_rank), (len(kt_t.k0.invariant_factors) + ne, kt_t.k0.ncoords)]
    for g in graphs[:4]:
        nv = len(g.vertex_list)
        assert nv not in [cols for _, cols in _les_node_shapes(monkeypatch, snf_calls, g)]


def test_les_random_graphs():
    rng = random.Random(31)
    for _ in range(60):
        nv = rng.randint(1, 6)
        verts = [f"v{i}" for i in range(nv)]
        edges = [(f"e{k}", rng.choice(verts), rng.choice(verts)) for k in range(rng.randint(0, 12))]
        exempt = {v for v in verts if rng.random() < 0.35}
        rep = les_check(FiniteGraph(verts, edges, exempt))
        assert rep.passed, (verts, edges, exempt, rep.checks)


def _les_graphs(n, seed):
    """The empty graph, then n random graphs with at most eight vertices.

    They cycle through loop-only graphs, torsion-heavy graphs (bundles of
    parallel edges) and plain random ones, and through no, all and some
    exempt vertices.
    """
    rng = random.Random(seed)
    yield FiniteGraph([], [])
    for i in range(n):
        nv = rng.randint(1, 8)
        verts = [f"v{j}" for j in range(nv)]
        kind = i % 3
        if kind == 0:
            loops = [rng.choice(verts) for _ in range(rng.randint(0, 2 * nv))]
            edges = [(f"e{k}", v, v) for k, v in enumerate(loops)]
        elif kind == 1:
            ends = [(rng.choice(verts), rng.choice(verts)) for _ in range(rng.randint(1, 2 * nv))]
            edges = [(f"e{k}_{c}", o, t) for k, (o, t) in enumerate(ends) for c in range(rng.randint(1, 6))]
        else:
            edges = [(f"e{k}", rng.choice(verts), rng.choice(verts)) for k in range(rng.randint(0, 3 * nv))]
        mode = i % 4
        exempt = set() if mode == 0 else set(verts) if mode == 1 else {v for v in verts if rng.random() < 0.4}
        yield FiniteGraph(verts, edges, exempt)


def _reference_les_nodes(graph):
    """The vertex-space formulation of the three nodes, kept as a reference.

    Node 1 compares K1(T) with the kernel of the index map as lattices, node
    2 compares the image of the index map with the preimage, in Z^{S^c}, of
    the Toeplitz relation lattice under the exempt relation rows, and node 3
    compares the full relation lattice with the Toeplitz relations stacked
    on the exempt relation rows.
    """
    exempt = tuple(sorted(graph.relation_exempt))
    kt_t = ktheory(graph)
    kt_o = ktheory(FiniteGraph(graph.vertices, graph.edges)) if exempt else kt_t
    nodes = {}
    k1_full = kt_o.k1_lattice
    bdry_cols = [boundary_map(graph, x) for x in k1_full.columns()]
    image = ColumnLattice(IntMatrix.from_sparse_columns(len(exempt), [dict(enumerate(c)) for c in bdry_cols]))
    ker_boundary = k1_full @ IntMatrix.from_sparse_columns(k1_full.cols, image.snf.kernel())
    nodes["exact_at_k1_full"] = kt_t.k1_column.equals(ColumnLattice(ker_boundary))
    ideal_rows = relation_matrix(with_s_set(graph, exempt))
    kerj = _preimage_lattice_rows(ideal_rows.transpose(), kt_t.k0).transpose()
    nodes["exact_at_ideal"] = image.equals(ColumnLattice(kerj))
    k0_all = kt_o.k0
    coker_j = FgAbelianGroup(kt_t.k0.relations.vstack(ideal_rows))
    nodes["exact_at_k0_toeplitz"] = all(
        coker_j.lattice_contains(r) for r in k0_all.relations.iter_rows()
    ) and all(k0_all.lattice_contains(r) for r in coker_j.relations.iter_rows())
    nodes["coker_ideal_map_is_k0_full"] = coker_j == kt_o.k0
    return nodes, coker_j


def test_les_nodes_match_the_vertex_space_formulation():
    graphs = list(_les_graphs(520, 2026))
    kinds = Counter()
    for g in graphs:
        rep = les_check(g)
        ref, _ = _reference_les_nodes(g)
        assert rep.checks == ref, (g.vertices, g.edges, g.relation_exempt)
        assert rep.passed and not rep.witnesses
        kt = ktheory(g)
        kinds["empty"] += not g.vertices
        kinds["loop-only"] += bool(g.edges) and all(o == t for _, o, t in g.edges)
        kinds["no exempt"] += bool(g.vertices) and not g.relation_exempt
        kinds["all exempt"] += bool(g.vertices) and g.relation_exempt == set(g.vertices)
        kinds["torsion"] += bool(kt.k0.invariant_factors)
        kinds["torsion >= 3"] += bool(kt.k0.invariant_factors) and kt.k0.invariant_factors[-1] >= 3
    assert len(graphs) > 500
    assert kinds["empty"] == 1 and min(kinds.values()) >= 1 and kinds["torsion"] >= 100, kinds


# ---------------------------------------------------------------------------
# Mutations: a corrupted input to les_check fails the named node, and the
# witness it reports is confirmed by a recheck that does not use its code
# ---------------------------------------------------------------------------


def _corrupting(monkeypatch, corrupt):
    """Route les_check's ktheory calls through ``corrupt(graph, result)``."""
    ktheory_mod = importlib.import_module("graphck.ktheory")
    orig = ktheory_mod.ktheory
    monkeypatch.setattr(ktheory_mod, "ktheory", lambda g: corrupt(g, orig(g)))


def _exempt_graphs(n, seed):
    return [g for g in _les_graphs(n, seed) if g.relation_exempt and g.s_vertices]


def _generates(group, classes):
    """Do these canonical coordinate vectors generate the group?  One Smith form."""
    rows = [[d if i == k else 0 for i in range(group.ncoords)] for k, d in enumerate(group.invariant_factors)]
    stacked = IntMatrix.from_rows(rows + [list(c) for c in classes], cols=group.ncoords)
    return smith_normal_form(stacked).diagonal.count(1) == group.ncoords


def _recheck_k0_witness(graph, kt_t, kt_o, witness):
    """Confirm a node-3 witness from dense relation rows and sums of classes."""
    if "vertex" in witness:
        kt = kt_t if witness["check"].startswith("the Toeplitz") else kt_o
        (row,) = relation_matrix(with_s_set(graph, [witness["vertex"]])).to_lists()
        classes = [kt.k0_class_of_vertex[v] for v in graph.vertex_list]
        total = [sum(x * c[i] for x, c in zip(row, classes)) for i in range(kt.k0.ncoords)]
        return any(kt.k0.reduce_coords(total))
    if "coker_j" in witness:
        _, coker_j = _reference_les_nodes(graph)
        return witness["coker_j"] == format_group(coker_j) and witness["k0_full"] == format_group(kt_o.k0)
    k, section = witness["generator"], witness["section"]
    classes = [kt_o.k0_class_of_vertex[v] for v in graph.vertex_list]
    total = [sum(x * c[i] for x, c in zip(section, classes)) for i in range(kt_o.k0.ncoords)]
    return kt_o.k0.reduce_coords(total) != tuple(int(i == k) for i in range(kt_o.k0.ncoords))


def test_les_node3_catches_a_class_map_that_is_not_an_isomorphism(monkeypatch):
    # one coordinate of one vertex's full class is shifted by one.  The
    # shifted map Z^{F0} -> K0(O) is an isomorphism of K0(O) exactly when it
    # kills every full relation row and its classes generate K0(O) (Hopfian);
    # both are decided here from dense rows and one Smith form
    rng = random.Random(7)
    caught = applicable = 0
    for g in _exempt_graphs(400, 11):
        kt_t = ktheory(g)
        kt_o = ktheory(FiniteGraph(g.vertices, g.edges))
        if not kt_o.k0.ncoords:
            continue
        v = rng.choice(g.vertex_list)
        k = rng.randrange(kt_o.k0.ncoords)
        bad = dict(kt_o.k0_class_of_vertex)
        bad[v] = kt_o.k0.reduce_coords([c + (i == k) for i, c in enumerate(bad[v])])
        bad_o = dataclasses.replace(kt_o, k0_class_of_vertex=bad)
        rows = relation_matrix(FiniteGraph(g.vertices, g.edges)).iter_rows()
        classes = [bad[u] for u in g.vertex_list]
        n = kt_o.k0.ncoords
        kills = all(
            not any(kt_o.k0.reduce_coords([sum(x * c[i] for x, c in zip(r, classes)) for i in range(n)]))
            for r in rows
        )
        if kills and _generates(kt_o.k0, classes):
            continue
        applicable += 1
        with monkeypatch.context() as m:
            _corrupting(m, lambda graph, kt: bad_o if not graph.relation_exempt else kt)
            rep = les_check(g)
        assert rep.checks["exact_at_k1_full"] and rep.checks["exact_at_ideal"]
        assert not rep.checks["exact_at_k0_toeplitz"]
        assert _recheck_k0_witness(g, kt_t, bad_o, rep.witnesses["exact_at_k0_toeplitz"])
        caught += 1
    assert applicable >= 80 and caught == applicable


def test_les_node3_catches_a_class_map_that_misses_generators(monkeypatch):
    # doubling every full class kills every relation row still, but the
    # classes then lie in 2 K0(O), which is proper when K0(O) has a free or an
    # even torsion summand; only the generation check can see it
    checked = 0
    for g in _exempt_graphs(300, 12):
        kt_t = ktheory(g)
        kt_o = ktheory(FiniteGraph(g.vertices, g.edges))
        if not (kt_o.k0.free_rank or any(d % 2 == 0 for d in kt_o.k0.invariant_factors)):
            continue
        doubled = {v: kt_o.k0.reduce_coords([2 * c for c in x]) for v, x in kt_o.k0_class_of_vertex.items()}
        bad_o = dataclasses.replace(kt_o, k0_class_of_vertex=doubled)
        assert not _generates(kt_o.k0, doubled.values())
        with monkeypatch.context() as m:
            _corrupting(m, lambda graph, kt: bad_o if not graph.relation_exempt else kt)
            rep = les_check(g)
        failing = [n for n, ok in rep.checks.items() if not ok]
        assert failing == ["exact_at_k0_toeplitz", "coker_ideal_map_is_k0_full"]
        witness = rep.witnesses["coker_ideal_map_is_k0_full"]
        assert witness == rep.witnesses["exact_at_k0_toeplitz"] and "generator" in witness
        assert _recheck_k0_witness(g, kt_t, bad_o, witness)
        checked += 1
    assert checked >= 50


def test_les_node3_catches_corrupted_k0_full_invariants(monkeypatch):
    # every invariant factor of K0(O) doubled, coordinates unchanged
    checked = 0
    for g in _exempt_graphs(300, 13):
        kt_t = ktheory(g)
        kt_o = ktheory(FiniteGraph(g.vertices, g.edges))
        if not kt_o.k0.invariant_factors:
            continue
        bad = copy.copy(kt_o.k0)
        bad.invariant_factors = tuple(2 * d for d in kt_o.k0.invariant_factors)
        bad_o = dataclasses.replace(kt_o, k0=bad)
        with monkeypatch.context() as m:
            _corrupting(m, lambda graph, kt: bad_o if not graph.relation_exempt else kt)
            rep = les_check(g)
        assert not rep.checks["exact_at_k0_toeplitz"] and not rep.checks["coker_ideal_map_is_k0_full"]
        assert rep.terms["k0_full"] == format_group(bad)
        for node in ("exact_at_k0_toeplitz", "coker_ideal_map_is_k0_full"):
            assert _recheck_k0_witness(g, kt_t, bad_o, rep.witnesses[node])
        checked += 1
    assert checked >= 30


def test_les_node1_catches_a_doubled_k1_toeplitz_column(monkeypatch):
    checked = 0
    for g in _exempt_graphs(400, 14):
        kt_t = ktheory(g)
        if not kt_t.k1.free_rank:
            continue
        cols = list(kt_t.k1_basis)
        cols[0] = {i: 2 * x for i, x in cols[0].items()}
        lattice = ColumnLattice(IntMatrix.from_sparse_columns(len(kt_t.vertex_order), cols))
        bad_t = dataclasses.replace(kt_t, k1_basis=cols, k1_column=lattice)
        with monkeypatch.context() as m:
            _corrupting(m, lambda graph, kt: bad_t if graph.relation_exempt else kt)
            rep = les_check(g)
        assert [n for n, ok in rep.checks.items() if not ok] == ["exact_at_k1_full"]
        x = rep.witnesses["exact_at_k1_full"]["vector"]
        # x is a full-relation degree-one vector the index map kills, and its
        # coordinate on the doubled basis vector is odd
        assert not any(boundary_map(g, x))
        coeffs = kt_t.k1_column.solve(x)
        assert coeffs is not None and coeffs[0] % 2 == 1
        checked += 1
    assert checked >= 30


def _lattice_invariants(cols, n):
    """(rank, gcd of the maximal nonzero minors) of the lattice these columns span."""
    for r in range(min(n, len(cols)), 0, -1):
        g = 0
        for rs in combinations(range(n), r):
            for cs in combinations(range(len(cols)), r):
                g = math.gcd(g, IntMatrix.from_rows([[cols[c][i] for c in cs] for i in rs]).determinant())
        if g:
            return r, g
    return 0, 1


def _in_edge_index_map(graph, x):
    """The index map as first written, kept as a reference: at each exempt
    u, minus the sum of x over the edges into u."""
    vidx = graph.vertex_index
    return tuple(-sum(x[vidx[o]] for _, o, _ in graph.in_edges(u)) for u in sorted(graph.relation_exempt))


def test_les_index_map_is_boundary_map_without_the_recheck(monkeypatch):
    # a K1(O) class satisfies the relation at every vertex, so at exempt u
    # the in-edge sum is x(u): boundary_map and les_check's unchecked
    # _index_map both read -x(u), and both must equal the in-edge sum
    ktheory_mod = importlib.import_module("graphck.ktheory")
    graphs = _exempt_graphs(150, 16) + list(_route_two_graphs())
    kinds = Counter()
    for g in graphs:
        basis = ktheory(FiniteGraph(g.vertices, g.edges)).k1_lattice
        want = [_in_edge_index_map(g, x) for x in basis.columns()]
        assert ktheory_mod._index_map(g, basis.sparse_columns()) == want
        assert [boundary_map(g, x) for x in basis.columns()] == want
        # exempt vertices with a nonzero component, and those reached by a
        # loop or by parallel edges
        for k, u in enumerate(sorted(g.relation_exempt)):
            if any(col[k] for col in want):
                kinds["nonzero"] += 1
                origins = Counter(o for _, o, _ in g.in_edges(u))
                kinds["loop"] += u in origins
                kinds["parallel"] += max(origins.values()) > 1
    assert min(kinds.values()) >= 20, kinds
    with monkeypatch.context() as m:
        m.setattr(ktheory_mod, "boundary_map", None)
        assert all(all(les_check(g).checks.values()) for g in graphs)


def _zeroing_first_boundary(m, ne):
    """Make the first index-map column les_check computes zero."""
    ktheory_mod = importlib.import_module("graphck.ktheory")
    orig = ktheory_mod._index_map

    def first_zero(graph, columns):
        cols = orig(graph, columns)
        return [(0,) * ne] + cols[1:]

    m.setattr(ktheory_mod, "_index_map", first_zero)


def test_les_node2_catches_a_zeroed_index_map_column(monkeypatch, capsys, tmp_path):
    checked = 0
    for g in _exempt_graphs(800, 15):
        if len(g.vertex_list) > 6:
            continue
        ne = len(g.relation_exempt)
        kt_t = ktheory(g)
        kt_o = ktheory(FiniteGraph(g.vertices, g.edges))
        cols = [boundary_map(g, x) for x in kt_o.k1_lattice.columns()]
        if not cols:
            continue
        zeroed = [(0,) * ne] + cols[1:]
        if _lattice_invariants(zeroed, ne) == _lattice_invariants(cols, ne):
            continue  # the zeroed column was redundant
        with monkeypatch.context() as m:
            _zeroing_first_boundary(m, ne)
            rep = les_check(g)
        assert not rep.checks["exact_at_ideal"]
        x = rep.witnesses["exact_at_ideal"]["vector"]
        # x is in the kernel of the ideal-class map: the class of the sum of
        # x_u times u's relation row vanishes in K0(T)
        rows = relation_matrix(with_s_set(g, g.relation_exempt)).to_lists()
        ambient = [sum(x[k] * rows[k][i] for k in range(ne)) for i in range(len(g.vertex_list))]
        assert not any(kt_t.k0.class_of(ambient))
        # and outside the lattice of the corrupted index-map columns
        assert _lattice_invariants(zeroed + [tuple(x)], ne) != _lattice_invariants(zeroed, ne)
        checked += 1
        if checked == 1:
            # the CLI prints the failing nodes with their witnesses, exit 1
            path = tmp_path / "g.json"
            path.write_text(dump_graph(g))
            capsys.readouterr()
            with monkeypatch.context() as m:
                _zeroing_first_boundary(m, ne)
                code = cli.main(["les-check", str(path)])
            out = json.loads(capsys.readouterr().out)
            assert code == 1 and not out["passed"]
            assert set(out["witnesses"]) == {n for n, ok in out["nodes"].items() if not ok}
            assert out["witnesses"]["exact_at_ideal"] == rep.witnesses["exact_at_ideal"]
    assert checked >= 20


def test_ideal_class_map_basis():
    g = FiniteGraph({"u", "v"}, [("e", "u", "v"), ("lu", "u", "u"), ("lv", "v", "v")], {"u"})
    kt = ktheory(g)
    # the ideal-class map les node 2 reads: [u] - [u] - [v] = -[v] in the
    # Toeplitz group
    (image,) = _relation_classes(kt, sorted(g.relation_exempt))
    assert image == kt.k0.reduce_coords([-x for x in kt.k0_class_of_vertex["v"]])
    assert any(image)


def _class_sum_relation_classes(kt, at):
    """The relation-row classes as first built, kept as a reference: one
    ``class_sum`` of (1, [u]) and (-1, [t(e)]) over u's out-edges, per u."""
    classes = kt.k0_class_of_vertex
    return [
        kt.k0.class_sum([(1, classes[u]), *((-1, classes[t]) for _, _, t in kt.graph.out_edges(u))])
        for u in at
    ]


def _shifted(kt, v, k):
    """``kt`` with coordinate k of vertex v's class moved by one, reduced."""
    bad = dict(kt.k0_class_of_vertex)
    bad[v] = kt.k0.reduce_coords([c + (i == k) for i, c in enumerate(bad[v])])
    return dataclasses.replace(kt, k0_class_of_vertex=bad)


def test_relation_classes_match_the_per_vertex_class_sums():
    # on the Toeplitz and the full class maps, and on random class maps of
    # the same groups, whose rows are rarely killed
    rng = random.Random(5)
    graphs = list(_les_graphs(330, 37))
    kinds = Counter()
    for g in graphs:
        for name, graph in (("Toeplitz", g), ("full", FiniteGraph(g.vertices, g.edges))):
            kt = ktheory(graph)
            k0 = kt.k0
            scrambled = {v: k0.reduce_coords([rng.randint(-9, 9) for _ in range(k0.ncoords)]) for v in graph.vertex_list}
            for kt_ in (kt, dataclasses.replace(kt, k0_class_of_vertex=scrambled)):
                for at in (graph.vertex_list, graph.vertex_list[::-2]):
                    want = _class_sum_relation_classes(kt_, at)
                    assert _relation_classes(kt_, at) == want
                    kinds[f"{name} nonzero rows"] += any(map(any, want))
            kinds[f"{name} torsion"] += bool(k0.invariant_factors)
        kinds["exempt"] += bool(g.relation_exempt)
        kinds["no exempt"] += bool(g.vertices) and not g.relation_exempt
        kinds["loop"] += any(o == t for _, o, t in g.edges)
        kinds["parallel"] += len({(o, t) for _, o, t in g.edges}) < len(g.edges)
    assert len(graphs) > 300 and min(kinds.values()) >= 50, kinds


def _first_unkilled_row(graph, kt_t, kt_o):
    """Node 3(a)'s witness, by the reference construction: the first Toeplitz
    relation row at S, then the first full relation row, whose class is not 0."""
    exempt = graph.relation_exempt
    for name, kt, at in (("Toeplitz", kt_t, graph.s_vertices), ("full", kt_o, graph.vertex_list if exempt else ())):
        for u, c in zip(at, _class_sum_relation_classes(kt, at)):
            if any(c):
                return {"check": f"the {name} class map kills the relation row at the vertex", "vertex": u}
    return None


def test_les_node3_names_the_first_relation_row_a_shifted_class_map_does_not_kill(monkeypatch):
    rng = random.Random(3)
    caught = Counter()
    for g in _exempt_graphs(300, 17):
        kt_t = ktheory(g)
        kt_o = ktheory(FiniteGraph(g.vertices, g.edges))
        for name, kt in (("Toeplitz", kt_t), ("full", kt_o)):
            if not kt.k0.ncoords:
                continue
            bad = _shifted(kt, rng.choice(g.vertex_list), rng.randrange(kt.k0.ncoords))
            bad_t, bad_o = (bad, kt_o) if name == "Toeplitz" else (kt_t, bad)
            want = _first_unkilled_row(g, bad_t, bad_o)
            if want is None:
                continue
            with monkeypatch.context() as m:
                _corrupting(m, lambda graph, kt: bad_t if graph.relation_exempt else bad_o)
                rep = les_check(g)
            assert rep.witnesses["exact_at_k0_toeplitz"] == want
            caught[name] += 1
    assert min(caught.values()) >= 40, caught
    # witnesses pinned as les_check gave them when each relation row was a
    # class_sum.  K0(T) = K0(O) = Z + Z/3, and only c's loop ends at c, so a
    # shifted class of c changes no relation row; the full one fails (c)
    g = FiniteGraph(
        ["a", "b", "c"],
        [("e0", "c", "c"), ("e1", "b", "a"), ("e2", "b", "b"), ("e3", "a", "b"), ("e4", "b", "a"), ("e5", "b", "a")],
        ["c"],
    )
    witnesses = {}
    for name, v in PINNED_SHIFTED_WITNESSES:
        with monkeypatch.context() as m:
            _corrupting(m, lambda graph, kt: _shifted(kt, v, 0) if bool(graph.relation_exempt) == (name == "T") else kt)
            rep = les_check(g)
        witnesses[name, v] = rep.witnesses.get("exact_at_k0_toeplitz")
    assert witnesses == PINNED_SHIFTED_WITNESSES


# ---------------------------------------------------------------------------
# Inclusions
# ---------------------------------------------------------------------------


def test_inclusion_k1_towers_give_isomorphism():
    chain = build_case_ii(3, 1, (), 5)
    rep = chain_ktheory_report(chain, window=2)
    for hom in rep.k1_homs:
        assert hom.is_isomorphism()


def test_inclusion_k1_rejects_a_basis_that_does_not_extend():
    # the loop class at v breaks the relation at w once v also feeds w
    f = FiniteGraph({"v"}, [("l", "v", "v")])
    g = FiniteGraph({"v", "w"}, [("l", "v", "v"), ("e", "v", "w"), ("wl", "w", "w")])
    assert ktheory(f).k1 == ktheory(g).k1 == FgAbelianGroup.canonical(1)
    with pytest.raises(ValueError, match="does not extend into the large one"):
        inclusion_k1(ktheory(f), ktheory(g))


def test_inclusion_k0_identity():
    g = loops(1)
    kt = ktheory(g)
    hom = inclusion_k0(kt, kt)
    assert hom.is_isomorphism()


def test_inclusion_k0_kills_tower_tops():
    chain = build_case_ii(3, 1, (), 6)
    rep = chain_ktheory_report(chain, window=2)
    kts = rep.layer_results
    for n, hom in enumerate(rep.k0_homs):
        assert hom.kernel_rank() == 2  # p + 1
        # the killed generators are the topmost tower classes
        kt_next = kts[n + 1]
        for i in (1, 2):
            v = f"a_{i}_{n + 2}"
            if v in kt_next.k0_class_of_vertex:
                assert kt_next.k0_class_of_vertex[f"a_{i}_{n + 1}"] == (0,) * kt_next.k0.ncoords


def test_inclusion_k0_isomorphisms_in_stable_towers():
    chain = build_case_iii(2, 1, (3,), 6)
    rep = chain_ktheory_report(chain, window=2)
    for hom in rep.k0_homs:
        assert hom.is_isomorphism()


def test_inclusion_k0_rejects_row_mismatch():
    f = FiniteGraph({"v"}, [("l", "v", "v")])
    g = FiniteGraph(
        {"v", "w"},
        [("l", "v", "v"), ("e", "v", "w"), ("wl", "w", "w"), ("back", "w", "v")],
    )
    with pytest.raises(ValueError, match="out-edges at relation vertex 'v' differ"):
        inclusion_k0(ktheory(f), ktheory(g))


def test_inclusion_k0_rejects_a_shrinking_relation_set_and_a_non_subgraph():
    chain = build_case_ii(3, 1, (2,), 5)
    f, g = chain.layer_graph(0), chain.layer_graph(1)
    kt_f, kt_g = ktheory(f), ktheory(g)
    assert inclusion_k0(kt_f, kt_g).domain == kt_f.k0
    # u emits infinitely many edges, so it is exempt in every layer
    f_full = FiniteGraph(f.vertices, f.edges, ())
    assert "u" in f.relation_exempt and "u" in g.relation_exempt
    with pytest.raises(ValueError, match="relation set must not shrink"):
        inclusion_k0(ktheory(f_full), kt_g)
    with pytest.raises(ValueError, match="not a labeled subgraph"):
        inclusion_k0(kt_g, kt_f)


@pytest.mark.parametrize(
    "chain",
    [
        build_case_ii(3, 1, (2,), 6),
        build_case_ii(4, 2, (3, 9), 5),
        build_case_iii(2, 1, (3,), 6),
        build_case_iii(3, 2, (2, 4), 5),
    ],
)
def test_inclusion_k0_is_proved_well_defined_from_the_graphs(chain):
    # reference: the vertex-selector matrix between the layer presentations,
    # which GroupHom checks relation by relation; the map read from the large
    # layer's classes must be its action on canonical coordinates, column j
    # the class of the image of small generator j's section
    layers = [chain.layer_graph(n) for n in range(len(chain))]
    kts = [ktheory(g) for g in layers]
    assert any(kt.k0.invariant_factors for kt in kts)
    for n in range(len(chain) - 1):
        small, large = kts[n], kts[n + 1]
        rows = [[int(v == w) for v in small.vertex_order] for w in large.vertex_order]
        selector = GroupHom(small.k0, large.k0, IntMatrix.from_rows(rows, cols=len(small.vertex_order)))
        hom = inclusion_k0(small, large)
        assert (hom.domain, hom.codomain) == (small.k0, large.k0)
        cols = [large.k0.class_of(selector.matrix.mat_vec(small.k0.section(j))) for j in range(small.k0.ncoords)]
        assert hom.matrix == IntMatrix.from_sparse_columns(large.k0.ncoords, [dict(enumerate(c)) for c in cols])


# ---------------------------------------------------------------------------
# Chains
# ---------------------------------------------------------------------------


def test_constant_chain_returns_finite_k_theory():
    g = build_case_i(2, (3,))
    verts = sorted(g.vertices)
    chain = GraphChain(set(), [verts] * 4, g.edges)
    rep = chain_ktheory_report(chain, window=2)
    assert rep.stabilized
    kt = ktheory(g)
    assert rep.k0.canonical_pair() == kt.k0.canonical_pair()
    assert rep.k1.canonical_pair() == kt.k1.canonical_pair()


def test_p_infinity_chain():
    chain = build_case_ii(2, 1, (), 6)
    rep = chain_ktheory_report(chain, window=2)
    assert rep.stabilized
    assert rep.k0.is_trivial
    assert rep.k1.canonical_pair() == (1, ())


def test_case_iii_chain_with_torsion():
    chain = build_case_iii(2, 1, (3,), 6)
    rep = chain_ktheory_report(chain, window=2)
    assert rep.stabilized
    assert rep.k0.canonical_pair() == (2, (3,))
    assert rep.k1.canonical_pair() == (1, ())


def test_chain_result_stable_under_window_doubling():
    chain = build_case_ii(3, 2, (2,), 8)
    a = chain_ktheory_report(chain, window=2)
    b = chain_ktheory_report(chain, window=4)
    assert a.stabilized and b.stabilized
    assert a.k0.canonical_pair() == b.k0.canonical_pair()
    assert a.k1.canonical_pair() == b.k1.canonical_pair()


def test_chain_gate_on_conditions():
    from graphck.ktheory import ChainConditionError

    # four layers, long enough for window 2, so the gate is what refuses it
    bad = GraphChain(
        {"u"},
        [["v"], ["u", "v"], ["u", "v"], ["u", "v"]],
        [("lv1", "v", "v"), ("lv2", "v", "v"), ("g", "u", "v"), ("h", "v", "u")],
    )
    with pytest.raises(ChainConditionError):
        chain_ktheory_report(bad, window=2)


def test_chain_force_overrides_condition_gate():
    # a chain with an (a1) violation still computes when forced, and says so
    bad = GraphChain(
        {"u"},
        [["v"], ["u", "v"]],
        [("lv1", "v", "v"), ("lv2", "v", "v"), ("g", "u", "v"), ("h", "v", "u")],
    )
    padded = GraphChain(
        {"u"},
        [["v"], ["u", "v"], ["u", "v"], ["u", "v"]],
        [("lv1", "v", "v"), ("lv2", "v", "v"), ("g", "u", "v"), ("h", "v", "u")],
    )
    rep = chain_ktheory_report(padded, window=1, force=True)
    assert rep.forced
    assert not rep.condition_a.passed


def test_chain_class_map_matches_expected_kills():
    chain = build_case_ii(2, 1, (), 6)
    rep = chain_ktheory_report(chain, window=2)
    # every class dies in the colimit: the group itself is trivial
    assert rep.k0.is_trivial
    assert all(c == () for c in rep.k0_class_map.values())


@pytest.mark.parametrize(
    "chain",
    [build_case_ii(3, 1, (2,), 6), build_case_ii(2, 1, (), 7), build_case_iii(2, 1, (3,), 6)],
    ids=["case_ii_torsion", "case_ii_deep", "case_iii"],
)
def test_chain_vertex_classes_push_to_the_settled_layer_class(chain):
    # the colimit class map reads each vertex's class in the settled layer;
    # pushing the class from the vertex's first layer through the inclusion
    # maps must land on that same class.  The layers before the report's
    # stretch get their K-theory and inclusions here
    rep = chain_ktheory_report(chain, window=2)
    settled = rep.settled_index
    kts = [ktheory(chain.layer_graph(n)) for n in range(rep.first)] + rep.layer_results
    homs = [inclusion_k0(a, b) for a, b in zip(kts, kts[1 : rep.first + 1])] + rep.k0_homs
    pushed = 0
    for m in range(settled):
        for v in sorted(chain.layers[m] - (chain.layers[m - 1] if m else frozenset())):
            coords = kts[m].k0_class_of_vertex[v]
            for hom in homs[m:settled]:
                coords = hom.codomain.class_of(hom.matrix.mat_vec(coords))
            assert coords == kts[settled].k0_class_of_vertex[v]
            pushed += 1
    assert pushed == len(chain.layers[settled - 1])


@pytest.mark.parametrize("window", [0, -1])
def test_chain_report_refuses_a_window_below_one_before_any_work(monkeypatch, window):
    ktheory_mod = importlib.import_module("graphck.ktheory")
    monkeypatch.setattr(ktheory_mod, "check_condition_a", lambda chain: pytest.fail("the chain was checked"))
    with pytest.raises(ValueError, match="window must be >= 1"):
        chain_ktheory_report(build_case_ii(2, 1, (), 5), window=window)


def test_chain_report_smith_form_count(snf_calls):
    # pinned: each layer's degree-one lattice is reduced once, inside ktheory,
    # and reused by the degree-one inclusion maps; canonical groups take their
    # diagonal Smith forms without a reduction; every layer has an exempt
    # vertex, so its route two reduces the transposed relation matrix and no
    # full relation matrix, and its basis equals route one's, so its lattice
    # is not reduced; a colimit step is an isomorphism when it is onto an
    # isomorphic group, so no step reduces an injectivity kernel.  A colimit
    # reduces each distinct window input once, with two Smith forms (the
    # preimage kernel and the cokernel), and checks each distinct induced
    # map once, with one.  Every layer and every inclusion of this chain is
    # the same in canonical coordinates, in both degrees, so each degree
    # reduces one window and checks one step
    chain = build_case_ii(2, 1, (3,), 6)
    assert len(chain) == 6
    rep = chain_ktheory_report(chain, window=2)
    assert len({h.matrix for h in rep.k0_homs}) == len({h.matrix for h in rep.k1_homs}) == 1
    assert len(snf_calls) == 3 * len(chain) + 2 * (2 + 1) == 24
    assert (rep.k0.canonical_pair(), rep.k1.canonical_pair(), rep.stabilized) == ((0, (3,)), (1, ()), True)


DEEP_CHAINS = {
    "case_ii_18": build_case_ii(3, 1, (2,), 18),
    "case_ii_34": build_case_ii(3, 1, (2,), 34),
    "case_iii_18": build_case_iii(3, 1, (2,), 18),
    "case_iii_34": build_case_iii(3, 1, (2,), 34),
}


@pytest.mark.parametrize("name", [*DEEP_CHAINS, "case_ii_6"])
def test_chain_report_computes_layer_ktheory_on_the_final_stretch(monkeypatch, name):
    # the colimits read layers first .. length - 1, which is 2 * window + 2
    # layers on a deep chain and every layer of a 6-layer one, and the
    # report computes those layers only
    chain = DEEP_CHAINS.get(name) or build_case_ii(3, 1, (2,), 6)
    ktheory_mod = importlib.import_module("graphck.ktheory")
    orig = ktheory_mod.ktheory
    graphs = []
    monkeypatch.setattr(ktheory_mod, "ktheory", lambda g: graphs.append(g) or orig(g))
    rep = chain_ktheory_report(chain, window=2)
    start = len(chain) - 6
    assert graphs == [chain.layer_graph(n) for n in range(start, len(chain))]
    assert rep.settled_index == len(chain) - 3
    assert rep.first == start and len(rep.layer_results) == len(rep.k0_homs) + 1 == len(rep.k1_homs) + 1 == 6


def _extended(columns, src, dst):
    """Sparse ``{vertex index: value}`` columns of ``src`` as dense vectors over
    the vertices of ``dst``, zero at the vertices ``src`` lacks."""
    index = dst.vertex_index
    out = []
    for x in columns:
        ext = [0] * len(dst.vertex_list)
        for i, val in x.items():
            ext[index[src.vertex_list[i]]] = val
        out.append(ext)
    return out


@pytest.mark.parametrize("name", list(DEEP_CHAINS))
def test_chain_report_entries_read_on_demand_equal_the_eager_ones(name):
    # reference: each stretch layer's K-theory and degree-zero inclusion
    # computed directly, and the degree-one map checked by what defines it:
    # the next lattice's basis times its matrix is the extended basis
    chain = DEEP_CHAINS[name]
    rep = chain_ktheory_report(chain, window=2)
    first = rep.first
    stretch = range(first, len(chain))
    layers = {n: chain.layer_graph(n) for n in stretch}
    kts = {n: ktheory(g) for n, g in layers.items()}
    assert len(rep.layer_results) == len(stretch) and len(rep.k0_homs) == len(rep.k1_homs) == len(stretch) - 1
    for n in stretch:
        got, want = rep.layer_results[n - first], kts[n]
        assert got.graph == layers[n]
        assert (got.k0.relations, got.k0.canonical_pair()) == (want.k0.relations, want.k0.canonical_pair())
        assert (got.k0_class_of_vertex, got.k1, got.k1_basis) == (want.k0_class_of_vertex, want.k1, want.k1_basis)
    for n in stretch[:-1]:
        hom = rep.k0_homs[n - first]
        ref = inclusion_k0(kts[n], kts[n + 1])
        assert (hom.domain.relations, hom.codomain.relations, hom.matrix) == (
            ref.domain.relations,
            ref.codomain.relations,
            ref.matrix,
        )
        hom = rep.k1_homs[n - first]
        assert (hom.domain, hom.codomain) == (kts[n].k1, kts[n + 1].k1)
        ext = _extended(kts[n].k1_basis, layers[n], layers[n + 1])
        assert ext and (kts[n + 1].k1_lattice @ hom.matrix).to_lists() == [list(r) for r in zip(*ext)]
        assert hom.matrix == inclusion_k1(kts[n], kts[n + 1]).matrix


def _count_layer_graphs(monkeypatch) -> tuple[list, list]:
    """Record the vertex count of every graph ``FiniteGraph._grown``, the
    one builder, builds, and the layer of every ``GraphChain.layer_graph``
    call."""
    graphs_mod = importlib.import_module("graphck.graphs")
    orig_grown = graphs_mod.FiniteGraph._grown
    orig_layer_graph = graphs_mod.GraphChain.layer_graph
    built, layer_graph_calls = [], []

    def counting_grown(cls, *args):
        g = orig_grown(*args)
        built.append(len(g.vertices))
        return g

    def counting_layer_graph(self, n):
        layer_graph_calls.append(n)
        return orig_layer_graph(self, n)

    monkeypatch.setattr(graphs_mod.FiniteGraph, "_grown", classmethod(counting_grown))
    monkeypatch.setattr(graphs_mod.GraphChain, "layer_graph", counting_layer_graph)
    return built, layer_graph_calls


def test_chain_report_builds_each_layer_graph_once(monkeypatch):
    # a 6-layer chain is all final stretch: the layer K-theory reads each
    # layer's graph, built once, layer 0 by layer_graph from the chain's
    # checked edges and each later one from the one before, without a new
    # check
    chain = build_case_ii(2, 1, (3,), 6)
    sizes = [len(layer) for layer in chain.layers]
    built, layer_graph_calls = _count_layer_graphs(monkeypatch)
    rep = chain_ktheory_report(chain, window=2)
    assert rep.condition_a.passed
    assert built == sizes
    assert layer_graph_calls == [0]
    assert [kt.graph for kt in rep.layer_results] == [chain.layer_graph(n) for n in range(len(chain))]
    assert chain.layer_graph(1) == rep.layer_results[1].graph


@pytest.mark.parametrize("build", [build_case_ii, build_case_iii])
@pytest.mark.parametrize("depth", [18, 34])
def test_chain_report_builds_only_the_stretch_layer_graphs(monkeypatch, build, depth):
    # condition (a) reads the chain's first-layer map and builds no layer
    # graph; the report builds the 2 * window + 2 its colimits read, calling
    # layer_graph for the first of them only
    chain = build(3, 1, (2,), depth)
    sizes = [len(chain.layer_graph(n).vertices) for n in range(depth - 6, depth)]
    built, layer_graph_calls = _count_layer_graphs(monkeypatch)
    assert check_condition_a(chain).passed and built == []
    chain_ktheory_report(chain, window=2)
    assert built == sizes
    assert layer_graph_calls == [depth - 6]


def _count_replays(monkeypatch):
    """Route every Smith form through a recorder; returns the list of Smith
    forms and the list of ``_replay`` calls, one per transform vector built,
    each as a key and the largest bit length among that vector's entries.
    The key is the Smith form read, which of U's rows, V's columns or V^-1's
    rows it read (a side and a direction), and the line: the Smith form
    itself, not its log, since canonical and empty Smith forms share the
    empty log ``()``."""
    abelian_mod = importlib.import_module("graphck.abelian")
    orig_replay, orig_snf = abelian_mod._replay, abelian_mod.smith_normal_form
    smith = abelian_mod.SmithDecomposition
    orig_vector, orig_dense = smith._vector, smith.v_col_dense
    replayed, snfs, reading = [], [], []

    def vector(self, which, k):
        reading.append((self, which, k))
        try:
            return orig_vector(self, which, k)
        finally:
            reading.pop()

    def v_col_dense(self, j):
        reading.append((self, 1, j))
        try:
            return orig_dense(self, j)
        finally:
            reading.pop()

    def replay(log, n, t, inverse):
        x = orig_replay(log, n, t, inverse)
        replayed.append((reading[-1], max(abs(y) for y in x).bit_length()))
        return x

    def snf(m):
        snfs.append((m, orig_snf(m)))
        return snfs[-1][1]

    monkeypatch.setattr(smith, "_vector", vector)
    monkeypatch.setattr(smith, "v_col_dense", v_col_dense)
    monkeypatch.setattr(abelian_mod, "_replay", replay)
    monkeypatch.setattr(abelian_mod, "smith_normal_form", snf)
    return snfs, replayed


def _assert_each_vector_replayed_once(replayed):
    keys = [key for key, _ in replayed]
    assert len(set(keys)) == len(keys)


def _built_dense_transforms(snfs):
    return any(name in vars(s) for _, s in snfs for name in ("u", "v", "v_inv", "d"))


@pytest.mark.parametrize(
    "graph,reads,vectors",
    [
        # two unit pivots, then a 3x3 core with diagonal (1, 2, 10): K0 reads
        # the V columns at the two torsion positions, K1 = 0 reads no U row;
        # with no exempt vertex both routes share one degree-one lattice, and
        # the dense transforms of the two Smith forms, of the 5x5 relation
        # matrix and the 5x0 lattice, replay their 20 vectors again: 22
        # replays
        (build_case_i(0, (2, 2, 5)), 2, 22),
        # one exempt vertex: K0 reads one torsion and two free V columns of
        # the 17x18 Toeplitz matrix and K1 its one U row past the rank; route
        # two reads the one kernel V column of the 18x17 transposed matrix,
        # and as the two bases are equal, only route one's lattice is reduced;
        # the dense transforms replay their 125 vectors again: 130 replays
        (build_case_ii(2, 1, (3,), 6).layer_graph(2), 5, 130),
    ],
)
def test_ktheory_folds_only_the_transform_vectors_it_reads(monkeypatch, graph, reads, vectors):
    snfs, replayed = _count_replays(monkeypatch)
    ktheory(graph)
    assert len(replayed) == reads
    _assert_each_vector_replayed_once(replayed)
    assert not _built_dense_transforms(snfs)
    # the dense transforms replay every row of U, column of V and row of V^-1
    # once more, since the Smith forms keep none of the vectors read before
    for m, s in snfs:
        s.verify(m)
    _assert_each_vector_replayed_once(replayed[reads:])
    assert len(replayed) == sum(s.rows + 2 * s.cols for _, s in snfs) + reads == vectors


@pytest.mark.parametrize(
    "n,outdeg,seed,exempt,pinned",
    [
        # out-degree 20 leaves dense cores in the 64x80 Toeplitz matrix (34x50)
        # and in its transpose (46x30): K0 = Z^16 reads the 16 V columns at
        # the free positions of the first; K1 = 0, so route one reads no U
        # row and route two no kernel V column of the transpose, and the two
        # empty bases are equal, so only route one's lattice is reduced
        (80, 20, 7, True, (3, 16, 10783, 58, (16, ()), (0, ()))),
        # K0 = Z + Z/2 reads the torsion V column of a 12x11 core, and K1 = Z
        # its one U row past the rank and the zero row's; the degree-one
        # lattice, shared by both routes, is 100x1 with a 97x1 core, whose
        # membership tests run the row log forward instead
        (100, 3, 1, False, (2, 3, 1483, 141, (1, (2,)), (1, ()))),
    ],
)
def test_ktheory_replays_only_the_core_vectors_it_reads(monkeypatch, n, outdeg, seed, exempt, pinned):
    rng = random.Random(seed)
    verts = [f"v{i:03d}" for i in range(n)]
    edges = [(f"e{i * outdeg + k:04d}", verts[i], rng.choice(verts)) for i in range(n) for k in range(outdeg)]
    graph = FiniteGraph(verts, edges, sorted(rng.sample(verts, n // 5)) if exempt else [])
    snfs, replayed = _count_replays(monkeypatch)
    kt = ktheory(graph)
    _assert_each_vector_replayed_once(replayed)
    assert not _built_dense_transforms(snfs)
    # the row and column operations logged over every Smith form: each
    # vector read replays one of these logs in full, and the largest entry
    # of the vectors read pins the growth of the transforms
    ops = sum(len(log) for _, s in snfs for log in s._logs)
    bits = max(b for _, b in replayed)
    got = (len(snfs), len(replayed), ops, bits, kt.k0.canonical_pair(), kt.k1.canonical_pair())
    assert got == pinned


@pytest.mark.parametrize(
    "graph",
    [build_case_i(0, (2, 2, 5)), build_case_ii(2, 1, (3,), 6).layer_graph(2)],
    ids=["no_exempt_vertex", "one_exempt_vertex"],
)
def test_reading_the_dense_transforms_first_changes_no_replay(monkeypatch, graph):
    # the benchmark's tracer reads each Smith form's dense U, V and V^-1 as
    # soon as it is computed; every vector that ktheory and les_check read
    # afterwards is still replayed, as in a run that reads no dense transform
    abelian_mod = importlib.import_module("graphck.abelian")

    def replays(read_dense):
        with monkeypatch.context() as m:
            snfs, replayed = _count_replays(m)
            if read_dense:
                counted = abelian_mod.smith_normal_form

                def snf(mat):
                    s = counted(mat)
                    start = len(replayed)
                    s.u, s.v, s.v_inv
                    del replayed[start:]  # the dense reads' own replays
                    return s

                m.setattr(abelian_mod, "smith_normal_form", snf)
            ktheory(graph)
            les_check(graph)
        index = {s: n for n, (_, s) in enumerate(snfs)}
        return [((index[s], which, k), bits) for (s, which, k), bits in replayed]

    plain = replays(False)
    assert plain and replays(True) == plain


def test_s_sets_on_synthesized_chains():
    from helpers import toeplitz_s_set

    for chain in (build_case_ii(2, 1, (), 5), build_case_iii(2, 2, (2,), 5)):
        d = chain.infinite_vertices
        prev = frozenset()
        for n in range(len(chain)):
            s = toeplitz_s_set(chain, n)
            assert s == chain.layers[n] - d
            assert prev <= s  # monotone along the chain
            prev = s


def test_boundary_onto_for_separated_towers():
    # one exempt vertex per tower: the index map surjects onto Z^p
    chain = build_case_iii(2, 2, (), 5)
    layer = chain.layer_graph(1)
    full = FiniteGraph(layer.vertices, layer.edges, ())
    kt_full = ktheory(full)
    exempt = sorted(layer.relation_exempt)
    assert len(exempt) == 2
    cols = [boundary_map(layer, x) for x in kt_full.k1_lattice.columns()]
    image = ColumnLattice(
        IntMatrix.from_rows([[c[i] for c in cols] for i in range(len(exempt))], cols=len(cols))
    )
    for i in range(len(exempt)):
        assert image.contains(tuple(1 if j == i else 0 for j in range(len(exempt))))


def test_ideal_class_commuting_square_along_chains():
    # the ideal class of an exempt vertex u, pushed along the layer inclusion,
    # is the class in the larger layer of u's relation row over the smaller
    # layer's out-edges: [u] minus [t(e)] for the edges e leaving u in layer n
    squares = 0
    for chain in (build_case_ii(3, 1, (2,), 5), build_case_iii(2, 1, (), 5)):
        kts = [ktheory(chain.layer_graph(n)) for n in range(len(chain))]
        for n in range(len(chain) - 1):
            f, g = chain.layer_graph(n), chain.layer_graph(n + 1)
            hom = inclusion_k0(kts[n], kts[n + 1])
            exempt, vidx = sorted(f.relation_exempt), g.vertex_index
            for u, small in zip(exempt, _relation_classes(kts[n], exempt)):
                assert u in g.relation_exempt
                vec = [0] * len(vidx)
                vec[vidx[u]] += 1
                for _, _, t in f.out_edges(u):
                    vec[vidx[t]] -= 1
                assert hom.codomain.class_of(hom.matrix.mat_vec(small)) == kts[n + 1].k0.class_of(vec)
                squares += 1
    assert squares == 8
