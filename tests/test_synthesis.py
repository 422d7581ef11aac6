"""Synthesis tests: constructions, per-layer structure, and roundtrips.

The tower constructions are pinned down by the linear relations they must
impose on degree-one representatives and degree-zero classes; those
relations are checked here literally, as functionals vanishing on the
computed lattices and as class equalities.
"""

import importlib
import json
import math
from collections import Counter

import pytest

from graphck import synthesis
from graphck.abelian import MAX_CORE_CELLS, parse_group_expr
from graphck.cli import main
from graphck.graphs import B2Report, FiniteGraph, check_condition_a, dump_graph, is_cycle, is_irreducible
from graphck.ktheory import chain_ktheory_report, ktheory
from graphck.synthesis import (
    MAX_BUILD_SIZE,
    VERIFICATION_WINDOW,
    SynthesisRequest,
    SynthesisResult,
    build_case_i,
    build_case_ii,
    build_case_iii,
    build_size,
    synthesize,
)


def functional_vanishes(kt, coeffs_by_vertex):
    """Does sum coeff(v) * x(v) vanish on every degree-one representative?"""
    order = {v: i for i, v in enumerate(kt.vertex_order)}
    for col in kt.k1_lattice.columns():
        total = sum(c * col[order[v]] for v, c in coeffs_by_vertex.items())
        if total != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# Case i
# ---------------------------------------------------------------------------


def test_case_i_smallest_incidence():
    g = build_case_i(1, ())
    # edge counts per (origin, terminus): one loop at each vertex, and one
    # edge each way between the hub z and each leaf
    assert sorted(g.vertices) == ["v1", "y", "z"]
    counts = Counter((o, t) for _, o, t in g.edges)
    assert counts == {
        ("v1", "v1"): 1, ("y", "y"): 1, ("z", "z"): 1,
        ("v1", "z"): 1, ("z", "v1"): 1, ("y", "z"): 1, ("z", "y"): 1,
    }  # fmt: skip


def test_case_i_parallel_bundles_give_torsion():
    g = build_case_i(0, (2,))
    # z has its loop plus a double edge onto w1
    assert sum(1 for _, o, t in g.edges if (o, t) == ("z", "w1")) == 2
    kt = ktheory(g)
    assert kt.k0.canonical_pair() == (0, (2,))
    assert kt.k1.is_trivial


def test_case_i_rejects_trivial_pair_and_bad_orders():
    with pytest.raises(ValueError):
        build_case_i(0, ())
    with pytest.raises(ValueError):
        build_case_i(1, (1,))


def test_orders_below_64_keep_their_bundle_of_parallel_edges():
    rest = [("w1->w1", "w1", "w1"), ("w1->y", "w1", "y"), ("y->y", "y", "y"), ("y->z", "y", "z"), ("z->z", "z", "z")]
    for n in range(2, 64):
        bundle = [("z->w1" if k == 1 else f"z->w1#{k}", "z", "w1") for k in range(1, n + 1)]
        assert build_case_i(0, (n,)).edges == tuple(sorted(bundle + rest)), n


def _class_order(k0, c):
    """The order of the torsion class ``c``, in canonical coordinates of ``k0``."""
    nfac = len(k0.invariant_factors)
    assert not any(c[nfac:])
    return math.lcm(*(n // math.gcd(x, n) for x, n in zip(c, k0.invariant_factors)))


@pytest.mark.parametrize("torsion", [(63,), (64,), (65,), (2**64,), (2**127 - 1,), (10**30,), (2, 10, 10**30)])
def test_gadget_orders_give_the_closed_form_groups(torsion):
    # the star has K0 = Z^l + sum Z/n_i and K1 = Z^l, [w_i] has order n_i,
    # and the gadget vertex c_i_j has class 2^j [w_i]
    for l in (0, 2):
        kt = ktheory(build_case_i(l, torsion))
        k0, classes = kt.k0, kt.k0_class_of_vertex
        assert (k0.canonical_pair(), kt.k1.canonical_pair()) == ((l, torsion), (l, ()))
        for i, n in enumerate(torsion, 1):
            w = classes[f"w{i}"]
            assert _class_order(k0, w) == n
            for j in range(1, max(n.bit_length() - 6, 0) + 1):
                assert classes[f"c{i}_{j}"] == k0.reduce_coords([2**j * x for x in w])
    # the chains' colimits are (Z^(l-p-1) + torsion, Z^(l-1)) and (Z^l + torsion, Z^(l-p))
    for build, l, p, want in [(build_case_ii, 3, 1, ((1, torsion), (2, ()))), (build_case_iii, 3, 2, ((3, torsion), (1, ())))]:
        rep = chain_ktheory_report(build(l, p, torsion, 6), window=VERIFICATION_WINDOW)
        assert rep.stabilized and (rep.k0.canonical_pair(), rep.k1.canonical_pair()) == want


# ---------------------------------------------------------------------------
# Case ii towers
# ---------------------------------------------------------------------------


def test_case_ii_degree_one_relations():
    l, p = 3, 1
    chain = build_case_ii(l, p, (2,), 5)
    for n in range(len(chain)):
        layer = chain.layer_graph(n)
        full = ktheory(FiniteGraph(layer.vertices, layer.edges, ()))
        # the leaf sum, x(v_1) + ... + x(v_l) + x(y), vanishes
        coeffs = {f"v{i}": 1 for i in range(1, l + 1)}
        coeffs["y"] = 1
        assert functional_vanishes(full, coeffs)
        # x(z) vanishes
        assert functional_vanishes(full, {"z": 1})
        # x(a_i_1) vanishes; deeper tower levels too
        for i in range(1, p + 2):
            for j in range(1, n + 2):
                assert functional_vanishes(full, {f"a_{i}_{j}": 1})
        # x(u) equals the sum over the feeding vertices
        coeffs = {f"v{i}": 1 for i in range(1, p + 2)}
        coeffs["u"] = -1
        assert functional_vanishes(full, coeffs)
        # x(b_i_j) = -x(u)
        for i in range(1, p + 2):
            assert functional_vanishes(full, {f"b_{i}_{n + 1}": 1, "u": 1})


def test_case_ii_layer_groups_and_kills():
    l, p = 3, 1
    chain = build_case_ii(l, p, (), 6)
    rep = chain_ktheory_report(chain, window=2)
    for n, kt in enumerate(rep.layer_results, rep.first):
        assert kt.k1.canonical_pair() == (l - 1, ())
        assert kt.k0.canonical_pair() == (l, ())
        # degree-zero classes stated to vanish: u, v_1..v_{p+1}, low tower levels
        zero = (0,) * kt.k0.ncoords
        assert kt.k0_class_of_vertex["u"] == zero
        for i in range(1, p + 2):
            assert kt.k0_class_of_vertex[f"v{i}"] == zero
            for j in range(1, n + 1):
                assert kt.k0_class_of_vertex[f"a_{i}_{j}"] == zero
            # the top tower class is a free generator, and b mirrors -a
            top = kt.k0_class_of_vertex[f"a_{i}_{n + 1}"]
            assert top != zero
            assert kt.k0_class_of_vertex[f"b_{i}_{n + 1}"] == kt.k0.reduce_coords([-x for x in top])
    for hom in rep.k0_homs:
        assert hom.kernel_rank() == p + 1
    for hom in rep.k1_homs:
        assert hom.is_isomorphism()


@pytest.mark.parametrize(
    "l,p,torsion,expected0,expected1",
    [
        (2, 1, (), "0", "Z"),
        (3, 1, (2,), "Z + Z/2", "Z^2"),
        (4, 2, (3,), "Z + Z/3", "Z^3"),
    ],
)
def test_case_ii_colimits(l, p, torsion, expected0, expected1):
    chain = build_case_ii(l, p, torsion, 6)
    rep = chain_ktheory_report(chain, window=2)
    assert rep.stabilized
    assert rep.k0.canonical_pair() == parse_group_expr(expected0).canonical_pair()
    assert rep.k1.canonical_pair() == parse_group_expr(expected1).canonical_pair()


# ---------------------------------------------------------------------------
# Case iii towers
# ---------------------------------------------------------------------------


def test_case_iii_degree_one_relations():
    l, p = 2, 1
    chain = build_case_iii(l, p, (), 5)
    for n in range(len(chain)):
        layer = chain.layer_graph(n)
        full = ktheory(FiniteGraph(layer.vertices, layer.edges, ()))
        for i in range(1, p + 1):
            # x(a_i_j) + x(b_i_j) = 0 at every level
            for j in range(1, n + 3):
                assert functional_vanishes(full, {f"a_{i}_{j}": 1, f"b_{i}_{j}": 1})
            # x(u_i) = x(v_i)
            assert functional_vanishes(full, {f"u{i}": 1, f"v{i}": -1})
            # x(b_i_j) = x(u_i), including the top level's shorter in-star
            for j in range(1, n + 3):
                assert functional_vanishes(full, {f"b_{i}_{j}": 1, f"u{i}": -1})


def test_case_iii_layer_groups_are_stable():
    l, p = 2, 1
    chain = build_case_iii(l, p, (3,), 6)
    rep = chain_ktheory_report(chain, window=2)
    base_kt = ktheory(build_case_i(l, (3,)))
    for n, kt in enumerate(rep.layer_results, rep.first):
        assert kt.k1.canonical_pair() == (l - p, ())
        assert kt.k0.canonical_pair() == base_kt.k0.canonical_pair()
        zero = (0,) * kt.k0.ncoords
        for i in range(1, p + 1):
            assert kt.k0_class_of_vertex[f"u{i}"] == zero
            for j in range(1, n + 3):
                assert kt.k0_class_of_vertex[f"b_{i}_{j}"] == zero
            # a_i_1 carries minus the class of its feeding vertex
            assert kt.k0_class_of_vertex[f"a_{i}_1"] == kt.k0.reduce_coords(
                [-x for x in kt.k0_class_of_vertex[f"v{i}"]]
            )
            for j in range(2, n + 3):
                assert kt.k0_class_of_vertex[f"a_{i}_{j}"] == zero
    for hom in rep.k0_homs:
        assert hom.is_isomorphism()
    for hom in rep.k1_homs:
        assert hom.is_isomorphism()


@pytest.mark.parametrize(
    "l,p,torsion,expected0,expected1",
    [
        (1, 1, (), "Z", "0"),
        (2, 1, (3,), "Z^2 + Z/3", "Z"),
        (3, 2, (2, 4), "Z^3 + Z/2 + Z/4", "Z"),
    ],
)
def test_case_iii_colimits(l, p, torsion, expected0, expected1):
    chain = build_case_iii(l, p, torsion, 6)
    rep = chain_ktheory_report(chain, window=2)
    assert rep.stabilized
    assert rep.k0.canonical_pair() == parse_group_expr(expected0).canonical_pair()
    assert rep.k1.canonical_pair() == parse_group_expr(expected1).canonical_pair()


def test_emitted_layers_pass_conditions():
    for chain in (build_case_ii(2, 1, (), 5), build_case_iii(3, 2, (2,), 5)):
        assert check_condition_a(chain).passed
        for n in range(len(chain)):
            layer = chain.layer_graph(n)
            g = FiniteGraph(layer.vertices, layer.edges)
            assert is_irreducible(g) and not is_cycle(g)


@pytest.mark.parametrize("depth", [4, 5, 7])
def test_padded_prefix_is_the_shallow_build(depth):
    # synthesis emits the prefix of the chain it verified
    params = [(build_case_ii, l, p) for l in (2, 3, 4) for p in range(1, l)]
    params += [(build_case_iii, l, p) for l in (1, 2, 3) for p in range(1, l + 1)]
    for build, l, p in params:
        for torsion in ((), (2,), (3, 9)):
            padded = build(l, p, torsion, depth + 2)
            assert dump_graph(padded.prefix(depth)) == dump_graph(build(l, p, torsion, depth))


# ---------------------------------------------------------------------------
# Synthesis dispatch
# ---------------------------------------------------------------------------


def run(expr0, expr1, depth=6) -> SynthesisResult:
    return synthesize(SynthesisRequest(parse_group_expr(expr0), parse_group_expr(expr1), depth))


def test_synthesize_equal_ranks():
    res = run("Z^2", "Z^2")
    assert res.case_tag == "i"
    assert res.parameters["l"] == 2
    assert res.verification.passed


def test_synthesize_p_infinity():
    res = run("0", "Z")
    assert res.case_tag == "ii"
    assert (res.parameters["l"], res.parameters["p"]) == (2, 1)
    assert res.verification.passed
    assert res.verification.stabilized
    b2 = res.verification.condition_b2
    assert b2.passed and not b2.unchecked


def test_synthesize_torsion_heavy():
    res = run("Z + Z/2 + Z/4", "0")
    assert res.case_tag == "iii"
    assert (res.parameters["l"], res.parameters["p"]) == (1, 1)
    assert res.parameters["torsion"] == [2, 4]
    assert res.verification.passed


def test_synthesize_rejects_torsion_in_degree_one():
    with pytest.raises(ValueError):
        SynthesisRequest(parse_group_expr("Z"), parse_group_expr("Z/2"))


def test_synthesize_rejects_trivial_pair():
    with pytest.raises(ValueError):
        run("0", "0")


def test_build_size_counts_what_the_constructions_build():
    for r0 in range(4):
        for r1 in range(4):
            for torsion in [(), (2,), (2, 6), (3, 3, 9), (63,), (64,), (65,), (1000,), (2**127 - 1,)]:
                for depth in (4, 7):
                    edges, vertices, layers, coords = build_size(r0, torsion, r1, depth)
                    if r0 == r1:
                        if not r0 and not torsion:
                            continue
                        graph = build_case_i(r0, torsion)
                        built, verified = (len(graph.edges), len(graph.vertices), 1), [ktheory(graph)]
                    else:
                        build, l, p = (build_case_ii, r1 + 1, r1 - r0) if r0 < r1 else (build_case_iii, r0, r0 - r1)
                        chain = build(l, p, torsion, depth + VERIFICATION_WINDOW)
                        built = (len(chain.edges), len(chain.first), len(chain))
                        verified = chain_ktheory_report(chain, window=VERIFICATION_WINDOW).layer_results
                    assert (edges, vertices, layers) == built, (r0, r1, torsion, depth)
                    assert coords >= max(kt.k0.ncoords for kt in verified), (r0, r1, torsion, depth)


def test_synthesize_refuses_requests_above_the_size_bound():
    # the largest request of each shape under the bound is accepted (and not
    # built here); one more unit of rank is refused, from the text or from
    # the groups
    refused = rf"edges plus vertices times \(layers \+ K0 coordinates\) than the bound of {MAX_BUILD_SIZE}\b"
    for k0, k1, depth, rank in [
        ("Z^{}", "Z^{}", 6, 997),  # case i: 2,995 edges + 999 vertices x (1 + 997) = 999,997
        ("0", "Z^{}", 4, 271),  # case ii
        ("0", "Z^{}", 64, 57),
        ("Z^{}", "0", 4, 245),  # case iii
        ("Z^{}", "0", 64, 57),
    ]:
        req = SynthesisRequest.parse(k0.format(rank), k1.format(rank), depth)
        assert (req.g0, req.g1) == (parse_group_expr(k0.format(rank)), parse_group_expr(k1.format(rank)))
        over = k0.format(rank + 1), k1.format(rank + 1)
        with pytest.raises(ValueError, match=refused):
            SynthesisRequest.parse(*over, depth)
        with pytest.raises(ValueError, match=refused):
            SynthesisRequest(parse_group_expr(over[0]), parse_group_expr(over[1]), depth)
    # the chain for (Z, Z^2) is admitted up to depth 494
    assert SynthesisRequest.parse("Z", "Z^2", 494).depth == 494
    # huge ranks and depths are refused from the parsed text
    for k0, k1, depth in [("Z", "Z^2", 495), ("Z^" + "9" * 20, "Z", 6), ("Z", "Z^2", 10**6)]:
        with pytest.raises(ValueError, match=refused):
            SynthesisRequest.parse(k0, k1, depth)
    # a torsion order counts ceil(bits / 64) K0 coordinates; the smallest
    # order refused for each shape is 2^(b - 1) + 2^j - 1, and one less is
    # admitted with a count of exactly 1,000,000
    for k0, k1, n in [
        ("Z/{}", "0", 2**7872 + 2**480 - 1),  # case i, 7,873 bits
        ("Z + Z/{}", "Z^2", 2**7542 + 2**7463 - 1),  # case ii, 7,543 bits
        ("Z^3 + Z/{}", "Z", 2**7537 + 2**7477 - 1),  # case iii, 7,538 bits
    ]:
        assert SynthesisRequest.parse(k0.format(n - 1), k1).g0 == parse_group_expr(k0.format(n - 1))
        with pytest.raises(ValueError, match=refused):
            SynthesisRequest.parse(k0.format(n), k1)
        with pytest.raises(ValueError, match=refused):
            SynthesisRequest(parse_group_expr(k0.format(n)), parse_group_expr(k1))


def test_synthesize_refuses_more_torsion_orders_than_its_smith_cores_hold(monkeypatch):
    # k orders leave a k x k Smith-form core in the star and a 2k x k one in
    # a chain's colimit; the most orders of each kind verify, and one more
    # is refused before any graph is built
    for k0, k1, k in [("{}", "0", 200), ("Z^3 + {}", "Z", 141)]:
        res = synthesize(SynthesisRequest.parse(k0.format(" + ".join(["Z/2"] * k)), k1))
        assert res.verification.passed and res.verification.k0.invariant_factors == (2,) * k
    for name in ("build_case_i", "build_case_ii", "build_case_iii"):
        monkeypatch.setattr(synthesis, name, None)
    for k0, k1, core in [("{}", "0", "201x201"), ("Z^3 + {}", "Z", "284x142"), ("{}", "Z", "284x142")]:
        k = int(core.split("x")[1])
        text = k0.format(" + ".join(["Z/2"] * k))
        refused = rf"^{k} torsion orders would leave a {core} Smith-form core .* bound of {MAX_CORE_CELLS} cells$"
        with pytest.raises(ValueError, match=refused):
            SynthesisRequest.parse(text, k1)
        with pytest.raises(ValueError, match=refused):
            SynthesisRequest(parse_group_expr(text), parse_group_expr(k1))
        assert main(["synthesize", "--k0", text, "--k1", k1]) == 2


def test_synthesize_b2_witnesses_match_towers():
    res = run("0", "Z^2", depth=4)  # case ii with l = 3, p = 2
    b2 = res.verification.condition_b2
    assert b2.passed and not b2.unchecked
    # every deep tower vertex found a first-layer twin of the same kind
    for u, v in b2.matches.items():
        assert u[0] == v[0]  # a-vertices match a-vertices, b match b


@pytest.mark.parametrize(
    "expr0,expr1",
    [("Z/2", "0"), ("Z^2 + Z/9", "Z^2"), ("Z/3", "Z"), ("Z^2", "Z"), ("0", "Z^3")],
)
def test_synthesize_mini_grid(expr0, expr1):
    res = run(expr0, expr1, depth=4)
    assert res.verification.passed, res.verification.messages
    assert res.verification.k0.canonical_pair() == parse_group_expr(expr0).canonical_pair()
    assert res.verification.k1.canonical_pair() == parse_group_expr(expr1).canonical_pair()


@pytest.mark.parametrize("expr0,expr1", [("Z", "Z^2"), ("Z^2 + Z/3", "Z")])
def test_synthesize_checks_layer_conditions_once(monkeypatch, expr0, expr1):
    lengths = []

    def counting(chain):
        lengths.append(len(chain))
        return check_condition_a(chain)

    # the package binds the name ``ktheory`` to the function, so look the
    # modules up by name
    for name in ("graphs", "ktheory", "synthesis"):
        module = importlib.import_module(f"graphck.{name}")
        monkeypatch.setattr(module, "check_condition_a", counting, raising=False)
    res = run(expr0, expr1, depth=5)
    assert res.verification.passed and res.verification.condition_a.passed
    assert lengths == [5 + VERIFICATION_WINDOW]


@pytest.mark.parametrize("expr0,expr1", [("Z", "Z^2"), ("Z^2 + Z/3", "Z")])
def test_synthesize_checks_b2_once_on_the_emitted_chain(monkeypatch, expr0, expr1):
    graphs_mod = importlib.import_module("graphck.graphs")
    orig = graphs_mod.check_condition_b2
    lengths = []

    def counting(chain, k0_class):
        lengths.append(len(chain))
        return orig(chain, k0_class)

    for name in ("graphs", "ktheory", "synthesis"):
        module = importlib.import_module(f"graphck.{name}")
        monkeypatch.setattr(module, "check_condition_b2", counting, raising=False)
    res = run(expr0, expr1, depth=5)
    assert res.verification.passed and res.verification.condition_b2.passed
    assert lengths == [5]


def _b2_failing(chain, k0_class):
    return B2Report(failures={"a_1_3": "no layer-0 vertex with an isomorphic out-star"})


@pytest.mark.parametrize(
    "k0,k1,patches,checks,messages",
    [
        (
            "Z",
            "Z",
            {"is_cycle": lambda graph: True},
            {"irreducible": True, "not_a_cycle": False, "k0": True, "k1": True},
            ["graph is a cycle"],
        ),
        (
            "Z",
            "Z",
            {"is_irreducible": lambda graph: False, "is_cycle": lambda graph: True},
            {"irreducible": False, "not_a_cycle": False, "k0": True, "k1": True},
            ["graph is not strongly connected", "graph is a cycle"],
        ),
        (
            "Z",
            "Z^2",
            {"check_condition_b2": _b2_failing},
            {"stabilized": True, "b2": False, "k0": True, "k1": True},
            ["emitted chain fails the out-star matching"],
        ),
    ],
    ids=["cycle", "reducible_cycle", "b2"],
)
def test_verification_keeps_a_boolean_per_named_check(monkeypatch, capsys, k0, k1, patches, checks, messages):
    synthesis_mod = importlib.import_module("graphck.synthesis")
    for name, fake in patches.items():
        monkeypatch.setattr(synthesis_mod, name, fake)
    verification = run(k0, k1, depth=4).verification
    assert verification.verdict.checks == checks
    assert not verification.passed and verification.messages == messages
    code = main(["synthesize", "--k0", k0, "--k1", k1, "--depth", "4"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and out["verified"] is False and out["messages"] == messages
