"""Graphs realizing prescribed K-theory, with mandatory self-verification.

Given a pair of finitely generated abelian groups (G0, G1) with G1 free, a
graph (or chain of graphs) is constructed whose algebra has exactly that
K-theory.  Three constructions cover the rank comparison:

* case i   (rank G0 == rank G1): one finite graph on vertices v1..vl, z,
  w1..wk, where the v-block and the return vertex give the free part and a
  chain of parallel-edge bundles z -> w1 -> ... -> wk gives the torsion;
  every vertex carries one extra loop.  With no torsion the incidence matrix
  is the all-ones matrix plus the identity.
* case ii  (rank G0 < rank G1): the case-i graph plus one infinite-valence
  vertex u and p+1 descending towers a_i_* with companion vertices b_i_*;
  each tower kills one free generator of degree zero per layer while fixing
  degree one, so the limit loses p+1 free ranks in degree zero.
* case iii (rank G0 > rank G1): the case-i graph plus one infinite-valence
  vertex u_i per tower; the towers pin degree zero layerwise and cut p free
  ranks out of degree one.

The towers are reconstructed from the linear relations they must impose
(each construction is re-verified mechanically on every build: layer
conditions, per-layer groups, inclusion behavior, and the colimit), so a
bad reconstruction cannot go unnoticed.  Its named checks go into a
``graphs.Verdict``, whose witnesses are the messages reported for failures.

Vertex names are fixed (v1.., z, w1.., u or u1.., a_i_j, b_i_j) so that
regenerated graphs are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .abelian import FgAbelianGroup, format_group, parse_group_pair
from .graphs import (
    B2Report,
    FiniteGraph,
    GraphChain,
    Verdict,
    check_condition_b2,
    is_cycle,
    is_irreducible,
)
from .ktheory import chain_ktheory_report, ktheory

VERIFICATION_WINDOW = 2
# requests whose construction would hold more edges than this, counted once
# per layer of the chain, are refused before anything is built: a chain's
# JSON lists every layer's vertices, which this count bounds (``edge_layers``).
# Near the bound a build peaks below 500 MB; the largest equal-rank graph,
# for (Z^998, Z^998), takes about six seconds (2-core x86-64, Python 3.11)
MAX_EDGE_LAYERS = 1_000_000


class EdgeBag:
    """Accumulates edges with deterministic parallel-edge naming."""

    def __init__(self):
        self._count: dict[tuple[str, str], int] = {}
        self.edges: list[tuple[str, str, str]] = []

    def add(self, origin: str, terminus: str, copies: int = 1) -> None:
        for _ in range(copies):
            k = self._count.get((origin, terminus), 0) + 1
            self._count[(origin, terminus)] = k
            eid = f"{origin}->{terminus}" if k == 1 else f"{origin}->{terminus}#{k}"
            self.edges.append((eid, origin, terminus))


def _base_vertices(l: int, torsion: Sequence[int]) -> list[str]:
    return [f"v{i}" for i in range(1, l + 1)] + ["z"] + [f"w{i}" for i in range(1, len(torsion) + 1)]


def _base_edges(bag: EdgeBag, l: int, torsion: Sequence[int]) -> None:
    k = len(torsion)
    vs_and_z = [f"v{i}" for i in range(1, l + 1)] + ["z"]
    for i in range(1, l + 1):
        for t in vs_and_z:
            bag.add(f"v{i}", t)
    if k == 0:
        for t in vs_and_z:
            bag.add("z", t)
    else:
        bag.add("z", "w1", copies=torsion[0])
        for i in range(1, k):
            bag.add(f"w{i}", f"w{i + 1}", copies=torsion[i])
        for t in vs_and_z:
            bag.add(f"w{k}", t)
    for v in _base_vertices(l, torsion):
        bag.add(v, v)  # the extra loop at every vertex


def build_case_i(l: int, torsion: Sequence[int] = ()) -> FiniteGraph:
    """Finite graph with K0 = Z^l + sum Z/n_i and K1 = Z^l, relations everywhere."""
    torsion = tuple(int(n) for n in torsion)
    if l < 0:
        raise ValueError("free rank must be nonnegative")
    if any(n < 2 for n in torsion):
        raise ValueError("torsion orders must be >= 2")
    if l + len(torsion) < 1:
        raise ValueError("the trivial pair (0, 0) is not realized by this construction")
    bag = EdgeBag()
    _base_edges(bag, l, torsion)
    return FiniteGraph(_base_vertices(l, torsion), bag.edges)


def build_case_ii(l: int, p: int, torsion: Sequence[int] = (), depth: int = 6) -> GraphChain:
    """Chain whose colimit K-theory is (Z^{l-p-1} + torsion, Z^{l-1}).

    One shared infinite-valence vertex u; towers i = 1..p+1 with vertices
    a_i_j, b_i_j for j = 1..n+1 at layer n.  Tower edges: a_i_1 -> v_i plus
    one loop; a_i_j -> a_i_{j-1} plus one loop for j >= 2; b_i_j carries two
    loops and b_i_j -> a_i_j; u emits to every a_i_j and b_i_j; v_i -> u for
    i <= p+1.
    """
    torsion = tuple(int(n) for n in torsion)
    if not 0 < p < l or l <= 1:
        raise ValueError("need 0 < p < l and l > 1")
    if depth < 4:
        raise ValueError("depth must be at least 4")
    if any(n < 2 for n in torsion):
        raise ValueError("torsion orders must be >= 2")
    bag = EdgeBag()
    _base_edges(bag, l, torsion)
    first = dict.fromkeys([*_base_vertices(l, torsion), "u"], 0)
    maxj = depth  # layer n holds j <= n+1, topmost layer is depth-1
    for i in range(1, p + 2):
        bag.add(f"v{i}", "u")
        bag.add(f"a_{i}_1", f"v{i}")
        bag.add(f"a_{i}_1", f"a_{i}_1")
        for j in range(2, maxj + 1):
            bag.add(f"a_{i}_{j}", f"a_{i}_{j - 1}")
            bag.add(f"a_{i}_{j}", f"a_{i}_{j}")
        for j in range(1, maxj + 1):
            a, b = f"a_{i}_{j}", f"b_{i}_{j}"
            first[a] = first[b] = j - 1
            bag.add(b, b, copies=2)
            bag.add(b, a)
            bag.add("u", a)
            bag.add("u", b)
    return GraphChain._of(frozenset({"u"}), first, depth, tuple(sorted(bag.edges)))


def build_case_iii(l: int, p: int, torsion: Sequence[int] = (), depth: int = 6) -> GraphChain:
    """Chain whose colimit K-theory is (Z^l + torsion, Z^{l-p}).

    One infinite-valence vertex u_i per tower i = 1..p, with vertices a_i_j,
    b_i_j for j = 1..n+2 at layer n.  Tower edges: v_i -> u_i; u_i -> b_i_j
    for every j; a_i_1 -> v_i plus two loops; a_i_j -> b_i_{j-1} plus two
    loops for j >= 2; b_i_1 -> a_i_1 and b_i_1 -> v_i; b_i_j -> a_i_j and
    b_i_j -> b_i_{j-1} for j >= 2.
    """
    torsion = tuple(int(n) for n in torsion)
    if not 0 < p <= l or l < 1:
        raise ValueError("need 0 < p <= l and l >= 1")
    if depth < 4:
        raise ValueError("depth must be at least 4")
    if any(n < 2 for n in torsion):
        raise ValueError("torsion orders must be >= 2")
    bag = EdgeBag()
    _base_edges(bag, l, torsion)
    d = frozenset(f"u{i}" for i in range(1, p + 1))
    first = dict.fromkeys([*_base_vertices(l, torsion), *d], 0)
    maxj = depth + 1  # layer n holds j <= n+2, topmost layer is depth-1
    for i in range(1, p + 1):
        ui = f"u{i}"
        bag.add(f"v{i}", ui)
        bag.add(f"a_{i}_1", f"v{i}")
        bag.add(f"a_{i}_1", f"a_{i}_1", copies=2)
        for j in range(2, maxj + 1):
            bag.add(f"a_{i}_{j}", f"b_{i}_{j - 1}")
            bag.add(f"a_{i}_{j}", f"a_{i}_{j}", copies=2)
        bag.add(f"b_{i}_1", f"a_{i}_1")
        bag.add(f"b_{i}_1", f"v{i}")
        for j in range(2, maxj + 1):
            bag.add(f"b_{i}_{j}", f"a_{i}_{j}")
            bag.add(f"b_{i}_{j}", f"b_{i}_{j - 1}")
        for j in range(1, maxj + 1):
            b = f"b_{i}_{j}"
            first[f"a_{i}_{j}"] = first[b] = max(j - 2, 0)
            bag.add(ui, b)
    return GraphChain._of(d, first, depth, tuple(sorted(bag.edges)))


# ---------------------------------------------------------------------------
# Synthesis driver
# ---------------------------------------------------------------------------


def edge_layers(r0: int, torsion: Sequence[int], r1: int, depth: int) -> int:
    """Edges of the construction for ranks (r0, r1), times its layers.

    Case i is one graph.  A chain is built with ``depth +
    VERIFICATION_WINDOW`` layers.  Verification builds only the graphs of
    the final stretch.  The emitted chain's JSON lists each edge once and
    every layer's vertices, so its size grows as vertices times layers;
    every vertex emits an edge, so this count bounds it.  The counts follow
    the constructions: the case-i part has (l+1)(l+2) + sum(torsion) +
    len(torsion) edges, and each tower 1 + 7 maxj (case ii) or 1 + 6 maxj
    (case iii) edges.
    """

    def base(l: int) -> int:
        return (l + 1) * (l + 2) + sum(torsion) + len(torsion)

    if r0 == r1:
        return base(r0)
    layers = depth + VERIFICATION_WINDOW
    if r0 < r1:
        edges = base(r1 + 1) + (r1 - r0 + 1) * (1 + 7 * layers)
    else:
        edges = base(r0) + (r0 - r1) * (1 + 6 * (layers + 1))
    return edges * layers


def _check_size(r0: int, torsion: Sequence[int], r1: int, depth: int) -> None:
    if edge_layers(r0, torsion, r1, depth) > MAX_EDGE_LAYERS:
        raise ValueError(
            f"the construction would build more edges over its verified layers "
            f"than the bound of {MAX_EDGE_LAYERS}"
        )


@dataclass(frozen=True)
class SynthesisRequest:
    g0: FgAbelianGroup
    g1: FgAbelianGroup
    depth: int = 6

    def __post_init__(self):
        if self.g1.invariant_factors:
            raise ValueError("the realization construction requires a free degree-one group")
        if self.depth < 4:
            raise ValueError("depth must be at least 4")
        _check_size(self.g0.free_rank, self.g0.invariant_factors, self.g1.free_rank, self.depth)
        if self.g0.is_trivial and self.g1.is_trivial:
            raise ValueError("the trivial pair (0, 0) is not realized by this construction")

    @classmethod
    def parse(cls, k0: str, k1: str, depth: int = 6) -> "SynthesisRequest":
        """The request for two group expressions.

        The size bound is checked on the parsed ranks before either group is
        built, since a group allocates per unit of rank.
        """
        (r0, torsion0), (r1, torsion1) = parse_group_pair(k0), parse_group_pair(k1)
        _check_size(r0, torsion0, r1, depth)
        return cls(FgAbelianGroup.canonical(r0, torsion0), FgAbelianGroup.canonical(r1, torsion1), depth)


@dataclass
class Verification:
    """The re-verification of a build: its named checks in ``verdict``, and
    the groups and reports they were read from."""

    verdict: Verdict
    k0: FgAbelianGroup
    k1: FgAbelianGroup
    stabilized: bool
    condition_a: Verdict | None = None
    condition_b2: B2Report | None = None

    @property
    def passed(self) -> bool:
        return self.verdict.passed

    @property
    def messages(self) -> list[str]:
        return list(self.verdict.witnesses.values())


@dataclass
class SynthesisResult:
    graph: FiniteGraph | GraphChain
    case_tag: str  # "i" | "ii" | "iii"
    parameters: dict
    verification: Verification

    def to_json_dict(self) -> dict:
        out = {
            "case": self.case_tag,
            "parameters": dict(self.parameters),
            "verified": self.verification.passed,
            "k0": format_group(self.verification.k0),
            "k1": format_group(self.verification.k1),
        }
        if self.verification.messages:
            out["messages"] = self.verification.messages
        return out


def _record_groups(verdict: Verdict, k0: FgAbelianGroup, k1: FgAbelianGroup, req: SynthesisRequest) -> None:
    """Record checks ``k0`` and ``k1``: is each built group the requested one?"""
    for name, degree, got, want in (("k0", "zero", k0, req.g0), ("k1", "one", k1, req.g1)):
        verdict.record(name, f"degree-{degree} mismatch: got {format_group(got)}" if got != want else None)


def _verify_finite(graph: FiniteGraph, req: SynthesisRequest) -> Verification:
    kt = ktheory(graph)
    verdict = Verdict()
    verdict.record("irreducible", None if is_irreducible(graph) else "graph is not strongly connected")
    verdict.record("not_a_cycle", "graph is a cycle" if is_cycle(graph) else None)
    _record_groups(verdict, kt.k0, kt.k1, req)
    return Verification(verdict, kt.k0, kt.k1, stabilized=True)


def _verify_chain(emitted: GraphChain, padded: GraphChain, req: SynthesisRequest) -> Verification:
    """Verify ``emitted``, the first ``req.depth`` layers of ``padded``.

    The layer conditions (a1)-(a6) are checked once, on the padded chain,
    by ``chain_ktheory_report``, which raises ``ChainConditionError`` when
    one fails.  They carry over to the emitted chain: it is an induced
    prefix, so its layers are the padded chain's first layers with the same
    induced edge sets (a2, a3), its edges are a subset of the padded edges
    (a4, a5), and its infinite-valence vertices are those of the padded
    chain in its layers, with every padded edge between its vertices kept
    (a1, a6).  The report computes the groups and inclusion maps of the
    final stretch of the padded chain, the layers its colimits read; the
    inclusions before it hold by construction.  The out-star matching (b2)
    is checked once, on the emitted chain with the padded report's class
    map, which gives every emitted vertex a class.
    """
    rep = chain_ktheory_report(padded, window=VERIFICATION_WINDOW)
    cond_b2 = check_condition_b2(emitted, rep.k0_class_map)
    verdict = Verdict()
    verdict.record("stabilized", None if rep.stabilized else "colimit did not stabilize at the verification window")
    b2_ok = cond_b2.passed and not cond_b2.unchecked
    verdict.record("b2", None if b2_ok else "emitted chain fails the out-star matching")
    _record_groups(verdict, rep.k0, rep.k1, req)
    return Verification(verdict, rep.k0, rep.k1, rep.stabilized, condition_a=rep.condition_a, condition_b2=cond_b2)


def synthesize(req: SynthesisRequest) -> SynthesisResult:
    """Build and verify a graph whose algebra has the requested K-theory.

    Dispatch on the rank comparison; the verification always recomputes the
    K-theory of what was built and the pass flag is set only on exact
    isomorphism with the request.  A chain is built once, padded by the
    verification window so that every emitted vertex gets a colimit class
    for the out-star matching; the padded chain is verified and its first
    ``req.depth`` layers are emitted.
    """
    r0, r1 = req.g0.free_rank, req.g1.free_rank
    torsion = req.g0.invariant_factors
    if r0 == r1:
        graph = build_case_i(r0, torsion)
        return SynthesisResult(
            graph=graph,
            case_tag="i",
            parameters={"l": r0, "p": 0, "torsion": list(torsion), "depth": None},
            verification=_verify_finite(graph, req),
        )
    if r0 < r1:
        case_tag, l, p = "ii", r1 + 1, r1 - r0
        padded = build_case_ii(l, p, torsion, req.depth + VERIFICATION_WINDOW)
    else:
        case_tag, l, p = "iii", r0, r0 - r1
        padded = build_case_iii(l, p, torsion, req.depth + VERIFICATION_WINDOW)
    emitted = padded.prefix(req.depth)
    return SynthesisResult(
        graph=emitted,
        case_tag=case_tag,
        parameters={"l": l, "p": p, "torsion": list(torsion), "depth": req.depth},
        verification=_verify_chain(emitted, padded, req),
    )
