"""Graphs realizing prescribed K-theory, with mandatory self-verification.

Given a pair of finitely generated abelian groups (G0, G1) with G1 free, a
graph (or chain of graphs) is constructed whose algebra has exactly that
K-theory.  Three constructions cover the rank comparison:

* case i   (rank G0 == rank G1): one finite graph, a star.  A path z ->
  w1 -> ... -> wk of looped vertices ends in the hub (z with no torsion),
  which has an edge to each looped leaf v1..vl, y, which has one back to z.
  Step i is n_i parallel edges or, with m = bits(n_i) - ``BUNDLE_BITS`` >
  0, n_i >> m edges to c_i_m, one to c_i_j per set bit j < m of n_i, and
  two edges c_i_j -> c_i_(j-1) (c_i_0 = w_i): [c_i_j] = 2^j [w_i].  The
  relations are [z] = 0, the leaf sum [v1] + ... + [vl] + [y] = 0 and n_i
  [w_i] = 0, so K0 = Z^l + sum Z/n_i and K1 = Z^l, spanned by e_{v_i} - e_y.
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

Vertex names are fixed (v1.., y, z, w1.., c_i_j, u or u1.., a_i_j, b_i_j) so
that regenerated graphs are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .abelian import MAX_CORE_CELLS, FgAbelianGroup, format_group, parse_group_pair
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
# a request whose edges + vertices x (layers + K0 coordinates), from
# ``build_size``, exceed this is refused before anything is built: the count
# bounds the emitted JSON (each edge once, every layer's vertices) and the
# dense K0 class maps of verification, in 64-bit words.  At the bound, equal
# ranks, (0, Z^r), (Z^r, 0) and (Z, Z^2) take at most 2.5 s and 120 MB in
# process, with their JSON, and 1 to 64 torsion orders of up to 7,872 bits
# at most 1.7 s and 131 MB (2-core x86-64, Python 3.11).  Nearly equal ranks
# cost more: (Z^975, Z^976) at depth 6 and (Z^950, Z^951) at depth 16 take
# 3.6-3.9 s and 143-147 MB
MAX_BUILD_SIZE = 1_000_000
# orders of up to this many bits stay bundles: a gadget for every order cost
# ``synth_chains``, whose orders are all below 64, a tenth of its throughput
BUNDLE_BITS = 6


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


def _star(bag: EdgeBag, l: int, torsion: Sequence[int]) -> list[str]:
    """Add the edges of the case-i star (see the module docstring) to ``bag``
    and return its vertices.  The c_i_j sort before the path, so that the
    Smith form's presolve pivots on their rows before an origin's single-bit
    edge, and k orders leave a k x k core (200 of Z/1000 left 397x397 when
    named after w_i)."""
    if any(n < 2 for n in torsion):
        raise ValueError("torsion orders must be >= 2")
    ws = [f"w{i}" for i in range(1, len(torsion) + 1)]
    path, gadgets = ["z", *ws], []
    for i, (origin, terminus, n) in enumerate(zip(path, ws, torsion), 1):
        n = int(n)
        m = max(n.bit_length() - BUNDLE_BITS, 0)
        c = [terminus, *(f"c{i}_{j}" for j in range(1, m + 1))]
        for j in range(1, m + 1):
            bag.add(c[j], c[j - 1], copies=2)
        bag.add(origin, c[m], copies=n >> m)
        for j in range(m):
            if n >> j & 1:
                bag.add(origin, c[j])
        gadgets += c[1:]
    leaves = [*(f"v{i}" for i in range(1, l + 1)), "y"]
    for v in leaves:
        bag.add(v, "z")
        bag.add(path[-1], v)
    for v in leaves + path:
        bag.add(v, v)
    return leaves + path + gadgets


def build_case_i(l: int, torsion: Sequence[int] = ()) -> FiniteGraph:
    """Finite graph with K0 = Z^l + sum Z/n_i and K1 = Z^l, relations everywhere:
    the star of the module docstring, of the size ``build_size`` counts."""
    if l < 0:
        raise ValueError("free rank must be nonnegative")
    if l + len(torsion) < 1:
        raise ValueError("the trivial pair (0, 0) is not realized by this construction")
    bag = EdgeBag()
    return FiniteGraph(_star(bag, l, torsion), bag.edges)


def build_case_ii(l: int, p: int, torsion: Sequence[int] = (), depth: int = 6) -> GraphChain:
    """Chain whose colimit K-theory is (Z^{l-p-1} + torsion, Z^{l-1}).

    One shared infinite-valence vertex u; towers i = 1..p+1 with vertices
    a_i_j, b_i_j for j = 1..n+1 at layer n.  Tower edges: a_i_1 -> v_i plus
    one loop; a_i_j -> a_i_{j-1} plus one loop for j >= 2; b_i_j carries two
    loops and b_i_j -> a_i_j; u emits to every a_i_j and b_i_j; v_i -> u for
    i <= p+1.
    """
    if not 0 < p < l or l <= 1:
        raise ValueError("need 0 < p < l and l > 1")
    if depth < 4:
        raise ValueError("depth must be at least 4")
    bag = EdgeBag()
    first = dict.fromkeys([*_star(bag, l, torsion), "u"], 0)
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
    if not 0 < p <= l or l < 1:
        raise ValueError("need 0 < p <= l and l >= 1")
    if depth < 4:
        raise ValueError("depth must be at least 4")
    bag = EdgeBag()
    d = frozenset(f"u{i}" for i in range(1, p + 1))
    first = dict.fromkeys([*_star(bag, l, torsion), *d], 0)
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


def build_size(r0: int, torsion: Sequence[int], r1: int, depth: int) -> tuple[int, int, int, int]:
    """The edges, vertices, layers and K0 coordinates of the construction for
    ranks (r0, r1), in closed form.

    The case-i star with leaves v1..vl, y and k torsion orders has 3l + 4 +
    k edges and l + 2 + k vertices, and each order n of b bits adds n edges,
    or with m = b - ``BUNDLE_BITS`` > 0, 2m + (n >> m) + popcount(n mod 2^m)
    edges and m vertices.  K0 has l coordinates and ceil(b / 64) words per
    order, l + k below 2^64.  A chain has ``depth + VERIFICATION_WINDOW``
    layers, and each tower adds 1 + 7 maxj edges and 2 maxj vertices besides
    the shared u (case ii), or 1 + 6 maxj edges and 1 + 2 maxj vertices
    (case iii).
    """
    k, layers = len(torsion), depth + VERIFICATION_WINDOW
    l = r1 + 1 if r0 < r1 else r0
    edges, vertices, coords = 3 * l + 4 + k, l + 2 + k, l
    for n in torsion:
        m = max(n.bit_length() - BUNDLE_BITS, 0)
        edges += 2 * m + (n >> m) + (n & ((1 << m) - 1)).bit_count()
        vertices += m
        coords += -(-n.bit_length() // 64)
    if r0 == r1:
        return edges, vertices, 1, coords
    if r0 < r1:  # r1 - r0 + 1 towers with maxj = layers
        edges += (r1 - r0 + 1) * (1 + 7 * layers)
        vertices += 1 + (r1 - r0 + 1) * 2 * layers
    else:  # r0 - r1 towers with maxj = layers + 1
        edges += (r0 - r1) * (7 + 6 * layers)
        vertices += (r0 - r1) * (3 + 2 * layers)
    return edges, vertices, layers, coords


def _check_size(r0: int, torsion: Sequence[int], r1: int, depth: int) -> None:
    # k orders leave a k x k Smith-form core in the star, 2k x k in a chain's colimit
    k = len(torsion)
    rows = k if r0 == r1 else 2 * k
    if rows * k > MAX_CORE_CELLS:
        raise ValueError(
            f"{k} torsion orders would leave a {rows}x{k} Smith-form core without unit entries, "
            f"above the bound of {MAX_CORE_CELLS} cells"
        )
    edges, vertices, layers, coords = build_size(r0, torsion, r1, depth)
    size = edges + vertices * (layers + coords)
    if size > MAX_BUILD_SIZE:
        raise ValueError(
            f"the construction would build more edges plus vertices times (layers + K0 coordinates) "
            f"than the bound of {MAX_BUILD_SIZE}: {size}"
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
