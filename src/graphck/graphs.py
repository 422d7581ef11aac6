"""Directed multigraphs, chain presentations of infinite graphs, checkers.

A ``FiniteGraph`` is a directed multigraph (parallel edges and loops allowed)
together with the set of vertices where the summation relation of the
associated algebra is *not* imposed (``relation_exempt``); the complement is
the relation set S.  A ``GraphChain`` presents an infinite graph through an
increasing chain of finite vertex layers plus the edge list of the union
prefix; layer edge sets are always induced (edges with both endpoints in the
layer), which removes a whole class of inconsistent inputs.

The structural conditions checked here:

* (a1)  infinite-valence vertices all sit in the first layer;
* (a2)  every layer is nonempty, irreducible (strongly connected) and not a
        cycle;
* (a3)  layer edge sets are induced (tautological here, still reported);
* (a4)  finite-valence layer vertices keep all their out-edges in the layer;
* (a5)  in-neighbors of layer n sit in layer n+1;
* (a6)  every infinite-valence vertex emits into every new layer.

Condition (b2) asks, for each finite-valence vertex u outside the first
layer, for a vertex v in the first layer whose out-star is isomorphic to
u's, matching loop shape, edge multiplicity per terminus, and the classes of
the termini in a supplied degree-zero K-group; the search is a finite
multiset matching and is performed automatically.

Vertex and edge IDs are opaque strings; lexicographic order fixes matrix row
and column order everywhere, so output is reproducible byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence


class GraphFormatError(ValueError):
    """Malformed graph data (bad JSON shape, dangling references, ...)."""


Edge = tuple[str, str, str]  # (edge id, origin, terminus)


def _check_edges(edges: Sequence[Edge], vertices: frozenset[str]) -> tuple[Edge, ...]:
    seen = set()
    out: list[Edge] = []
    for e in edges:
        eid, origin, terminus = e
        eid = str(eid)
        if eid in seen:
            raise GraphFormatError(f"duplicate edge id {eid!r}")
        seen.add(eid)
        if origin not in vertices:
            raise GraphFormatError(f"edge {eid!r} has unknown origin {origin!r}")
        if terminus not in vertices:
            raise GraphFormatError(f"edge {eid!r} has unknown terminus {terminus!r}")
        out.append((eid, str(origin), str(terminus)))
    out.sort()
    return tuple(out)


class FiniteGraph:
    """Finite directed multigraph with a relation-exempt vertex set.

    ``vertex_list`` and ``s_vertices`` are the sorted vertices and relation
    vertices, and ``vertex_index`` maps each vertex to its position in
    ``vertex_list``, the matrix index of the vertex everywhere.
    """

    __slots__ = (
        "vertices", "edges", "relation_exempt", "vertex_list", "s_vertices", "vertex_index", "_out", "_in"
    )

    def __init__(
        self,
        vertices: Iterable[str],
        edges: Sequence[Edge],
        relation_exempt: Iterable[str] = (),
    ):
        vset = frozenset(str(v) for v in vertices)
        exempt = frozenset(str(v) for v in relation_exempt)
        if not exempt <= vset:
            raise GraphFormatError(
                f"relation_exempt contains unknown vertices: {sorted(exempt - vset)}"
            )
        self._set(vset, _check_edges(edges, vset), exempt)

    @classmethod
    def _of(cls, vertices: frozenset[str], edges: tuple[Edge, ...], exempt: frozenset[str]) -> "FiniteGraph":
        """Wrap data its caller has already checked.

        ``edges`` must be sorted, with unique string ids and endpoints in
        ``vertices``, and ``exempt`` a subset of ``vertices``: what
        ``_check_edges`` and the public constructor establish.  A chain's
        layer edges are a sorted subset of its checked edges.
        """
        g = object.__new__(cls)
        g._set(vertices, edges, exempt)
        return g

    def _set(self, vertices: frozenset[str], edges: tuple[Edge, ...], exempt: frozenset[str]) -> None:
        vertex_list = tuple(sorted(vertices))
        out: dict[str, list[Edge]] = {v: [] for v in vertex_list}
        inc: dict[str, list[Edge]] = {v: [] for v in vertex_list}
        for e in edges:
            out[e[1]].append(e)
            inc[e[2]].append(e)
        for name, value in (
            ("vertices", vertices),
            ("edges", edges),
            ("relation_exempt", exempt),
            ("vertex_list", vertex_list),
            ("s_vertices", tuple(v for v in vertex_list if v not in exempt)),
            ("vertex_index", {v: i for i, v in enumerate(vertex_list)}),
            ("_out", {v: tuple(es) for v, es in out.items()}),
            ("_in", {v: tuple(es) for v, es in inc.items()}),
        ):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteGraph is immutable")

    # -- views --------------------------------------------------------------

    def out_edges(self, v: str) -> tuple[Edge, ...]:
        return self._out[v]

    def in_edges(self, v: str) -> tuple[Edge, ...]:
        return self._in[v]

    def out_degree(self, v: str) -> int:
        return len(self._out[v])

    def in_degree(self, v: str) -> int:
        return len(self._in[v])

    def is_labeled_subgraph_of(self, other: "FiniteGraph") -> bool:
        return self.vertices <= other.vertices and set(self.edges) <= set(other.edges)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FiniteGraph)
            and self.vertices == other.vertices
            and self.edges == other.edges
            and self.relation_exempt == other.relation_exempt
        )

    def __hash__(self):
        return hash((self.vertices, self.edges, self.relation_exempt))

    def __repr__(self):
        return f"FiniteGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self.vertex_list),
            "edges": [{"id": e[0], "from": e[1], "to": e[2]} for e in self.edges],
            "relation_exempt": sorted(self.relation_exempt),
        }


class GraphChain:
    """Increasing finite layers of an infinite graph, with the prefix edges.

    ``infinite_vertices`` is the set D of vertices that emit infinitely many
    edges in the full graph; the prefix edge list can only ever record
    finitely many of those.  All finite-valence vertices of the prefix are
    expected to have *all* their out-edges in the prefix; that expectation is
    what the (a4) check makes precise, per layer.
    """

    __slots__ = ("infinite_vertices", "layers", "edges", "_layer_graphs")

    def __init__(
        self,
        infinite_vertices: Iterable[str],
        layers: Sequence[Iterable[str]],
        edges: Sequence[Edge],
    ):
        d = frozenset(str(v) for v in infinite_vertices)
        lys = tuple(frozenset(str(v) for v in layer) for layer in layers)
        if not lys:
            raise GraphFormatError("a chain needs at least one layer")
        for i in range(len(lys) - 1):
            if not lys[i] <= lys[i + 1]:
                raise GraphFormatError(f"layer {i} is not contained in layer {i + 1}")
        if not d <= lys[-1]:
            raise GraphFormatError(
                f"unknown infinite-valence vertices: {sorted(d - lys[-1])}"
            )
        # D outside layer 0 is a condition violation, not malformedness: the
        # (a1) check reports it with a witness
        object.__setattr__(self, "infinite_vertices", d)
        object.__setattr__(self, "layers", lys)
        object.__setattr__(self, "edges", _check_edges(edges, lys[-1]))
        object.__setattr__(self, "_layer_graphs", {})

    def __setattr__(self, name, value):
        raise AttributeError("GraphChain is immutable")

    def __len__(self) -> int:
        return len(self.layers)

    @property
    def vertices(self) -> frozenset[str]:
        return self.layers[-1]

    def prefix(self, n: int) -> "GraphChain":
        """The first n layers with the edges induced on them.

        Infinite-valence vertices outside the kept layers are dropped, since a
        chain only names vertices of its layers.
        """
        if not 1 <= n <= len(self.layers):
            raise ValueError(f"prefix length {n} out of range for a chain of length {len(self)}")
        top = self.layers[n - 1]
        return GraphChain(self.infinite_vertices & top, self.layers[:n], self.layer_edges(n - 1))

    def layer_edges(self, n: int) -> tuple[Edge, ...]:
        vs = self.layers[n]
        return tuple(e for e in self.edges if e[1] in vs and e[2] in vs)

    def layer_graph(self, n: int, relation_exempt: Iterable[str] | None = None) -> FiniteGraph:
        """Layer n as a finite graph, by default exempting the layer's vertices
        outside its Toeplitz S set; that default graph is built once per layer."""
        vs = self.layers[n]
        if relation_exempt is not None:
            return FiniteGraph(vs, self.layer_edges(n), relation_exempt)
        g = self._layer_graphs.get(n)
        if g is None:
            # the layer edges are a sorted subset of the checked chain edges
            g = FiniteGraph._of(vs, self.layer_edges(n), vs - toeplitz_s_set(self, n))
            self._layer_graphs[n] = g
        return g

    def __eq__(self, other):
        return (
            isinstance(other, GraphChain)
            and self.infinite_vertices == other.infinite_vertices
            and self.layers == other.layers
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.infinite_vertices, self.layers, self.edges))

    def __repr__(self):
        return f"GraphChain({len(self.layers)} layers, {len(self.vertices)} vertices, {len(self.edges)} edges)"

    def to_json_dict(self) -> dict:
        return {
            "vertices": sorted(self.vertices),
            "edges": [{"id": e[0], "from": e[1], "to": e[2]} for e in self.edges],
            "infinite_vertices": sorted(self.infinite_vertices),
            "layers": [sorted(layer) for layer in self.layers],
        }


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------


def _is_str_list(value: object) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def graph_from_json_dict(data: object) -> FiniteGraph | GraphChain:
    if not isinstance(data, dict):
        raise GraphFormatError("top-level JSON value must be an object")
    try:
        vertices = data["vertices"]
        raw_edges = data["edges"]
    except KeyError as exc:
        raise GraphFormatError(f"missing required field {exc.args[0]!r}") from None
    if not _is_str_list(vertices):
        raise GraphFormatError("'vertices' must be an array of strings")
    seen: set = set()
    for v in vertices:
        if v in seen:
            raise GraphFormatError(f"duplicate vertex {v!r}")
        seen.add(v)
    if not isinstance(raw_edges, list):
        raise GraphFormatError("'edges' must be an array")
    edges = []
    for i, e in enumerate(raw_edges):
        if not isinstance(e, dict) or not {"id", "from", "to"} <= set(e):
            raise GraphFormatError(f"edge #{i} must be an object with id/from/to")
        if not all(isinstance(e[k], str) for k in ("id", "from", "to")):
            raise GraphFormatError(f"edge #{i}: id, from and to must be strings")
        edges.append((e["id"], e["from"], e["to"]))
    if "layers" in data or "infinite_vertices" in data:
        layers = data.get("layers")
        dset = data.get("infinite_vertices", [])
        if not isinstance(layers, list) or not all(_is_str_list(l) for l in layers):
            raise GraphFormatError("'layers' must be an array of arrays of strings")
        if not _is_str_list(dset):
            raise GraphFormatError("'infinite_vertices' must be an array of strings")
        chain = GraphChain(dset, layers, edges)
        if set(vertices) != set(chain.vertices):
            raise GraphFormatError("'vertices' must equal the union of the layers")
        return chain
    exempt = data.get("relation_exempt", [])
    if not _is_str_list(exempt):
        raise GraphFormatError("'relation_exempt' must be an array of strings")
    return FiniteGraph(vertices, edges, exempt)


def load_graph(path: str) -> FiniteGraph | GraphChain:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}") from None
    except RecursionError:
        raise GraphFormatError(f"{path}: JSON nested too deeply") from None
    return graph_from_json_dict(data)


def dump_graph(graph: FiniteGraph | GraphChain) -> str:
    return json.dumps(graph.to_json_dict(), ensure_ascii=False, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Structural predicates
# ---------------------------------------------------------------------------


def _strongly_connected(graph: FiniteGraph) -> bool:
    """Do a forward and a backward search from one vertex both reach every vertex?"""
    verts = graph.vertex_list
    if not verts:
        return False
    for adjacent, end in ((graph._out, 2), (graph._in, 1)):
        seen = {verts[0]}
        stack = [verts[0]]
        while stack:
            for e in adjacent[stack.pop()]:
                if e[end] not in seen:
                    seen.add(e[end])
                    stack.append(e[end])
        if len(seen) < len(verts):
            return False
    return True


def is_irreducible(graph: FiniteGraph) -> bool:
    """Strongly connected: every ordered vertex pair is joined by a path."""
    if not graph.vertices:
        raise ValueError("irreducibility is undefined for the empty graph")
    return _strongly_connected(graph)


def is_cycle(graph: FiniteGraph) -> bool:
    """A single directed cycle: all degrees 1 and strongly connected."""
    if not graph.vertices:
        return False
    return (
        all(graph.out_degree(v) == 1 and graph.in_degree(v) == 1 for v in graph.vertices)
        and _strongly_connected(graph)
    )


def every_cycle_has_exit(graph: FiniteGraph) -> bool:
    """Does every directed cycle pass through a vertex of out-degree >= 2?

    A cycle without an exit consists entirely of vertices with out-degree
    exactly 1, so it is a cycle of the functional graph obtained by following
    unique out-edges; detecting one is a pointer chase.
    """
    nxt = {}
    for v in graph.vertices:
        out = graph.out_edges(v)
        if len(out) == 1:
            nxt[v] = out[0][2]
    color = {v: 0 for v in nxt}  # 0 unvisited, 1 in progress, 2 done
    for start in sorted(nxt):
        if color[start]:
            continue
        path = []
        v = start
        while True:
            color[v] = 1
            path.append(v)
            w = nxt.get(v)
            if w is None or w not in nxt:
                break
            if color[w] == 1:
                return False  # cycle of out-degree-1 vertices
            if color[w] == 2:
                break
            v = w
        for p in path:
            color[p] = 2
    return True


# ---------------------------------------------------------------------------
# Chain checks
# ---------------------------------------------------------------------------


def toeplitz_s_set(chain: GraphChain, n: int) -> frozenset[str]:
    """Vertices of layer n whose full out-star is contained in the layer.

    Computed against the recorded prefix edges; declared infinite-valence
    vertices are excluded outright (their out-star is infinite in the full
    graph, which no finite prefix can witness).
    """
    if not 0 <= n < len(chain.layers):
        raise ValueError(f"layer index {n} out of range")
    layer = chain.layers[n]
    leaving = set(chain.infinite_vertices)
    for _, o, t in chain.edges:
        if o in layer and t not in layer:
            leaving.add(o)
    return frozenset(layer - leaving)


@dataclass
class ConditionReport:
    """Outcome of the per-condition chain checks, with first witnesses."""

    conditions: dict[str, bool] = field(default_factory=dict)
    witnesses: dict[str, str] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.conditions.values())

    def record(self, name: str, ok: bool, witness: str = "") -> None:
        self.conditions[name] = ok
        if not ok and witness:
            self.witnesses[name] = witness

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "conditions": dict(sorted(self.conditions.items())),
            "witnesses": dict(sorted(self.witnesses.items())),
        }


def check_condition_a(chain: GraphChain) -> ConditionReport:
    """Check (a1)-(a6) on the chain prefix, reporting the first witness each."""
    report = ConditionReport()
    d = chain.infinite_vertices
    nlayers = len(chain.layers)

    missing = sorted(d - chain.layers[0])
    report.record("a1", not missing, f"infinite-valence vertex {missing[0]!r} not in layer 0" if missing else "")

    # the layer's own graph, which chain_ktheory_report reuses; the relation
    # exempt set plays no part in (a2)
    ok, witness = True, ""
    for n in range(nlayers):
        g = chain.layer_graph(n)
        if not g.vertices:
            ok, witness = False, f"layer {n} is empty"
            break
        if not is_irreducible(g):
            ok, witness = False, f"layer {n} is not strongly connected"
            break
        if is_cycle(g):
            ok, witness = False, f"layer {n} is a cycle"
            break
    report.record("a2", ok, witness)

    # layer edge sets are induced by construction (``layer_edges``), so (a3)
    # cannot fail; it stays in the report for transparency
    report.record("a3", True)

    # (a4)-(a6) in one pass over the edges, from each vertex's first layer.
    # Layers are nested, so an edge o -> t leaves layers first(o) ..
    # first(t) - 1 and enters layers first(t) .. first(o) - 2 from outside the
    # next one.  Its lowest such layer witnesses it, and the sorted edge order
    # breaks ties as a per-layer scan would.
    first: dict[str, int] = {}
    for n in range(nlayers - 1, -1, -1):
        first.update(dict.fromkeys(chain.layers[n], n))
    leaves = enters = None
    reached: dict[str, set[int]] = {u: set() for u in d}
    for eid, o, t in chain.edges:
        fo, ft = first[o], first[t]
        if o not in d and fo < ft and (leaves is None or fo < leaves[0]):
            leaves = (fo, eid, o)
        if fo >= ft + 2 and (enters is None or ft < enters[0]):
            enters = (ft, eid)
        if o in d:
            reached[o].add(ft)
    report.record(
        "a4",
        leaves is None,
        f"edge {leaves[1]!r} leaves layer {leaves[0]} from finite-valence vertex {leaves[2]!r}" if leaves else "",
    )
    report.record(
        "a5",
        enters is None,
        f"edge {enters[1]!r} enters layer {enters[0]} from outside layer {enters[0] + 1}" if enters else "",
    )
    # (a6): each infinite-valence vertex reaches the new part of every layer
    gap = next(((n, u) for n in range(nlayers) for u in sorted(d) if n not in reached[u]), None)
    report.record(
        "a6", gap is None, f"vertex {gap[1]!r} emits no edge into the new part of layer {gap[0]}" if gap else ""
    )

    return report


def _out_star_shape(
    termini: Sequence[str], u: str, classes: Mapping[str, tuple]
) -> tuple[tuple[int, bool, tuple], ...] | None:
    """Multiset describing u's out-star: (multiplicity, is-loop, terminus class).

    ``termini`` lists the terminus of every edge leaving u.  Returns None
    when some terminus has no class available.
    """
    per_terminus: dict[str, int] = {}
    for t in termini:
        per_terminus[t] = per_terminus.get(t, 0) + 1
    shape = []
    for t, count in per_terminus.items():
        if t not in classes:
            return None
        shape.append((count, t == u, tuple(classes[t])))
    return tuple(sorted(shape))


@dataclass
class B2Report:
    """Out-star matching report: witness map, failures, and unchecked vertices."""

    matches: dict[str, str] = field(default_factory=dict)
    failures: dict[str, str] = field(default_factory=dict)
    unchecked: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "matches": dict(sorted(self.matches.items())),
            "failures": dict(sorted(self.failures.items())),
            "unchecked": sorted(self.unchecked),
        }


def check_condition_b2(chain: GraphChain, k0_class: Mapping[str, tuple]) -> B2Report:
    """Match out-stars of later finite-valence vertices into layer 0.

    For each finite-valence vertex u outside layer 0 the checker looks for a
    finite-valence v in layer 0 whose out-star is isomorphic to u's: same
    per-terminus multiplicities, same loop shape, and equal terminus classes
    under ``k0_class``.  The multiset comparison decides existence of the
    bijection; the witness records the matched v.  Vertices whose termini
    lack classes are reported as unchecked rather than failed.
    """
    report = B2Report()
    d = chain.infinite_vertices
    termini: dict[str, list[str]] = {}
    for _, o, t in chain.edges:
        termini.setdefault(o, []).append(t)
    # the first layer-0 vertex, in sorted order, of each out-star shape
    first_with: dict[tuple, str] = {}
    for v in sorted(chain.layers[0] - d):
        shape = _out_star_shape(termini.get(v, ()), v, k0_class)
        if shape is not None:
            first_with.setdefault(shape, v)

    for u in sorted(chain.vertices - chain.layers[0] - d):
        shape = _out_star_shape(termini.get(u, ()), u, k0_class)
        if shape is None:
            report.unchecked.append(u)
            continue
        found = first_with.get(shape)
        if found is None:
            report.failures[u] = "no layer-0 vertex with an isomorphic out-star"
        else:
            report.matches[u] = found
    return report
