"""Directed multigraphs, chain presentations of infinite graphs, checkers.

A ``FiniteGraph`` is a directed multigraph (parallel edges and loops allowed)
together with the set of vertices where the summation relation of the
associated algebra is *not* imposed (``relation_exempt``); the complement is
the relation set S.  A ``GraphChain`` presents an infinite graph through an
increasing chain of finite vertex layers plus the edge list of the union
prefix; layer edge sets are always induced (edges with both endpoints in the
layer), which removes a whole class of inconsistent inputs.  A chain holds
each vertex's first layer and groups its vertices and edges, once, by the
layer that adds them.  The conditions below are checked from these in time
linear in vertices plus edges, with no layer graph built, and a run of layer
graphs is built layer on layer from the groups.

The structural conditions checked here:

* (a1)  infinite-valence vertices all sit in the first layer;
* (a2)  every layer is nonempty, irreducible (strongly connected) and not a
        cycle (searched with the previous layer contracted to one node);
* (a3)  layer edge sets are induced (tautological here, still reported);
* (a4)  finite-valence layer vertices keep all their out-edges in the layer;
* (a5)  in-neighbors of layer n sit in layer n+1;
* (a6)  every infinite-valence vertex emits into every new layer.

``check_condition_a`` returns a ``Verdict``, as do les-check and synthesis
verification: a boolean per named check, and a witness for each failure.

Condition (b2) asks, for each finite-valence vertex u outside the first
layer, for a vertex v in the first layer whose out-star is isomorphic to
u's, matching loop shape, edge multiplicity per terminus, and the classes of
the termini in a supplied degree-zero K-group; the search is a finite
multiset matching and is performed automatically.

Vertex and edge IDs are opaque strings; lexicographic order fixes matrix row
and column order everywhere, so output is reproducible byte for byte.
"""

from __future__ import annotations

import io
import itertools
import json
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Container, Iterable, Mapping, Sequence


class GraphFormatError(ValueError):
    """Malformed graph data (bad JSON shape, dangling references, ...)."""


Edge = tuple[str, str, str]  # (edge id, origin, terminus)


def _check_edges(edges: Sequence[Edge], vertices: Container[str]) -> tuple[Edge, ...]:
    seen = set()
    out: list[Edge] = []
    for eid, origin, terminus in edges:
        eid, origin, terminus = str(eid), str(origin), str(terminus)
        if eid in seen:
            raise GraphFormatError(f"duplicate edge id {eid!r}")
        seen.add(eid)
        if origin not in vertices:
            raise GraphFormatError(f"edge {eid!r} has unknown origin {origin!r}")
        if terminus not in vertices:
            raise GraphFormatError(f"edge {eid!r} has unknown terminus {terminus!r}")
        out.append((eid, origin, terminus))
    out.sort()
    return tuple(out)


class FiniteGraph:
    """Finite directed multigraph with a relation-exempt vertex set.

    ``vertex_list`` and ``s_vertices`` are the sorted vertices and relation
    vertices, and ``vertex_index`` maps each vertex to its position in
    ``vertex_list``, the matrix index of the vertex everywhere.  Each
    vertex's out-edges are held in sorted edge order.  The in-edge map is
    built on first read: only the strong-connectivity checks and the lab
    read it.
    """

    __slots__ = (
        "vertices", "edges", "relation_exempt", "vertex_list", "s_vertices", "vertex_index", "_out", "_in"
    )

    def __new__(cls, vertices: Iterable[str], edges: Sequence[Edge], relation_exempt: Iterable[str] = ()):
        return _checked_graph(frozenset(map(str, vertices)), edges, frozenset(map(str, relation_exempt)))

    @classmethod
    def _grown(
        cls, base: "FiniteGraph | None", vertices: Sequence[str], edges: Sequence[Edge], exempt: frozenset[str]
    ) -> "FiniteGraph":
        """``base``, or the empty graph, with new vertices and edges added,
        exempting ``exempt``; every graph is built here.

        ``vertices`` and ``edges`` must be sorted and new to ``base``, with
        unique string edge ids and endpoints among the old and new vertices,
        and ``exempt`` a subset of all of them.  The out-map of ``base`` is
        copied, and only the out-tuples of origins with new edges are merged
        again.  Edge ids are unique, so edges sort by id.  With nothing added,
        ``base``'s sorted vertex and edge tuples are shared, not sorted again.
        """
        # the out-edges of each new vertex, and the new ones of old origins
        added: dict[str, list[Edge]] = {v: [] for v in vertices}
        out, vertex_list, all_edges = {}, tuple(vertices), tuple(edges)
        if base is not None:
            added.update({e[1]: [] for e in edges if e[1] not in added})
            out = dict(base._out)
            vertex_list = tuple(sorted(base.vertex_list + vertex_list)) if vertices else base.vertex_list
            all_edges = tuple(sorted(base.edges + all_edges, key=itemgetter(0))) if edges else base.edges
        for e in edges:
            added[e[1]].append(e)
        for o, es in added.items():
            out[o] = tuple(sorted(out[o] + tuple(es), key=itemgetter(0))) if o in out else tuple(es)
        s_vertices = tuple(v for v in vertex_list if v not in exempt)
        vertex_index = {v: i for i, v in enumerate(vertex_list)}
        values = (frozenset(vertex_list), all_edges, exempt, vertex_list, s_vertices, vertex_index, out, None)
        g = object.__new__(cls)
        for name, value in zip(cls.__slots__, values, strict=True):
            object.__setattr__(g, name, value)
        return g

    def __setattr__(self, name, value):
        raise AttributeError("FiniteGraph is immutable")

    # -- views --------------------------------------------------------------

    def _in_map(self) -> dict[str, tuple[Edge, ...]]:
        """Each vertex's in-edges in sorted edge order, built on first read."""
        if self._in is None:
            inc: dict[str, list[Edge]] = {v: [] for v in self.vertex_list}
            for e in self.edges:
                inc[e[2]].append(e)
            object.__setattr__(self, "_in", {v: tuple(es) for v, es in inc.items()})
        return self._in

    def out_edges(self, v: str) -> tuple[Edge, ...]:
        return self._out[v]

    def in_edges(self, v: str) -> tuple[Edge, ...]:
        return self._in_map()[v]

    def out_degree(self, v: str) -> int:
        return len(self._out[v])

    def in_degree(self, v: str) -> int:
        return len(self._in_map()[v])

    def is_labeled_subgraph_of(self, other: "FiniteGraph") -> bool:
        return self.vertices <= other.vertices and set(other.edges).issuperset(self.edges)

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


def _checked_graph(vset: frozenset[str], edges: Sequence[Edge], exempt: frozenset[str]) -> FiniteGraph:
    """The finite graph on the string vertices ``vset``, with its exempt set
    and edges checked in that order."""
    if not exempt <= vset:
        raise GraphFormatError(f"relation_exempt contains unknown vertices: {sorted(exempt - vset)}")
    return FiniteGraph._grown(None, sorted(vset), _check_edges(edges, vset), exempt)


class GraphChain:
    """Increasing finite layers of an infinite graph, with the prefix edges.

    The chain is ``first``, each vertex's first layer, and its length: layer
    n holds the vertices with first layer at most n, so layers nest by
    construction, and ``layers`` is built only when read.  The chain groups
    its vertices and edges once, by the layer that adds them (an edge's
    layer is max(first(o), first(t))), and every per-layer reader reads the
    groups, the S sets too: a vertex of layer n is outside S_n exactly when
    it is infinite-valence or the origin of an edge of a later group.

    ``infinite_vertices`` is the set D of vertices that emit infinitely many
    edges in the full graph; the prefix edge list can only ever record
    finitely many of those.  All finite-valence vertices of the prefix are
    expected to have *all* their out-edges in the prefix; that expectation is
    what the (a4) check makes precise, per layer.
    """

    __slots__ = ("infinite_vertices", "first", "_length", "edges", "_added_vertices", "_added_edges", "_layers")

    def __new__(cls, infinite_vertices: Iterable[str], layers: Sequence[Iterable[str]], edges: Sequence[Edge]):
        d = frozenset(str(v) for v in infinite_vertices)
        # with layers 0 .. n - 1 nested, ``first`` holds layer n - 1, so layer
        # n contains it exactly when it holds every vertex of ``first``
        first: dict[str, int] = {}
        n = -1
        for n, layer in enumerate(layers):
            vs = {str(v) for v in layer}
            for v in vs:
                first.setdefault(v, n)
            if len(vs) < len(first):
                raise GraphFormatError(f"layer {n - 1} is not contained in layer {n}")
        if n < 0:
            raise GraphFormatError("a chain needs at least one layer")
        if not d <= first.keys():
            raise GraphFormatError(f"unknown infinite-valence vertices: {sorted(d - first.keys())}")
        # D outside layer 0 is a condition violation, not malformedness: the
        # (a1) check reports it with a witness
        return cls._of(d, first, n + 1, _check_edges(edges, first))

    @classmethod
    def _of(cls, d: frozenset[str], first: dict[str, int], length: int, edges: tuple[Edge, ...]) -> "GraphChain":
        """Group by layer what ``__new__`` establishes: ``first`` maps into
        ``range(length)``, ``d`` is a subset of its keys, and ``edges`` is
        sorted, with unique string ids and endpoints in ``first``."""
        added_vertices: list[list[str]] = [[] for _ in range(length)]
        for v, n in first.items():
            added_vertices[n].append(v)
        # each layer's edges are a sorted subsequence of the sorted chain edges
        added_edges: list[list[Edge]] = [[] for _ in range(length)]
        for e in edges:
            fo, ft = first[e[1]], first[e[2]]
            added_edges[fo if fo > ft else ft].append(e)
        return cls._assign(d, first, length, edges, added_vertices, added_edges)

    @classmethod
    def _assign(cls, *values) -> "GraphChain":
        """A chain with ``values`` in its slots, in slot order; ``layers`` is unread."""
        chain = object.__new__(cls)
        for name, value in zip(cls.__slots__, (*values, None), strict=True):
            object.__setattr__(chain, name, value)
        return chain

    def __setattr__(self, name, value):
        raise AttributeError("GraphChain is immutable")

    def __len__(self) -> int:
        return self._length

    @property
    def vertices(self) -> frozenset[str]:
        return frozenset(self.first)

    @property
    def layers(self) -> tuple[frozenset[str], ...]:
        """Each layer's vertex set, built on first read."""
        if self._layers is None:
            layers = itertools.accumulate(map(frozenset, self._added_vertices), frozenset.union)
            object.__setattr__(self, "_layers", tuple(layers))
        return self._layers

    def prefix(self, n: int) -> "GraphChain":
        """The first n layers with the edges induced on them: the first n
        groups, as an edge's group is the later first layer of its endpoints.

        Infinite-valence vertices outside the kept layers are dropped, since a
        chain only names vertices of its layers.
        """
        if not 1 <= n <= len(self):
            raise ValueError(f"prefix length {n} out of range for a chain of length {len(self)}")
        first = {v: k for v, k in self.first.items() if k < n}
        added_edges = self._added_edges[:n]
        edges = tuple(sorted(itertools.chain.from_iterable(added_edges), key=itemgetter(0)))
        return GraphChain._assign(
            self.infinite_vertices.intersection(first), first, n, edges, self._added_vertices[:n], added_edges
        )

    def layer_graph(self, n: int) -> FiniteGraph:
        """Layer n as a finite graph exempting the layer's vertices outside its
        Toeplitz S set, built anew from the groups of layers 0 .. n on each
        call.  ``layer_graphs_from`` builds a run of consecutive layers
        cheaper."""
        n = range(len(self))[n]
        vertices = sorted(itertools.chain.from_iterable(self._added_vertices[: n + 1]))
        edges = sorted(itertools.chain.from_iterable(self._added_edges[: n + 1]), key=itemgetter(0))
        return FiniteGraph._grown(None, vertices, edges, self._outside_s(n))

    def layer_graphs_from(self, first: int) -> list[FiniteGraph]:
        """The graphs of layers ``first`` .. length - 1, each equal to its
        ``layer_graph``: layer ``first`` comes from ``layer_graph``, and each
        later layer extends the one before by the vertices and edges it adds.
        """
        first = range(len(self))[first]
        graphs = [self.layer_graph(first)]
        for n in range(first + 1, len(self)):
            added = sorted(self._added_vertices[n])
            graphs.append(FiniteGraph._grown(graphs[-1], added, self._added_edges[n], self._outside_s(n)))
        return graphs

    def _outside_s(self, n: int) -> frozenset[str]:
        """The vertices of layer n outside S_n: the infinite-valence ones, and
        the origins in layer n of later groups' edges (first(o) <= n < first(t))."""
        first = self.first
        outside = {v for v in self.infinite_vertices if first[v] <= n}
        outside.update(o for group in self._added_edges[n + 1 :] for _, o, _ in group if first[o] <= n)
        return frozenset(outside)

    def __eq__(self, other):
        return (
            isinstance(other, GraphChain)
            and self.infinite_vertices == other.infinite_vertices
            and len(self) == len(other)
            and self.first == other.first
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.infinite_vertices, len(self), frozenset(self.first.items()), self.edges))

    def __repr__(self):
        return f"GraphChain({len(self)} layers, {len(self.first)} vertices, {len(self.edges)} edges)"


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
    vset = frozenset(vertices)
    if len(vset) < len(vertices):
        seen: set = set()
        for v in vertices:  # the first repeat in file order
            if v in seen:
                raise GraphFormatError(f"duplicate vertex {v!r}")
            seen.add(v)
    if not isinstance(raw_edges, list):
        raise GraphFormatError("'edges' must be an array")
    edges = []
    for i, e in enumerate(raw_edges):
        if not isinstance(e, dict) or "id" not in e or "from" not in e or "to" not in e:
            raise GraphFormatError(f"edge #{i} must be an object with id/from/to")
        eid, origin, terminus = edge = (e["id"], e["from"], e["to"])
        if not (isinstance(eid, str) and isinstance(origin, str) and isinstance(terminus, str)):
            raise GraphFormatError(f"edge #{i}: id, from and to must be strings")
        edges.append(edge)
    if "layers" in data or "infinite_vertices" in data:
        layers = data.get("layers")
        dset = data.get("infinite_vertices", [])
        if not isinstance(layers, list) or not all(_is_str_list(l) for l in layers):
            raise GraphFormatError("'layers' must be an array of arrays of strings")
        if not _is_str_list(dset):
            raise GraphFormatError("'infinite_vertices' must be an array of strings")
        chain = GraphChain(dset, layers, edges)
        if vset != chain.first.keys():
            raise GraphFormatError("'vertices' must equal the union of the layers")
        return chain
    exempt = data.get("relation_exempt", [])
    if not _is_str_list(exempt):
        raise GraphFormatError("'relation_exempt' must be an array of strings")
    return _checked_graph(vset, edges, frozenset(exempt))


def load_graph(path: str) -> FiniteGraph | GraphChain:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}") from None
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{path}: not UTF-8 text at byte {exc.start}") from None
    except RecursionError:
        raise GraphFormatError(f"{path}: JSON nested too deeply") from None
    return graph_from_json_dict(data)


def write_graph(graph: FiniteGraph | GraphChain, fh) -> None:
    """Write the graph to the text file ``fh`` as JSON with an indent of 2,
    and a newline: "vertices", sorted, and "edges", one {"id", "from", "to"}
    object per edge in sorted order, then "relation_exempt", sorted, or for
    a chain "infinite_vertices", sorted, and "layers", each sorted.
    ``graph_from_json_dict`` reads it back."""
    data = {"vertices": sorted(graph.vertices), "edges": [{"id": i, "from": o, "to": t} for i, o, t in graph.edges]}
    if isinstance(graph, GraphChain):
        data["infinite_vertices"] = sorted(graph.infinite_vertices)
        data["layers"] = [sorted(layer) for layer in graph.layers]
    else:
        data["relation_exempt"] = sorted(graph.relation_exempt)
    json.dump(data, fh, ensure_ascii=False, indent=2)
    fh.write("\n")


def dump_graph(graph: FiniteGraph | GraphChain) -> str:
    out = io.StringIO()
    write_graph(graph, out)
    return out.getvalue()


# ---------------------------------------------------------------------------
# Structural predicates
# ---------------------------------------------------------------------------


def _reaches_all(root, out: Mapping, inc: Mapping, count: int) -> bool:
    """Do a forward search over ``out`` and a backward search over ``inc``,
    both from ``root``, each reach ``count`` nodes?  ``out`` and ``inc`` map a
    node to its out- and in-edges, (id, origin, terminus) triples."""
    for adjacent, end in ((out, 2), (inc, 1)):
        seen = {root}
        stack = [root]
        while stack:
            for e in adjacent.get(stack.pop(), ()):
                if e[end] not in seen:
                    seen.add(e[end])
                    stack.append(e[end])
        if len(seen) < count:
            return False
    return True


def _strongly_connected(graph: FiniteGraph) -> bool:
    """Do a forward and a backward search from one vertex both reach every
    vertex of a nonempty graph?"""
    return _reaches_all(graph.vertex_list[0], graph._out, graph._in_map(), len(graph.vertex_list))


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


@dataclass
class Verdict:
    """Named checks in record order.  A check passes exactly when it is
    recorded without a witness: the message or dict that certifies a failure."""

    checks: dict[str, bool] = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.witnesses

    def record(self, name: str, witness=None) -> None:
        self.checks[name] = witness is None
        if witness is not None:
            self.witnesses[name] = witness


def check_condition_a(chain: GraphChain) -> Verdict:
    """Check (a1)-(a6) on the chain prefix, reporting the first witness each.

    Every check reads the chain's first-layer map and the vertices and edges
    each layer adds, with no layer graph, in time linear in vertices plus
    edges.  (a2) goes layer by layer and stops at the first failure, so when
    layer n + 1 is checked, layer n is strongly connected: contracted to one
    node, it reaches and is reached from every vertex new in n + 1 exactly
    when layer n + 1 is strongly connected.  The two searches from that node
    need only the edges new in n + 1; every other edge of layer n + 1 lies in
    layer n.  A strongly connected layer has every in- and out-degree at
    least 1, so it is a cycle exactly when it has as many edges as vertices.
    """
    report = Verdict()
    d = chain.infinite_vertices
    first = chain.first
    nlayers = len(chain)

    missing = sorted(u for u in d if first[u])
    report.record("a1", f"infinite-valence vertex {missing[0]!r} not in layer 0" if missing else None)

    witness = None
    nvertices = nedges = 0
    for n, (new, new_edges) in enumerate(zip(chain._added_vertices, chain._added_edges)):
        nvertices += len(new)
        nedges += len(new_edges)
        if not nvertices:
            witness = f"layer {n} is empty"
            break
        # the vertices of layer n - 1 contract to the node None; at layer 0 there are none
        out, inc = {}, {}
        for eid, o, t in new_edges:
            e = (eid, o if first[o] == n else None, t if first[t] == n else None)
            out.setdefault(e[1], []).append(e)
            inc.setdefault(e[2], []).append(e)
        root, count = (None, len(new) + 1) if n else (new[0], len(new))
        if not _reaches_all(root, out, inc, count):
            witness = f"layer {n} is not strongly connected"
            break
        if nedges == nvertices:
            witness = f"layer {n} is a cycle"
            break
    report.record("a2", witness)

    # layer edge sets are induced by construction (``_added_edges``), so (a3)
    # cannot fail; it stays in the report for transparency
    report.record("a3")

    # (a4)-(a6) in one pass over the edges, from each vertex's first layer.
    # Layers are nested, so an edge o -> t leaves layers first(o) ..
    # first(t) - 1 and enters layers first(t) .. first(o) - 2 from outside the
    # next one.  Its lowest such layer witnesses it, and the sorted edge order
    # breaks ties as a per-layer scan would.
    leaves = enters = None
    reached: dict[str, set[int]] = {u: set() for u in d}
    for eid, o, t in chain.edges:
        fo, ft = first[o], first[t]
        if o not in d and fo < ft and (leaves is None or fo < leaves[0]):
            leaves = (fo, eid, o)
        if fo >= ft + 2 and (enters is None or ft < enters[0]):
            enters = (ft, eid, ft + 1)
        if o in d:
            reached[o].add(ft)
    report.record("a4", leaves and "edge {1!r} leaves layer {0} from finite-valence vertex {2!r}".format(*leaves))
    report.record("a5", enters and "edge {1!r} enters layer {0} from outside layer {2}".format(*enters))
    # (a6): each infinite-valence vertex reaches the new part of every layer
    gap = next(((n, u) for n in range(nlayers) for u in sorted(d) if n not in reached[u]), None)
    report.record("a6", gap and "vertex {1!r} emits no edge into the new part of layer {0}".format(*gap))

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
    for v in sorted(v for v, n in chain.first.items() if not n and v not in d):
        shape = _out_star_shape(termini.get(v, ()), v, k0_class)
        if shape is not None:
            first_with.setdefault(shape, v)

    for u in sorted(v for v, n in chain.first.items() if n and v not in d):
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
