"""K-theory of (Toeplitz) graph algebras, exactly.

For a finite graph F with relation set S (the complement of
``relation_exempt``), the degree-zero group is presented on the vertex
generators by one relation per u in S:

    [u] = sum of [t(e)] over edges e leaving u   (multiplicity counted),

i.e. K0 = cokernel of the relation matrix R whose row at u is
e_u - sum e_{t(e)}.  The degree-one group is free; it is computed along two
routes and the two answers are required to agree exactly:

* as the kernel of the map Z^S -> Z^{F0} sending c to sum c_u * row_u,
  read from the rows of U past the rank in the Smith form of R, and
* as the sublattice of integer vertex functions x vanishing off S with
  x(u) = sum_{e into u} x(o(e)) at every vertex (the index-map
  description).  On Z^S these equations are the transposed matrix R^T, so
  this is the kernel of R^T, read from the V columns of its own Smith form.
  With no exempt vertex the two routes read the same Smith form of R.

The index (boundary) map sends such an x to the vector
(-sum_{e into u} x(o(e)))_{u outside S}; ``les_check`` verifies exactness of
the six-term sequence

    0 -> K1(T) -> K1(O) -> Z^{S^c} -> K0(T) -> K0(O) -> 0

at every interior node, which is a theorem: a failure always indicates an
implementation bug, making the check a strong self-test.  The nodes read the
degree-one lattices and the canonical K0 class maps of the Toeplitz and the
full-relation results; the only matrices they reduce themselves are indexed
by exempt vertices, K1(O) basis vectors and K0(T) coordinates.  At K0 the
check is a certificate (a well-defined map from coker j onto an isomorphic
group), and a failing node reports a witness.

Chains of graphs get their K-theory as a direct limit: per-layer results,
inclusion-induced maps (extension by zero in degree one, generator-wise in
degree zero), and the stabilization-flagged colimit from ``abelian``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .abelian import (
    ColumnLattice,
    FgAbelianGroup,
    GroupHom,
    IntMatrix,
    cokernel,
    colimit_chain_detailed,
    format_group,
    kernel_basis,
)
from .graphs import ConditionReport, FiniteGraph, GraphChain, check_condition_a


class ChainConditionError(ValueError):
    """The chain failed its structural gate and force was not given."""

    def __init__(self, report: ConditionReport):
        self.report = report
        bad = sorted(k for k, ok in report.conditions.items() if not ok)
        super().__init__(f"chain fails conditions {bad}; pass force=True to override")


# ---------------------------------------------------------------------------
# Single-graph K-theory
# ---------------------------------------------------------------------------


def relation_matrix(graph: FiniteGraph, at_vertices: Sequence[str] | None = None) -> IntMatrix:
    """One relation row per vertex in ``at_vertices`` (default: the S set)."""
    vidx = graph.vertex_index
    where = graph.s_vertices if at_vertices is None else at_vertices
    rows = []
    for u in where:
        row = {vidx[u]: 1}
        for _, _, t in graph.out_edges(u):
            j = vidx[t]
            row[j] = row.get(j, 0) - 1
        rows.append({j: x for j, x in row.items() if x})  # one loop at u cancels e_u
    return IntMatrix._of(len(where), len(vidx), tuple(rows))


def _k1_relations_hold(graph: FiniteGraph, x: dict, at: Sequence[str]) -> bool:
    """Whether x(u) = sum of x(o(e)) over the edges e into u, at every u in ``at``.

    ``x`` maps vertex indices to values; absent indices are zero.  Each value
    is added along the out-edges of its vertex, so the sums cost the
    out-degrees of the support, not every in-edge of ``at``.
    """
    verts, vidx = graph.vertex_list, graph.vertex_index
    incoming: dict = {}
    for i, val in x.items():
        for _, _, t in graph.out_edges(verts[i]):
            j = vidx[t]
            incoming[j] = incoming.get(j, 0) + val
    return all(x.get(j, 0) == incoming.get(j, 0) for j in map(vidx.__getitem__, at))


@dataclass
class KTheoryResult:
    """K-theory of one (Toeplitz) graph algebra.

    ``k1_lattice`` columns are representative integer vertex functions in
    Z^{F0} (sorted vertex order); ``k0_class_of_vertex`` maps each vertex to
    the canonical coordinates of its class.  ``k1_column`` is the lattice of
    ``k1_lattice`` with the Smith form the degree-one check already computed.
    """

    graph: FiniteGraph
    vertex_order: tuple[str, ...]
    k0: FgAbelianGroup
    k0_class_of_vertex: dict[str, tuple[int, ...]]
    k1: FgAbelianGroup
    k1_lattice: IntMatrix
    k1_column: ColumnLattice = field(repr=False, compare=False)

    @cached_property
    def k0_canonical(self) -> FgAbelianGroup:
        """The canonical group of ``k0``, built on first read: the group that
        inclusion maps in canonical coordinates run between."""
        return FgAbelianGroup.canonical(*self.k0.canonical_pair())


def ktheory(graph: FiniteGraph) -> KTheoryResult:
    """K0 and K1 of the algebra of ``graph`` with its relation-exempt set.

    The two descriptions of K1 (kernel of the relation map, and vertex
    functions satisfying the incoming-edge relations and vanishing off S)
    are both computed and must agree; disagreement raises.  Their bases are
    compared as matrices first, and as lattices only when they differ.
    """
    verts = graph.vertex_list
    nv = len(verts)
    vidx = graph.vertex_index
    svs = graph.s_vertices
    exempt = tuple(sorted(graph.relation_exempt))

    rel = relation_matrix(graph)
    k0 = cokernel(rel, generators=verts)
    snf = k0.snf
    classes = dict(zip(verts, k0.generator_classes()))
    spos = [vidx[u] for u in svs]

    def off_s_zero(vectors) -> IntMatrix:
        # coefficient vectors over S, extended by zero off S, as columns
        return IntMatrix.from_sparse_columns(nv, [{spos[k]: c for k, c in x.items()} for x in vectors])

    # route one: the rows of U past the rank of the relation matrix span its
    # left kernel, the c in Z^S with sum c_u * row_u = 0
    lattice_a = off_s_zero(snf.u_row(i) for i in range(snf.rank, len(svs)))

    # route two: vertex functions vanishing off S with x(u) = sum of x(o(e))
    # over edges into u at every vertex u.  On Z^S these equations are the
    # transposed relation matrix, so with exempt vertices route two is its
    # kernel, a Smith form of its own; with none it is route one's lattice.
    # Equal bases span the same lattice, so the lattices are compared only
    # when the bases differ
    if exempt:
        ker = kernel_basis(rel.transpose())
        lattice_b = off_s_zero(ker.transpose().sparse_rows)
    la = ColumnLattice(lattice_a)
    if exempt and lattice_b != lattice_a and not la.equals(ColumnLattice(lattice_b)):
        raise AssertionError("the two K1 computations disagree; this is a bug")

    for col in lattice_a.sparse_columns():
        if not _k1_relations_hold(graph, col, svs):
            raise AssertionError("K1 representative violates a relation on S")
        if any(vidx[u] in col for u in exempt):
            raise AssertionError("K1 representative does not vanish off S")

    k1 = FgAbelianGroup.canonical(lattice_a.cols)
    return KTheoryResult(
        graph=graph,
        vertex_order=verts,
        k0=k0,
        k0_class_of_vertex=classes,
        k1=k1,
        k1_lattice=lattice_a,
        k1_column=la,
    )


def boundary_map(graph: FiniteGraph, x: Sequence[int]) -> tuple[int, ...]:
    """Index map: component at exempt u is -(sum of x(o(e)) over edges into u).

    ``x`` must satisfy the incoming-edge relation at every vertex (i.e. be a
    degree-one representative for the full-relation algebra); that is
    checked, not assumed.
    """
    verts = graph.vertex_list
    if len(x) != len(verts):
        raise ValueError("class vector length must match the vertex count")
    col = dict(enumerate(x))
    if not _k1_relations_hold(graph, col, verts):
        raise ValueError("vector is not a degree-one class of the full-relation algebra")
    return _index_map(graph, [col])[0]


def _index_map(graph: FiniteGraph, columns: Iterable[dict]) -> list[tuple[int, ...]]:
    """``boundary_map`` of each ``{vertex index: value}`` column, unchecked.

    For callers whose columns are already known to be degree-one classes.
    """
    vidx = graph.vertex_index
    origins = [[vidx[o] for _, o, _ in graph.in_edges(u)] for u in sorted(graph.relation_exempt)]
    return [tuple(-sum(x.get(o, 0) for o in at) for at in origins) for x in columns]


def _relation_classes(kt: KTheoryResult, at: Sequence[str]) -> list[tuple[int, ...]]:
    """Canonical K0 class of the relation row e_u - sum e_{t(e)} at each u in ``at``.

    Read from the vertex classes and the out-edges; no Smith form.
    """
    classes, k0 = kt.k0_class_of_vertex, kt.k0
    out = []
    for u in at:
        acc = classes[u]
        for _, _, t in kt.graph.out_edges(u):
            acc = [a - b for a, b in zip(acc, classes[t])]
        out.append(k0.reduce_coords(acc))
    return out


# ---------------------------------------------------------------------------
# Long exact sequence cross-validation
# ---------------------------------------------------------------------------


@dataclass
class LesReport:
    """Exactness verdicts for the Toeplitz extension sequence.

    ``witnesses`` maps each failing node to the first vector, vertex or
    generator that failed its check; ``to_json_dict`` emits them only when a
    node fails.
    """

    nodes: dict[str, bool] = field(default_factory=dict)
    terms: dict[str, str] = field(default_factory=dict)
    witnesses: dict[str, dict] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.nodes.values())

    def record(self, node: str, witness: dict | None) -> None:
        self.nodes[node] = witness is None
        if witness is not None:
            self.witnesses[node] = witness

    def to_json_dict(self) -> dict:
        out = {"passed": self.passed, "nodes": dict(sorted(self.nodes.items())), "terms": dict(self.terms)}
        if not self.passed:
            out["witnesses"] = dict(sorted(self.witnesses.items()))
        return out


def _first(witnesses) -> dict | None:
    return next(iter(witnesses), None)


def _combine(coeffs: Sequence[int], vectors: Sequence[Sequence[int]], n: int) -> list[int]:
    """The sum of coeffs[k] * vectors[k], each vector of length n."""
    acc = [0] * n
    for c, vec in zip(coeffs, vectors):
        if c:
            acc = [a + c * y for a, y in zip(acc, vec)]
    return acc


def les_check(graph: FiniteGraph) -> LesReport:
    """Verify exactness of 0 -> K1(T) -> K1(O) -> Z^{S^c} -> K0(T) -> K0(O) -> 0.

    The four K-groups come from two independent ``ktheory`` calls, on the
    graph (T) and on its full-relation graph (O).  The nodes read what those
    calls hold: the degree-one lattices with their Smith forms, and the K0
    class maps in canonical coordinates.  Besides them only two small
    matrices are reduced: B below, with a row per exempt vertex and a column
    per K1(O) basis vector, and the presentation of coker j, with a column
    per K0(T) coordinate.

    * ``exact_at_k1_full``: B is the index map on the K1(O) basis.  Every
      basis vector of ker B, taken into Z^{F0}, lies in K1(T), and every
      K1(T) basis vector solves in K1(O) to coefficients that B kills.  The
      kernel is saturated, so this is lattice equality.
    * ``exact_at_ideal``: J is the matrix of the ideal-class map
      j: Z^{S^c} -> K0(T); its column at exempt u is the class of u's
      relation row, read from the class map and the out-edges.  coker j is
      presented by the K0(T) torsion rows and the rows of J^T, and the rows
      of U past the rank of its Smith form span the left kernel, whose J^T
      part generates ker j.  Every generator of ker j lies in the image of
      B, and J kills every column of B.
    * ``exact_at_k0_toeplitz`` is (a), (b) and (c):
      (a) the Toeplitz class map kills every relation row at S and the full
      class map every relation row, so phi: K0(T) -> K0(O), [v] -> [v], is
      well defined and phi j = 0;
      (b) coker j has the invariants of K0(O);
      (c) the full vertex classes generate K0(O): each canonical generator
      is the class of its section, a vertex vector read from the full
      Smith form.
      Then phi induces a surjection coker j -> K0(O) between isomorphic
      finitely generated abelian groups.  Such groups are Hopfian, so it is
      an isomorphism: ker phi = im j, and phi is onto.
    * ``coker_ideal_map_is_k0_full`` is (b) and (c).

    Exactness is a theorem of exact integer linear algebra, so any failure
    means a bug, not bad input.  ``LesReport.witnesses`` names, for each
    failing node, the first vector, vertex or generator that failed.
    """
    report = LesReport()
    exempt = tuple(sorted(graph.relation_exempt))

    kt_t = ktheory(graph)
    # with no exempt vertex the graph is its own full-relation graph; with
    # one, that graph has the same checked vertices and edges
    kt_o = ktheory(FiniteGraph._of(graph.vertices, graph.edges, frozenset())) if exempt else kt_t

    report.terms["k1_toeplitz"] = format_group(kt_t.k1)
    report.terms["k1_full"] = format_group(kt_o.k1)
    report.terms["ideal_k0"] = format_group(FgAbelianGroup.canonical(len(exempt)))
    report.terms["k0_toeplitz"] = format_group(kt_t.k0)
    report.terms["k0_full"] = format_group(kt_o.k0)

    # node 1: the degree-one Toeplitz lattice is the kernel of the index map
    # inside the full-relation lattice.  ktheory(graph_o) checked that its
    # basis satisfies the relation at every vertex, so B needs no recheck
    k1_full = kt_o.k1_lattice
    bdry_cols = _index_map(graph, k1_full.sparse_columns())
    bmat = IntMatrix.from_sparse_columns(len(exempt), [dict(enumerate(c)) for c in bdry_cols])
    image = ColumnLattice(bmat)  # its Smith form gives node 1's kernel and node 2's image
    ker_boundary = k1_full @ image.snf.kernel()
    witness = _first(
        {"check": "the kernel of the index map lies in K1(T)", "vector": list(x)}
        for x in ker_boundary.columns()
        if not kt_t.k1_column.contains(x)
    ) or _first(
        {"check": "K1(T) lies in the kernel of the index map", "vector": list(x)}
        for x, c in ((x, kt_o.k1_column.solve(x)) for x in kt_t.k1_lattice.columns())
        if c is None or any(bmat.mat_vec(c))
    )
    report.record("exact_at_k1_full", witness)

    # node 2: the image of the index map is the kernel of the ideal-class map
    k0_t = kt_t.k0
    ideal = _relation_classes(kt_t, exempt)
    rows = tuple({i: d} for i, d in enumerate(k0_t.invariant_factors))
    nt = len(rows)
    rows += tuple({i: x for i, x in enumerate(c) if x} for c in ideal)
    coker_j = cokernel(IntMatrix._of(len(rows), k0_t.ncoords, rows))
    snf = coker_j.snf
    kerj = ([snf.u_row(r).get(nt + k, 0) for k in range(len(exempt))] for r in range(snf.rank, len(rows)))
    witness = _first(
        {"check": "the kernel of the ideal-class map lies in the image of the index map", "vector": x}
        for x in kerj
        if not image.contains(x)
    ) or _first(
        {"check": "the ideal-class map kills the image of the index map", "vector": list(b)}
        for b in bdry_cols
        if any(k0_t.reduce_coords(_combine(b, ideal, k0_t.ncoords)))
    )
    report.record("exact_at_ideal", witness)

    # node 3 on the two independent Smith forms, as in the docstring
    class_maps = [("Toeplitz", kt_t, graph.s_vertices)]
    if exempt:
        class_maps.append(("full", kt_o, graph.vertex_list))
    killed = _first(
        {"check": f"the {name} class map kills the relation row at the vertex", "vertex": u}
        for name, kt, at in class_maps
        for u, c in zip(at, _relation_classes(kt, at))
        if any(c)
    )
    same = None
    if not coker_j.is_isomorphic_to(kt_o.k0):
        same = {
            "check": "coker j is K0(O)",
            "coker_j": format_group(coker_j),
            "k0_full": format_group(kt_o.k0),
        }
    k0_o = kt_o.k0
    n = k0_o.ncoords
    classes_o = [kt_o.k0_class_of_vertex[v] for v in k0_o.generators]
    onto = _first(
        {"check": "the full vertex classes generate K0(O)", "generator": k, "section": list(s)}
        for k, s in ((k, k0_o.section(k)) for k in range(n))
        if k0_o.reduce_coords(_combine(s, classes_o, n)) != tuple(int(i == k) for i in range(n))
    )
    report.record("exact_at_k0_toeplitz", killed or same or onto)
    report.record("coker_ideal_map_is_k0_full", same or onto)

    return report


# ---------------------------------------------------------------------------
# Inclusions
# ---------------------------------------------------------------------------


def inclusion_k0(
    small: FiniteGraph,
    large: FiniteGraph,
    kt_small: KTheoryResult,
    kt_large: KTheoryResult,
) -> GroupHom:
    """Degree-zero map of a graph inclusion, in canonical coordinates.

    The inclusion sends each vertex to itself.  It is well defined when each
    relation vertex of the small graph has identical out-edge sets in both
    graphs: S of the small graph lies in S of the large one, so each small
    relation row is sent to the large relation row of the same vertex.  Both
    are checked, and the K-theory results must be those of the two graphs.

    The section of canonical generator j is a vertex vector of the small
    graph, so column j is the reduced sum of the large graph's vertex
    classes, weighted by the section.  The hom runs between the canonical
    groups of the two K0 groups (``KTheoryResult.k0_canonical``), whose
    constructor checks it against the torsion orders.
    """
    if not small.is_labeled_subgraph_of(large):
        raise ValueError("the first graph is not a labeled subgraph of the second")
    if not set(small.s_vertices) <= set(large.s_vertices):
        raise ValueError("the relation set must not shrink along the inclusion")
    for u in small.s_vertices:
        if set(small.out_edges(u)) != set(large.out_edges(u)):
            raise ValueError(f"out-edges at relation vertex {u!r} differ between the graphs")
    if kt_small.graph != small or kt_large.graph != large:
        raise ValueError("the K-theory results passed are not those of the two graphs")
    dom, order = kt_small.k0, kt_small.vertex_order
    cod, classes = kt_large.k0, kt_large.k0_class_of_vertex
    torsion, free = dom.coordinate_positions()
    cols = []
    for pos in torsion + free:
        acc = [0] * cod.ncoords
        for i, x in dom.snf.vinv_row(pos).items():
            for t, y in enumerate(classes[order[i]]):
                acc[t] += x * y
        cols.append(dict(enumerate(cod.reduce_coords(acc))))
    matrix = IntMatrix.from_sparse_columns(cod.ncoords, cols)
    return GroupHom(kt_small.k0_canonical, kt_large.k0_canonical, matrix)


# ---------------------------------------------------------------------------
# Chains
# ---------------------------------------------------------------------------


@dataclass
class ChainKTheory:
    """Full per-layer and colimit K-theory data for a chain prefix."""

    k0: FgAbelianGroup
    k1: FgAbelianGroup
    stabilized: bool
    window: int
    forced: bool
    settled_index: int
    condition_a: ConditionReport
    layer_results: list[KTheoryResult]
    k0_class_map: dict[str, tuple[int, ...]]
    k0_homs: list[GroupHom]  # canonical-coordinate inclusion maps between layers
    k1_homs: list[GroupHom]  # canonical-coordinate maps between free layers


def chain_ktheory_report(chain: GraphChain, window: int = 2, force: bool = False) -> ChainKTheory:
    """Layerwise K-theory, inclusion maps and colimits.

    The colimit class map covers vertices of layers up to the settled index
    (length - 1 - window); vertices beyond it have no reduced class within
    this prefix, and ``check_condition_b2`` reports them as unchecked.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    nlayers = len(chain)
    if nlayers < window + 2:
        raise ValueError(f"chain of length {nlayers} is too short for window {window}")
    cond_a = check_condition_a(chain)
    if not cond_a.passed and not force:
        raise ChainConditionError(cond_a)

    layer_graphs = [chain.layer_graph(n) for n in range(nlayers)]
    kts = [ktheory(g) for g in layer_graphs]

    # degree zero: canonical-coordinate inclusions, read from the layer classes
    k0_homs = [
        inclusion_k0(layer_graphs[n], layer_graphs[n + 1], kts[n], kts[n + 1])
        for n in range(nlayers - 1)
    ]
    k0_res = colimit_chain_detailed([kt.k0_canonical for kt in kts], k0_homs, window)

    # degree one: solve each basis column in the next lattice
    k1_homs = []
    for n in range(nlayers - 1):
        src, dst = kts[n], kts[n + 1]
        dst_lat = dst.k1_column
        dst_idx = dst.graph.vertex_index
        cols = []
        for x in src.k1_lattice.sparse_columns():
            ext = [0] * len(dst.vertex_order)
            for i, val in x.items():
                ext[dst_idx[src.vertex_order[i]]] = val
            coeffs = dst_lat.solve(ext)
            if coeffs is None:
                raise ValueError(
                    f"degree-one basis of layer {n} does not extend into layer {n + 1}"
                )
            cols.append(coeffs)
        matrix = IntMatrix.from_sparse_columns(dst.k1_lattice.cols, [dict(enumerate(c)) for c in cols])
        k1_homs.append(GroupHom(src.k1, dst.k1, matrix))
    k1_res = colimit_chain_detailed([kt.k1 for kt in kts], k1_homs, window)
    if k1_res.group.invariant_factors:
        raise AssertionError("degree-one colimit acquired torsion; this is a bug")

    # colimit classes: every chain map is a generator inclusion, so a vertex
    # class pushed to the settled layer is that layer's own class; reduce it
    settled = k0_res.settled_index
    top = kts[settled].k0_class_of_vertex
    class_map = {v: k0_res.reduction.apply_coords(top[v]) for v in sorted(chain.layers[settled])}

    return ChainKTheory(
        k0=k0_res.group,
        k1=k1_res.group,
        stabilized=k0_res.stabilized and k1_res.stabilized,
        window=window,
        forced=force and not cond_a.passed,
        settled_index=settled,
        condition_a=cond_a,
        layer_results=kts,
        k0_class_map=class_map,
        k0_homs=k0_homs,
        k1_homs=k1_homs,
    )

