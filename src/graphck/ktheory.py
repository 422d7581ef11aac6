"""K-theory of (Toeplitz) graph algebras, exactly.

For a finite graph F with relation set S (the complement of
``relation_exempt``), the degree-zero group is presented on the vertex
generators by one relation per u in S:

    [u] = sum of [t(e)] over edges e leaving u   (multiplicity counted),

i.e. K0 = cokernel of the relation matrix R whose row at u is
e_u - sum e_{t(e)}.  The degree-one group is free; it is computed along two
routes, each giving a basis as sparse ``{vertex index: value}`` columns, and
the two answers are required to agree exactly:

* as the kernel of the map Z^S -> Z^{F0} sending c to sum c_u * row_u,
  read from the rows of U past the rank in the Smith form of R, and
* as the sublattice of integer vertex functions x vanishing off S with
  x(u) = sum_{e into u} x(o(e)) at every vertex (the index-map
  description).  On Z^S these equations are the transposed matrix R^T, so
  this is the kernel of R^T, read from the V columns of its own Smith form.
  With no exempt vertex the two routes read the same Smith form of R.

Route one's basis is then checked against the relation at every vertex, and
its length against rank K0 - |S^c|, since rank K0 = |F0| - rank R and
rank K1 = |S| - rank R.

The index (boundary) map sends such an x to the vector
(-sum_{e into u} x(o(e)))_{u outside S}, read as (-x(u))_{u outside S}
because x satisfies the relation at u too; ``les_check`` verifies exactness of
the six-term sequence

    0 -> K1(T) -> K1(O) -> Z^{S^c} -> K0(T) -> K0(O) -> 0

at every interior node, which is a theorem: a failure always indicates an
implementation bug, making the check a strong self-test.  The nodes read the
degree-one lattices and the canonical K0 class maps of the Toeplitz and the
full-relation results; the only matrices they reduce themselves are indexed
by exempt vertices, K1(O) basis vectors and K0(T) coordinates.  At K0 the
check is a certificate (a well-defined map from coker j onto an isomorphic
group), and a failing node reports a witness.

Chains of graphs get their K-theory as a direct limit of the layers' groups
along the inclusion-induced maps (generator-wise in degree zero, extension
by zero in degree one), through the stabilization-flagged colimit from
``abelian``.  Any tail has the same limit, so only the chain's final stretch
gets its layer results and maps.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property

from .abelian import (
    ColumnLattice,
    FgAbelianGroup,
    GroupHom,
    IntMatrix,
    cokernel,
    colimit_chain_detailed,
    final_stretch,
    format_group,
    kernel_basis,
)
from .graphs import FiniteGraph, GraphChain, Verdict, check_condition_a


class ChainConditionError(ValueError):
    """The chain failed its structural gate and force was not given."""

    def __init__(self, report: Verdict):
        self.report = report
        super().__init__(f"chain fails conditions {sorted(report.witnesses)}; pass force=True to override")


# ---------------------------------------------------------------------------
# Single-graph K-theory
# ---------------------------------------------------------------------------


def relation_matrix(graph: FiniteGraph) -> IntMatrix:
    """One relation row per vertex of the S set, in sorted order."""
    vidx = graph.vertex_index
    rows = []
    for u in graph.s_vertices:
        i = vidx[u]
        row = {i: 1}
        for _, _, t in graph.out_edges(u):
            j = vidx[t]
            row[j] = row.get(j, 0) - 1
        if not row[i]:
            del row[i]  # one loop at u cancels e_u; every other entry is negative
        rows.append(row)
    return IntMatrix._of(len(rows), len(vidx), tuple(rows))


def _k1_relations_hold(graph: FiniteGraph, x: dict) -> bool:
    """Whether x(u) = sum of x(o(e)) over the edges e into u, at every vertex u.

    ``x`` maps vertex indices to values; absent indices are zero.  Each value
    is added along the out-edges of its vertex, so the sums cost the
    out-degrees of the support, and only vertices where x or a sum is
    nonzero are compared.
    """
    verts, vidx = graph.vertex_list, graph.vertex_index
    incoming: dict = {}
    for i, val in x.items():
        for _, _, t in graph.out_edges(verts[i]):
            j = vidx[t]
            incoming[j] = incoming.get(j, 0) + val
    return all(x.get(j, 0) == incoming.get(j, 0) for j in x.keys() | incoming.keys())


@dataclass
class KTheoryResult:
    """K-theory of one (Toeplitz) graph algebra.

    ``vertex_order`` is the graph's sorted vertex list: vertex i is the
    generator e_i of ``k0`` and index i of every vertex vector.
    ``k1_basis`` holds representative integer vertex functions in Z^{F0} as
    sparse ``{vertex index: nonzero}`` columns; ``k0_class_of_vertex`` maps
    each vertex to the canonical coordinates of its class.  ``k1_column`` is
    the lattice they span, with the Smith form the degree-one check already
    computed, and ``k1_lattice`` its matrix.
    """

    graph: FiniteGraph
    k0: FgAbelianGroup
    k0_class_of_vertex: dict[str, tuple[int, ...]]
    k1: FgAbelianGroup
    k1_basis: list[dict]
    k1_column: ColumnLattice = field(repr=False, compare=False)

    @property
    def vertex_order(self) -> tuple[str, ...]:
        return self.graph.vertex_list

    @property
    def k1_lattice(self) -> IntMatrix:
        return self.k1_column.matrix

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
    compared as lists of sparse columns first, and as lattices only when
    they differ.  The basis must span a saturated lattice, each vector is
    then checked against the relation at every vertex, and the basis length
    must be the rank of K0 less the number of exempt vertices.
    """
    verts = graph.vertex_list
    svs = graph.s_vertices

    rel = relation_matrix(graph)
    k0 = cokernel(rel)
    snf = k0.snf
    classes = dict(zip(verts, k0.generator_classes()))
    spos = [graph.vertex_index[u] for u in svs]

    def off_s_zero(vectors) -> list[dict]:
        # coefficient vectors over S, extended by zero off S
        return [{spos[k]: c for k, c in x.items()} for x in vectors]

    # route one: the rows of U past the rank of the relation matrix span its
    # left kernel, the c in Z^S with sum c_u * row_u = 0
    basis = off_s_zero(snf.u_row(i) for i in range(snf.rank, len(svs)))

    # route two: vertex functions vanishing off S with x(u) = sum of x(o(e))
    # over edges into u at every vertex u.  On Z^S these equations are the
    # transposed relation matrix, so with exempt vertices route two is its
    # kernel, a Smith form of its own; with none it is route one's lattice.
    # Equal bases span the same lattice, so the lattices are compared only
    # when the bases differ
    other = off_s_zero(kernel_basis(rel.transpose())) if graph.relation_exempt else basis
    la = ColumnLattice(IntMatrix.from_sparse_columns(len(verts), basis))
    if other != basis and not la.equals(ColumnLattice(IntMatrix.from_sparse_columns(len(verts), other))):
        raise AssertionError("the two K1 computations disagree; this is a bug")
    # a kernel is saturated, so every invariant factor of la is 1; with no
    # exempt vertex nothing else tells the kernel from a sublattice of it
    if la.snf.diagonal.count(1) != len(basis):
        raise AssertionError("the K1 basis does not span a saturated lattice; this is a bug")

    # off_s_zero writes only at S positions, so each column vanishes off S
    for col in basis:
        if not _k1_relations_hold(graph, col):
            raise AssertionError("K1 representative violates a relation on S or at an exempt vertex")
    # rank K0 = |F0| - rank R and rank K1 = |S| - rank R, the K0 rank read
    # from the diagonal, so a basis one vector short of the kernel fails here
    if k0.free_rank - len(basis) != len(graph.relation_exempt):
        raise AssertionError("the K1 basis length does not match the rank of K0; this is a bug")

    return KTheoryResult(
        graph=graph,
        k0=k0,
        k0_class_of_vertex=classes,
        k1=FgAbelianGroup.canonical(len(basis)),
        k1_basis=basis,
        k1_column=la,
    )


def boundary_map(graph: FiniteGraph, x: Sequence[int]) -> tuple[int, ...]:
    """Index map: component at exempt u is -(sum of x(o(e)) over edges into u).

    ``x`` must satisfy the incoming-edge relation at every vertex (i.e. be a
    degree-one representative for the full-relation algebra); that is
    checked, not assumed.  The relation at u makes that sum x(u), so the
    component is read as -x(u).
    """
    verts = graph.vertex_list
    if len(x) != len(verts):
        raise ValueError("class vector length must match the vertex count")
    col = dict(enumerate(x))
    if not _k1_relations_hold(graph, col):
        raise ValueError("vector is not a degree-one class of the full-relation algebra")
    return _index_map(graph, [col])[0]


def _index_map(graph: FiniteGraph, columns: Iterable[dict]) -> list[tuple[int, ...]]:
    """``boundary_map`` of each ``{vertex index: value}`` column, unchecked.

    For callers whose columns are already known to be degree-one classes:
    such a class has x(u) = sum of x(o(e)) over edges into u, so the
    component at exempt u is -x(u).
    """
    at = [graph.vertex_index[u] for u in sorted(graph.relation_exempt)]
    return [tuple(-x.get(i, 0) for i in at) for x in columns]


def _relation_classes(kt: KTheoryResult, at: Sequence[str]) -> list[tuple[int, ...]]:
    """Canonical K0 class of the relation row e_u - sum e_{t(e)} at each u in ``at``.

    Read from the vertex classes and the out-edges; no Smith form.  Each row
    is classed in one pass over u's out-edges, subtracting each terminus
    class, and reduced once.  ``FgAbelianGroup.class_sum`` gives the same
    tuples, but it multiplies every term by its coefficient and checks and
    copies the sum, which a relation row, with coefficients 1 and -1 on
    classes of the group's own length, does not need.
    """
    classes = kt.k0_class_of_vertex
    factors = tuple(enumerate(kt.k0.invariant_factors))
    out = kt.graph.out_edges
    rows = []
    for u in at:
        acc = list(classes[u])
        for _, _, t in out(u):
            for k, y in enumerate(classes[t]):
                acc[k] -= y
        for k, d in factors:
            acc[k] %= d
        rows.append(tuple(acc))
    return rows


# ---------------------------------------------------------------------------
# Long exact sequence cross-validation
# ---------------------------------------------------------------------------


@dataclass
class LesReport(Verdict):
    """Exactness verdicts for the Toeplitz extension sequence, one check per
    interior node, with the five groups of the sequence as ``terms``."""

    terms: dict[str, str] = field(default_factory=dict)


def _first(witnesses) -> dict | None:
    return next(iter(witnesses), None)


def les_check(graph: FiniteGraph) -> LesReport:
    """Verify exactness of 0 -> K1(T) -> K1(O) -> Z^{S^c} -> K0(T) -> K0(O) -> 0.

    The four K-groups come from two independent ``ktheory`` calls, on the
    graph (T) and on its full-relation graph (O).  The nodes read what those
    calls hold: the degree-one lattices with their Smith forms, and the K0
    class maps in canonical coordinates.  Besides them only two small
    matrices are reduced: B below, with a row per exempt vertex and a column
    per K1(O) basis vector, and the presentation of coker j, with a column
    per K0(T) coordinate.  The class of the relation row e_u - sum e_{t(e)}
    is read from a class map and u's out-edges (``_relation_classes``): the
    Toeplitz rows of all vertices in one pass, which J reads at the exempt
    vertices and (a) at S, and the full rows in another.

    * ``exact_at_k1_full``: B is the index map on the K1(O) basis.  Every
      basis vector of ker B, taken into Z^{F0}, lies in K1(T), and every
      K1(T) basis vector solves in K1(O) to coefficients that B kills.  The
      kernel is saturated, so this is lattice equality.
    * ``exact_at_ideal``: J is the matrix of the ideal-class map
      j: Z^{S^c} -> K0(T); its column at exempt u is the Toeplitz class of
      u's relation row.  coker j is presented by the K0(T) torsion rows and
      the rows of J^T, and the rows of U past the rank of its Smith form
      span the left kernel, whose J^T part generates ker j.  Every generator
      of ker j lies in the image of B, and J kills every column of B.
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
    # one, that graph shares the checked, sorted vertices and edges
    kt_o = ktheory(FiniteGraph._grown(graph, (), (), frozenset())) if exempt else kt_t

    report.terms["k1_toeplitz"] = format_group(kt_t.k1)
    report.terms["k1_full"] = format_group(kt_o.k1)
    report.terms["ideal_k0"] = format_group(FgAbelianGroup.canonical(len(exempt)))
    report.terms["k0_toeplitz"] = format_group(kt_t.k0)
    report.terms["k0_full"] = format_group(kt_o.k0)

    # node 1: the degree-one Toeplitz lattice is the kernel of the index map
    # inside the full-relation lattice.  ktheory(graph_o) checked that its
    # basis satisfies the relation at every vertex, so B needs no recheck
    k1_full = kt_o.k1_lattice  # the K1(O) basis as the columns of a matrix
    bdry_cols = _index_map(graph, kt_o.k1_basis)
    bmat = IntMatrix.from_sparse_columns(len(exempt), [dict(enumerate(c)) for c in bdry_cols])
    image = ColumnLattice(bmat)  # its Smith form gives node 1's kernel and node 2's image
    ker_boundary = (k1_full.mat_vec([c.get(k, 0) for k in range(k1_full.cols)]) for c in image.snf.kernel())
    witness = _first(
        {"check": "the kernel of the index map lies in K1(T)", "vector": list(x)}
        for x in ker_boundary
        if not kt_t.k1_column.contains(x)
    ) or _first(
        {"check": "K1(T) lies in the kernel of the index map", "vector": x}
        for x in ([b.get(i, 0) for i in range(k1_full.rows)] for b in kt_t.k1_basis)
        if (c := kt_o.k1_column.solve(x)) is None or any(bmat.mat_vec(c))
    )
    report.record("exact_at_k1_full", witness)

    # node 2: the image of the index map is the kernel of the ideal-class map.
    # J's columns are the Toeplitz row classes at the exempt vertices; the
    # rows of every vertex are classed at once, and node 3 reads those at S
    k0_t = kt_t.k0
    verts, vidx = graph.vertex_list, graph.vertex_index
    rows_t = _relation_classes(kt_t, verts)
    ideal = [rows_t[vidx[u]] for u in exempt]
    rows = tuple({i: d} for i, d in enumerate(k0_t.invariant_factors))
    nt = len(rows)
    rows += tuple({i: x for i, x in enumerate(c) if x} for c in ideal)
    coker_j = cokernel(IntMatrix._of(len(rows), k0_t.ncoords, rows))
    snf = coker_j.snf
    kerj = ([u.get(nt + k, 0) for k in range(len(exempt))] for u in map(snf.u_row, range(snf.rank, len(rows))))
    witness = _first(
        {"check": "the kernel of the ideal-class map lies in the image of the index map", "vector": x}
        for x in kerj
        if not image.contains(x)
    ) or _first(
        {"check": "the ideal-class map kills the image of the index map", "vector": list(b)}
        for b in bdry_cols
        if any(k0_t.class_sum(zip(b, ideal)))
    )
    report.record("exact_at_ideal", witness)

    # node 3 on the two independent Smith forms, as in the docstring: the
    # Toeplitz rows at S, then the full rows at every vertex
    class_maps = [("Toeplitz", rows_t, graph.relation_exempt)]
    if exempt:
        class_maps.append(("full", _relation_classes(kt_o, verts), ()))
    killed = _first(
        {"check": f"the {name} class map kills the relation row at the vertex", "vertex": u}
        for name, classes, skip in class_maps
        for u, c in zip(verts, classes)
        if any(c) and u not in skip
    )
    same = None
    if coker_j != kt_o.k0:
        same = {
            "check": "coker j is K0(O)",
            "coker_j": format_group(coker_j),
            "k0_full": format_group(kt_o.k0),
        }
    k0_o = kt_o.k0
    n = k0_o.ncoords
    classes_o = [kt_o.k0_class_of_vertex[v] for v in kt_o.vertex_order]
    onto = _first(
        {"check": "the full vertex classes generate K0(O)", "generator": k, "section": list(s)}
        for k, s in ((k, k0_o.section(k)) for k in range(n))
        # the class of the section must be e_k: 1 at k and n - 1 zeros
        if (c := k0_o.class_sum(zip(s, classes_o)))[k] != 1 or c.count(0) != n - 1
    )
    report.record("exact_at_k0_toeplitz", killed or same or onto)
    report.record("coker_ideal_map_is_k0_full", same or onto)

    return report


# ---------------------------------------------------------------------------
# Inclusions
# ---------------------------------------------------------------------------


def inclusion_k0(small: KTheoryResult, large: KTheoryResult) -> GroupHom:
    """Degree-zero map of a graph inclusion, in canonical coordinates.

    ``small`` and ``large`` are the K-theory results of the two graphs.  The
    inclusion sends each vertex to itself.  It is well defined when each
    relation vertex of the small graph has identical out-edge sets in both
    graphs: S of the small graph lies in S of the large one, so each small
    relation row is sent to the large relation row of the same vertex.  Both
    are checked, after the vertex and edge inclusion.  With the vertices
    included, S does not shrink exactly when no small relation vertex is
    exempt in the large graph.  A graph holds each vertex's out-edges in
    sorted edge order, and edge ids are unique, so two out-edge tuples are
    equal exactly when their sets are.

    The section of canonical generator j is a vertex vector of the small
    graph, so column j is ``class_sum`` of the classes ``large`` reports in
    ``k0_class_of_vertex``, weighted by the section.  The hom runs between
    the canonical groups of the two K0 groups (``KTheoryResult.k0_canonical``),
    whose constructor checks it against the torsion orders.
    """
    f, g = small.graph, large.graph
    if not f.is_labeled_subgraph_of(g):
        raise ValueError("the first graph is not a labeled subgraph of the second")
    if not g.relation_exempt.isdisjoint(f.s_vertices):
        raise ValueError("the relation set must not shrink along the inclusion")
    for u in f.s_vertices:
        if f.out_edges(u) != g.out_edges(u):
            raise ValueError(f"out-edges at relation vertex {u!r} differ between the graphs")
    dom, cod = small.k0, large.k0
    classes = [large.k0_class_of_vertex[v] for v in small.vertex_order]
    cols = [dict(enumerate(cod.class_sum(zip(dom.section(k), classes)))) for k in range(dom.ncoords)]
    matrix = IntMatrix.from_sparse_columns(cod.ncoords, cols)
    return GroupHom(small.k0_canonical, large.k0_canonical, matrix)


def inclusion_k1(small: KTheoryResult, large: KTheoryResult) -> GroupHom:
    """Degree-one map of a graph inclusion: each basis column of ``small``,
    extended by zero, solved in the lattice of ``large``."""
    index = large.graph.vertex_index
    cols = []
    for x in small.k1_basis:
        ext = [0] * len(large.vertex_order)
        for i, val in x.items():
            ext[index[small.vertex_order[i]]] = val
        coeffs = large.k1_column.solve(ext)
        if coeffs is None:
            raise ValueError("the degree-one basis of the small graph does not extend into the large one")
        cols.append(dict(enumerate(coeffs)))
    return GroupHom(small.k1, large.k1, IntMatrix.from_sparse_columns(len(large.k1_basis), cols))


# ---------------------------------------------------------------------------
# Chains
# ---------------------------------------------------------------------------


@dataclass
class ChainKTheory:
    """Colimit K-theory of a chain prefix, with the final stretch it read.

    ``layer_results`` holds the K-theory of layers ``first`` .. length - 1,
    and ``k0_homs`` and ``k1_homs`` the inclusion maps between consecutive
    ones, so entry i is layer ``first`` + i.  ``settled_index`` is a layer
    number.
    """

    k0: FgAbelianGroup
    k1: FgAbelianGroup
    stabilized: bool
    window: int
    forced: bool
    settled_index: int
    condition_a: Verdict
    first: int
    layer_results: list[KTheoryResult]
    k0_class_map: dict[str, tuple[int, ...]]
    k0_homs: list[GroupHom]  # canonical-coordinate inclusion maps between layers
    k1_homs: list[GroupHom]  # canonical-coordinate maps between free layers


def chain_ktheory_report(chain: GraphChain, window: int = 2, force: bool = False) -> ChainKTheory:
    """Colimit K-theory of a chain, read from its final stretch.

    Any tail of a chain has the same direct limit, and the colimits read only
    the final stretch: the layers ``first`` .. length - 1 of
    ``abelian.final_stretch`` and the maps between them.  Only those layers
    get their K-theory and inclusion maps, with every check.  Their graphs
    are built layer on layer (``GraphChain.layer_graphs_from``): layer
    ``first`` from the vertices and edges the chain groups under layers
    0 .. ``first``, each later one from the one before plus those it adds.
    The inclusions before the stretch hold by construction, so leaving them
    out hides no failure: a layer's S set and out-edges are read from the
    chain's edges, so a relation vertex of layer n has all its out-edges in
    layer n, stays a relation vertex of layer n+1 and keeps its out-edges
    there.

    The colimit class map covers vertices of layers up to the settled index
    (length - 1 - window); vertices beyond it have no reduced class within
    this prefix, and ``check_condition_b2`` reports them as unchecked.
    """
    first, _ = final_stretch(len(chain), window)
    cond_a = check_condition_a(chain)
    if not cond_a.passed and not force:
        raise ChainConditionError(cond_a)

    kts = [ktheory(g) for g in chain.layer_graphs_from(first)]
    pairs = list(zip(kts, kts[1:]))
    k0_homs = [inclusion_k0(a, b) for a, b in pairs]
    k1_homs = [inclusion_k1(a, b) for a, b in pairs]

    k0_res = colimit_chain_detailed([kt.k0_canonical for kt in kts], k0_homs, window)
    k1_res = colimit_chain_detailed([kt.k1 for kt in kts], k1_homs, window)
    if k1_res.group.invariant_factors:
        raise AssertionError("degree-one colimit acquired torsion; this is a bug")

    # colimit classes: every chain map is a generator inclusion, and the reduced
    # group is the settled layer's under more relations: read each class there,
    # once per distinct layer class, which a tower's vertices share
    top = kts[k0_res.settled_index].k0_class_of_vertex
    reduced = {c: k0_res.group.class_of(c) for c in set(top.values())}
    class_map = {v: reduced[c] for v, c in top.items()}

    return ChainKTheory(
        k0=k0_res.group,
        k1=k1_res.group,
        stabilized=k0_res.stabilized and k1_res.stabilized,
        window=window,
        forced=force and not cond_a.passed,
        settled_index=first + k0_res.settled_index,
        condition_a=cond_a,
        first=first,
        layer_results=kts,
        k0_class_map=class_map,
        k0_homs=k0_homs,
        k1_homs=k1_homs,
    )
