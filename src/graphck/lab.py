"""Finite-dimensional perturbation experiments for partial-isometry families.

The model algebra is the C*-algebra of functions on the grid {0, .., G} with
values in m x m complex matrices; the distinguished ideal J consists of the
fields vanishing at the last grid point (``ideal_fiber=None`` degenerately
takes J to be the whole algebra).  The norm is the max over fibers of the
operator norm.  A ``MatField`` stores its fibers as one read-only
``(G + 1, m, m)`` array, so arithmetic, adjoints, norms and the functional
calculus are single numpy operations on the whole stack; the same formulas
accept a bare m x m matrix.  Only the public constructor copies; results of
field arithmetic wrap the array numpy just computed.  Reported norms come
from singular value decompositions, one call per stack, which skips exact
zero matrices: the residual terms of a relation are built once, stacked and
decomposed together.  A tolerance check that reports no value passes on the
Frobenius norm, which bounds the operator norm, when that is within the
tolerance, and decomposes otherwise; a failure message prints the operator
norm.  Such checks are the three gates of ``straighten``,
``MatField.allclose``, and the gates of ``straighten_family``: the small
family exact, the whole family within ``FAMILY_TOL`` and exact at the ideal
fiber (the last-fiber slice of the same terms), the result exact and within
its blocks, and each new edge unmoved at the ideal fiber.  Scalar fields
are exactly central, so quasi-central approximate-unit commutators
vanish identically, and ``lemma36_w`` multiplies by h and k as per-fiber
scalars; the experiments isolate the norm-limit content of the three tools:

* ``straighten``: functional calculus x -> x * f(x*x) with
  f(t) = t^{-1/2} on (1/2, inf) and 0 below, turning an approximate partial
  isometry into an exact one.  The defect ||x x*x - x|| must stay below
  0.35 < 1/(2*sqrt(2)): a defect d confines the spectrum of x*x to
  {t : t(1-t)^2 <= d^2}, and d < 1/(2*sqrt(2)) keeps 1/2 outside, so f is
  continuous on the spectrum.
* ``lemma36_w``: builds w = h a + k b (case i) or
  h^2 a + k^2 b + h k (a r* + b r) (case ii) from an exact partial isometry
  a and a mod-J partial isometry b, where h = t * ramp is the approximate
  unit parameter and k = (1 - h^2)^{1/2}; the report carries the defect of
  w and its deviation from the two asymptotic product formulas.
* ``straighten_family``: extends an exact generating family on a subgraph F
  to an exact family on G by straightening the new edges one by one against
  the previously secured ranges and aligning initial projections with
  partial-isometry intertwiners built fiberwise from singular value
  decompositions.

Irreducibility of F and G is deliberately not required here: the algorithm
never uses it, and the graphs with nonzero exact finite-dimensional families
are precisely those whose fiber-rank equations are solvable (a vertex with
two loops forces every family to vanish, for example), which excludes most
irreducible non-cycles.  Scenario graphs are chosen rank-solvable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .graphs import FiniteGraph

HERMITIAN_TOL = 1e-12
EXACT_TOL = 1e-10
MAX_STRAIGHTEN_DEFECT = 0.35
FAMILY_TOL = 0.05  # largest relation defect straighten_family accepts on the large graph


class LabError(ValueError):
    """Numerical precondition or verification failure in the lab."""


# ---------------------------------------------------------------------------
# Matrix fields
# ---------------------------------------------------------------------------


def _adj(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of every matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def _norm(a: np.ndarray) -> float:
    """Operator norm of a matrix, or the largest over a stack.

    A stack's exact zero matrices, whose norm is 0, are not decomposed: in
    relation residuals they are most of the stack.
    """
    if a.ndim > 2:
        a = a[a.any(axis=(-2, -1))]
        if not len(a):
            return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[..., 0].max())


def _within(a: np.ndarray, tol: float) -> bool:
    """``_norm(a) <= tol``; the Frobenius norm of the whole stack bounds it
    and settles the check when it is at most ``tol``."""
    return math.sqrt(np.vdot(a, a).real) <= tol or _norm(a) <= tol


class MatField:
    """A function on {0..grid_size} with values in m x m complex matrices.

    ``fibers`` is one read-only, C-contiguous ``(grid_size + 1, m, m)``
    array.  The constructor copies its input; every operation acts on the
    whole stack and wraps its freshly computed result without a copy.
    """

    __slots__ = ("grid_size", "dim", "fibers")
    __array_ufunc__ = None  # an array times a field is the field's __rmul__

    def __new__(cls, fibers: Sequence[np.ndarray] | np.ndarray):
        if not len(fibers):
            raise LabError("a field needs at least one fiber")
        try:
            stack = np.array(fibers, dtype=complex)
        except ValueError:
            raise LabError("all fibers must be nonempty square matrices of one dimension") from None
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or not stack.shape[1]:
            raise LabError("all fibers must be nonempty square matrices of one dimension")
        return cls._of(stack)

    @classmethod
    def _of(cls, stack: np.ndarray) -> "MatField":
        """Wrap a fresh complex ``(G + 1, m, m)`` array that nothing else holds."""
        stack.flags.writeable = False
        f = object.__new__(cls)
        object.__setattr__(f, "grid_size", stack.shape[0] - 1)
        object.__setattr__(f, "dim", stack.shape[1])
        object.__setattr__(f, "fibers", stack)
        return f

    def __setattr__(self, name, value):
        raise AttributeError("MatField is immutable")

    @classmethod
    def constant(cls, matrix: np.ndarray, grid_size: int) -> "MatField":
        return cls([matrix] * (grid_size + 1))

    @classmethod
    def zero(cls, grid_size: int, dim: int) -> "MatField":
        return cls(np.zeros((grid_size + 1, dim, dim)))

    def fiber(self, s: int) -> np.ndarray:
        return self.fibers[s]

    def __add__(self, other: "MatField") -> "MatField":
        self._check_compatible(other)
        return MatField._of(self.fibers + other.fibers)

    def __sub__(self, other: "MatField") -> "MatField":
        self._check_compatible(other)
        return MatField._of(self.fibers - other.fibers)

    def __matmul__(self, other: "MatField") -> "MatField":
        self._check_compatible(other)
        return MatField._of(self.fibers @ other.fibers)

    def __mul__(self, scalar: complex) -> "MatField":
        return MatField._of(scalar * self.fibers)

    __rmul__ = __mul__

    @property
    def H(self) -> "MatField":
        """The adjoint field."""
        return MatField._of(np.ascontiguousarray(_adj(self.fibers)))

    def norm(self) -> float:
        return _norm(self.fibers)

    def fiber_norm(self, s: int) -> float:
        return _norm(self.fibers[s])

    def _check_compatible(self, other: "MatField") -> None:
        if self.grid_size != other.grid_size or self.dim != other.dim:
            raise LabError("field shape mismatch")

    def allclose(self, other: "MatField", tol: float = EXACT_TOL) -> bool:
        return _within((self - other).fibers, tol)

    def __repr__(self):
        return f"MatField(grid={self.grid_size}, dim={self.dim})"


def j_residual(x: MatField, ideal_fiber: int | None) -> float:
    """Distance of x from the vanishing-at-the-ideal-fiber ideal (0 if J = B)."""
    if ideal_fiber is None:
        return 0.0
    return x.fiber_norm(ideal_fiber)


def _stack(x: MatField | np.ndarray) -> np.ndarray:
    if isinstance(x, MatField):
        return x.fibers
    a = np.asarray(x, dtype=complex)
    if a.ndim < 2 or not a.size:
        raise LabError(f"expected a nonempty matrix or stack of matrices, got shape {a.shape}")
    return a


def _defect(a: np.ndarray) -> np.ndarray:
    """a a* a - a, whose norm is the partial-isometry defect."""
    return a @ _adj(a) @ a - a


def partial_isometry_defect(x: MatField | np.ndarray) -> float:
    return _norm(_defect(_stack(x)))


def matrix_defects(a: np.ndarray) -> np.ndarray:
    """The defect of each matrix in a stack, from one decomposition."""
    return np.linalg.svd(_defect(a), compute_uv=False)[..., 0]


def ramp_profile(grid_size: int) -> tuple[float, ...]:
    """Piecewise-linear profile: 1 on the first half, sloping to 0 at the end."""
    if grid_size == 0:
        return (1.0,)
    half = grid_size // 2
    out = []
    for s in range(grid_size + 1):
        if s <= half:
            out.append(1.0)
        else:
            out.append((grid_size - s) / (grid_size - half))
    return tuple(out)


def _unit_profiles(grid_size: int, t: float) -> tuple[list[float], list[float]]:
    """The values of h = t * ramp and k = (1 - h^2)^{1/2}, fiber by fiber."""
    if not 0.0 <= t < 1.0:
        raise LabError("the approximate-unit parameter must lie in [0, 1)")
    h = [t * r for r in ramp_profile(grid_size)]
    return h, [float(np.sqrt(1.0 - v**2)) for v in h]


# ---------------------------------------------------------------------------
# Straightening (functional calculus)
# ---------------------------------------------------------------------------


def straighten(x: MatField | np.ndarray):
    """Nearest-partial-isometry map y = x * f(x*x), fiberwise.

    Requires finite entries and ||x x*x - x|| <= MAX_STRAIGHTEN_DEFECT; the
    output satisfies ||y y*y - y|| <= 1e-10 and inherits every one-sided
    projection relation p x = x, p x = 0, x p = x, x p = 0 that x had.

    Two further structural facts hold by construction rather than by a
    testable bound: y lies in the algebra generated by x (it is x times a
    spectral function of x*x), and y - x lies in the ideal generated by the
    defect x x*x - x.  In matrix fibers these are not independently
    assertable as numerical checks, so they are documented, not tested.
    """
    a = _stack(x)
    if not np.isfinite(a).all():
        raise LabError("cannot straighten an input with NaN or infinite entries")
    defect = _defect(a)
    if not _within(defect, MAX_STRAIGHTEN_DEFECT):
        raise LabError(f"defect {_norm(defect):.4g} exceeds the straightening threshold {MAX_STRAIGHTEN_DEFECT}")
    h = _adj(a) @ a
    asym = h - _adj(h)
    if not _within(asym, HERMITIAN_TOL):
        raise LabError(f"x*x is not Hermitian to {HERMITIAN_TOL} (residue {_norm(asym):.2e})")
    evals, q = np.linalg.eigh((h + _adj(h)) / 2.0)
    f = np.where(evals > 0.5, 1.0 / np.sqrt(np.maximum(evals, 0.25)), 0.0)
    y = a @ ((q * f[..., None, :]) @ _adj(q))
    residual = _defect(y)
    if not _within(residual, EXACT_TOL):
        raise LabError(f"straightening failed to converge (residual {_norm(residual):.2e})")
    return MatField._of(y) if isinstance(x, MatField) else y


# ---------------------------------------------------------------------------
# Two-term interpolation (the w construction)
# ---------------------------------------------------------------------------


@dataclass
class DefectReport:
    """Named defect norms of an interpolation experiment at one parameter t.

    ``defects`` holds the asymptotic quantities the construction drives to
    zero; ``j_residuals`` holds exactness-at-the-ideal diagnostics (inputs'
    membership residuals and, where a formula is an algebraic identity in
    this scalar-central model, its near-machine-zero residual).
    """

    t: float
    defects: dict[str, float] = field(default_factory=dict)
    j_residuals: dict[str, float] = field(default_factory=dict)


def lemma36_w(
    a: MatField,
    b: MatField,
    r: MatField | None,
    t: float,
    case: str,
    ideal_fiber: int | None,
) -> tuple[MatField, DefectReport]:
    """Interpolate an exact partial isometry a with a mod-J one b.

    case "i":  requires a*b and a*a - b*b in J; uses r = a*a and returns
               w = h a + k b.
    case "ii": requires a*b, a b* in J and an r with r*r - a*a and
               rr* - b*b in J; returns w = h^2 a + k^2 b + h k (a r* + b r).

    Membership in J is checked numerically at the ideal fiber (<= 1e-10).
    The report carries ||w w* w - w|| and the deviations of w*w and w w*
    from their asymptotic formulas.
    """
    if case not in ("i", "ii"):
        raise LabError("case must be 'i' or 'ii'")
    if not 0.0 <= t < 1.0:
        raise LabError("t must lie in [0, 1)")

    pre: dict[str, float] = {}
    pre["a_defect"] = partial_isometry_defect(a)
    if pre["a_defect"] > EXACT_TOL:
        raise LabError("a must be an exact partial isometry")
    if ideal_fiber is not None:
        pre["b_defect_at_ideal"] = partial_isometry_defect(b.fiber(ideal_fiber))
        if pre["b_defect_at_ideal"] > EXACT_TOL:
            raise LabError("b must be a partial isometry at the ideal fiber")
    # each product below is formed once, with the association of the formulas
    aha, bhb = a.H @ a, b.H @ b
    pre["a*b"] = j_residual(a.H @ b, ideal_fiber)
    if case == "i":
        r = aha
        pre["a*a-b*b"] = j_residual(aha - bhb, ideal_fiber)
    else:
        if r is None:
            raise LabError("case ii needs the intertwining element r")
        pre["ab*"] = j_residual(a @ b.H, ideal_fiber)
        pre["r*r-a*a"] = j_residual((r.H @ r) - aha, ideal_fiber)
        pre["rr*-b*b"] = j_residual((r @ r.H) - bhb, ideal_fiber)
    bad = {k: v for k, v in pre.items() if v > EXACT_TOL}
    if bad:
        raise LabError(f"precondition residuals too large: {bad}")

    # h and k are scalar fields, so a product with one scales each fiber by
    # the profile's value there
    h, k = (np.array(v)[:, None, None] for v in _unit_profiles(a.grid_size, t))
    hh, kk, hk = h * h, k * k, h * k
    if case == "i":
        w = (h * a) + (k * b)
    else:
        w = (hh * a) + (kk * b) + (hk * ((a @ r.H) + (b @ r)))

    wsw = w.H @ w
    wws = w @ w.H
    if case == "i":
        rhs1 = aha
    else:
        rhs1 = (hh * aha) + (kk * bhb) + (hk * (r + r.H))
    rhs2 = (hh * (a @ a.H)) + (kk * (b @ b.H)) + (hk * ((b @ r @ a.H) + (a @ r.H @ b.H)))

    www_minus_w = (w @ wsw) - w
    report = DefectReport(t=t)
    report.defects["www_minus_w"] = www_minus_w.norm()
    report.defects["wsw_vs_formula"] = (wsw - rhs1).norm()
    if case == "i":
        # in this scalar-central model the w w* formula for case i is an
        # algebraic identity, so its residual is a diagnostic, not a defect
        report.j_residuals["wws_identity"] = (wws - rhs2).norm()
    else:
        report.defects["wws_vs_formula"] = (wws - rhs2).norm()
    for ktag, val in pre.items():
        report.j_residuals[f"pre:{ktag}"] = val
    if ideal_fiber is not None:
        report.j_residuals["defect_at_ideal"] = www_minus_w.fiber_norm(ideal_fiber)
    return w, report


# ---------------------------------------------------------------------------
# Generating-family relations
# ---------------------------------------------------------------------------


def _vertex_projections(
    graph: FiniteGraph, infinite_vertices: frozenset[str], fields: Mapping[str, MatField]
) -> tuple[dict[str, MatField], list[np.ndarray]]:
    """Derived vertex projections and their inconsistency residuals.

    A vertex with incoming edges gets e*e of any one of them (they must all
    agree: each other candidate's difference from it is a residual); a
    finite-valence vertex without incoming edges gets the sum of its
    out-ranges.  An infinite-valence vertex without incoming edges has no
    well-defined projection and raises.
    """
    xi: dict[str, MatField] = {}
    residuals: list[np.ndarray] = []
    for v in sorted(graph.vertices):
        candidates = [fields[e[0]].H @ fields[e[0]] for e in graph.in_edges(v) if e[0] in fields]
        if candidates:
            xi[v] = candidates[0]
            residuals.extend((xi[v] - other).fibers for other in candidates[1:])
        elif v not in infinite_vertices:
            out = [fields[e[0]] @ fields[e[0]].H for e in graph.out_edges(v) if e[0] in fields]
            if not out:
                raise LabError(f"vertex {v!r} has no edges carrying fields")
            xi[v] = sum(out[1:], out[0])
        else:
            raise LabError(f"infinite-valence vertex {v!r} needs an incoming edge to define its projection")
    return xi, residuals


def _relation_terms(
    graph: FiniteGraph, infinite_vertices: frozenset[str], fields: Mapping[str, MatField]
) -> tuple[dict[str, MatField], dict[str, np.ndarray]]:
    """The derived vertex projections and the residual terms of each relation.

    The terms of a relation tag are stacked into one ``(terms, G + 1, m, m)``
    array; a tag without terms is left out.  Every term is formed fiber by
    fiber, so the slice ``[:, s]`` holds the terms of the family's fiber s.
    """
    xi, consistency = _vertex_projections(graph, infinite_vertices, fields)
    verts = sorted(graph.vertices)
    terms: dict[str, list[np.ndarray]] = {"o1": [], "o2": [], "o3": consistency, "o4": [], "o5": [], "o6": []}
    for eid, _, _ in graph.edges:
        terms["o1"].append(_defect(fields[eid].fibers))
    for i, u in enumerate(verts):
        for v in verts[i + 1 :]:
            terms["o2"].append(xi[u].fibers @ xi[v].fibers)
    for u in sorted(infinite_vertices):
        out = [fields[e[0]] for e in graph.out_edges(u)]
        for i, f in enumerate(out):
            terms["o4"].append(xi[u].fibers @ f.fibers - f.fibers)
            fh = f.H.fibers
            terms["o5"].extend(fh @ g.fibers for g in out[i + 1 :])
    for u in verts:
        out = graph.out_edges(u)
        if u in infinite_vertices or not out:
            continue
        ranges = [fields[e[0]] @ fields[e[0]].H for e in out]
        terms["o6"].append((xi[u] - sum(ranges[1:], ranges[0])).fibers)
    return xi, {tag: np.stack(ts) for tag, ts in terms.items() if ts}


def _excess(stacks: Iterable[np.ndarray], tol: float) -> float:
    """The largest operator norm in ``stacks`` when it exceeds ``tol``, else 0.

    Stacks within ``tol`` on the Frobenius screen of ``_within`` are not
    decomposed; the largest norm is taken only to word a failure.
    """
    stacks = list(stacks)
    if all(_within(a, tol) for a in stacks):
        return 0.0
    return max(_norm(a) for a in stacks)


def condition_o_residuals(
    graph: FiniteGraph,
    infinite_vertices: frozenset[str] | set[str],
    fields: Mapping[str, MatField],
) -> dict[str, float]:
    """Worst-case residuals of the generating relations, one per relation tag.

    o1: each edge field is a partial isometry; o2: vertex projections are
    mutually orthogonal; o3: e*e equals the terminus projection (the
    consistency of the derived projections); o4: the origin projection fixes
    edges out of infinite-valence vertices; o5: those edges have orthogonal
    ranges; o6: every finite-valence vertex projection is the sum of its
    out-ranges.
    """
    _, terms = _relation_terms(graph, frozenset(infinite_vertices), fields)
    # one decomposition call per relation, on all of its terms at once
    return {tag: _norm(terms[tag]) if tag in terms else 0.0 for tag in ("o1", "o2", "o3", "o4", "o5", "o6")}


# ---------------------------------------------------------------------------
# Family straightening along a graph inclusion
# ---------------------------------------------------------------------------


def _intertwiner_fiber(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """A partial isometry d with d*d = q and dd* = p, for close projections.

    Takes two matrices, or two stacks to intertwine fiber by fiber.  The
    singular value decompositions of the products p @ q come from one call;
    the kept singular vectors are multiplied fiber by fiber.  A fiber rank
    mismatch is the finite-dimensional obstruction and raises.
    """
    shape = p.shape
    p, q = p.reshape(-1, *shape[-2:]), q.reshape(-1, *shape[-2:])
    rp, rq = (np.rint(np.trace(x, axis1=1, axis2=2).real).astype(int) for x in (p, q))
    u, sv, vh = np.linalg.svd(p @ q)
    keep = sv > 0.5
    out = np.zeros_like(u)
    for s in range(len(out)):
        if rp[s] != rq[s]:
            raise LabError(f"rank mismatch: cannot intertwine projections of ranks {rq[s]} -> {rp[s]}")
        if rp[s]:
            if keep[s].sum() != rp[s]:
                raise LabError("projections are too far apart to intertwine reliably")
            out[s] = u[s][:, keep[s]] @ vh[s][keep[s], :]
    return out.reshape(shape)


def _intertwiner(p: MatField, q: MatField) -> MatField:
    return MatField._of(_intertwiner_fiber(p.fibers, q.fibers))


def straighten_family(
    small: FiniteGraph,
    large: FiniteGraph,
    infinite_vertices: frozenset[str] | set[str],
    fields: Mapping[str, MatField],
) -> dict[str, MatField]:
    """Extend an exact family on ``small`` to an exact family on ``large``.

    Preconditions (checked): the infinite-valence set lies in the small
    graph's vertices; finite-valence small vertices have all out-edges in
    the small graph; edges between small vertices belong to the small graph;
    the family restricted to small edges satisfies the generating relations
    exactly (<= 1e-10); each new-edge field equals its compression by the
    blocks the construction preserves; and the family on the large graph
    satisfies the relations up to ``FAMILY_TOL`` with exactness at the
    ideal fiber, the last grid point.

    The output agrees with the input on small edges (the same objects), is
    exact to 1e-10 on the large graph, and keeps every new field within the
    same blocks.
    """
    d = frozenset(infinite_vertices)
    if not small.is_labeled_subgraph_of(large):
        raise LabError("the first graph must be a labeled subgraph of the second")
    if not d <= small.vertices:
        raise LabError("infinite-valence vertices must belong to the small graph")
    # out-edge tuples are in sorted edge order with unique ids: equal as sets
    # exactly when equal as tuples
    for u in small.vertices - d:
        if small.out_edges(u) != large.out_edges(u):
            raise LabError(f"finite-valence vertex {u!r} of the small graph gains out-edges")
    small_edges = set(small.edges)
    for e in large.edges:
        if e[1] in small.vertices and e[2] in small.vertices and e not in small_edges:
            raise LabError(f"edge {e[0]!r} joins small vertices but is not a small edge")
    missing = [e[0] for e in large.edges if e[0] not in fields]
    if missing:
        raise LabError(f"fields missing for edges {missing}")
    if not large.edges:
        raise LabError("the large graph has no edges to carry a family")

    some_field = fields[large.edges[0][0]]
    grid, dim = some_field.grid_size, some_field.dim

    small_ids = {e[0] for e in small.edges}
    new_edges = [e for e in large.edges if e[0] not in small_ids]

    # exactness of the small family, approximate validity of the whole family
    # and its exactness at the ideal fiber, the last one; a small graph with
    # vertices but no edges carries no family, and the projections raise
    xi: dict[str, MatField] = {}
    if small.vertices:
        xi, terms = _relation_terms(small, d, fields)
        worst = _excess(terms.values(), EXACT_TOL)
        if worst:
            raise LabError(f"small-graph family is not exact (worst residual {worst:.2e})")
    _, terms = _relation_terms(large, d, fields)
    worst = _excess(terms.values(), FAMILY_TOL)
    if worst:
        raise LabError(f"family defects {worst:.4g} exceed tol {FAMILY_TOL}")
    worst = _excess((a[:, grid] for a in terms.values()), EXACT_TOL)
    if worst:
        raise LabError(f"family is not exact at the ideal fiber (residual {worst:.2e})")

    # block data of the small family
    zero = MatField.zero(grid, dim)
    p_total = sum((xi[u] for u in small.vertices), zero)
    q_of = {u: sum((fields[e[0]] @ fields[e[0]].H for e in small.out_edges(u)), zero) for u in sorted(d)}

    one = MatField.constant(np.eye(dim, dtype=complex), grid)

    def block_compress(mapping: Mapping[str, MatField], e) -> MatField:
        eid, origin, terminus = e
        x = mapping[eid]
        if origin in d:
            return (xi[origin] - q_of[origin]) @ x @ (one - p_total)
        left = (one - p_total) @ x
        if terminus in small.vertices:
            return left @ xi[terminus]
        return left @ (one - p_total)

    for e in new_edges:
        if not fields[e[0]].allclose(block_compress(fields, e), HERMITIAN_TOL * 100):
            raise LabError(f"new edge {e[0]!r} does not satisfy its block compression exactly")

    # straighten each block's new edges within its top projection less the
    # ranges secured so far: the edges away from infinite-valence origins
    # under the identity, then the edges out of each u in d under xi[u]
    # u's secured range starts at q_of[u], its small out-ranges, which new edges out of u must avoid
    blocks = [(one, zero, [e for e in new_edges if e[1] not in d])]
    blocks += [(xi[u], q_of[u], [e for e in new_edges if e[1] == u]) for u in sorted(d)]
    b_fields: dict[str, MatField] = {}
    for top, secured, edges in blocks:
        for e in edges:
            b = straighten((top - secured) @ fields[e[0]])
            b_fields[e[0]] = b
            secured = secured + (b @ b.H)

    # projections of the new vertices from the secured ranges
    b_vertex = {
        v: sum((b_fields[e[0]] @ b_fields[e[0]].H for e in large.out_edges(v)), zero)
        for v in sorted(large.vertices - small.vertices)
    }

    # align initial projections with intertwiners
    out: dict[str, MatField] = {e[0]: fields[e[0]] for e in small.edges}
    for e in new_edges:
        target = xi[e[2]] if e[2] in small.vertices else b_vertex[e[2]]
        b = b_fields[e[0]]
        dmat = _intertwiner(b.H @ b, target)
        out[e[0]] = b @ dmat

    _, terms = _relation_terms(large, d, out)
    worst = _excess(terms.values(), EXACT_TOL)
    if worst:
        raise LabError(f"straightened family is not exact (worst residual {worst:.2e})")
    for e in new_edges:
        if not out[e[0]].allclose(block_compress(out, e), 1e-9):
            raise LabError(f"straightened edge {e[0]!r} left its block")
    for e in new_edges:
        drift = (out[e[0]] - fields[e[0]]).fibers[grid]
        if not _within(drift, EXACT_TOL):
            raise LabError(f"straightening moved edge {e[0]!r} at the ideal fiber (by {_norm(drift):.2e})")
    return out
