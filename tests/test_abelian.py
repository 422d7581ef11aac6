"""Exact linear algebra and group arithmetic tests.

Derived expected values carry their oracle inline: hand row reduction for
the small Smith forms, determinants for kernel ranks, exhaustive element
checks for the tiny homomorphism cases.
"""

import math
import random
from fractions import Fraction
from collections import Counter
from heapq import heapify, heappop, heappush
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphck import abelian
from graphck.abelian import (
    ColumnLattice,
    FgAbelianGroup,
    GroupHom,
    IntMatrix,
    cokernel,
    colimit_chain_detailed,
    format_group,
    hom_compose,
    kernel_basis,
    parse_group_expr,
    smith_normal_form,
)
from graphck.graphs import FiniteGraph
from graphck.ktheory import chain_ktheory_report, relation_matrix
from graphck.synthesis import (
    VERIFICATION_WINDOW,
    SynthesisRequest,
    build_case_i,
    build_case_ii,
    build_case_iii,
    synthesize,
)


def M(rows):
    return IntMatrix.from_rows(rows)


# ---------------------------------------------------------------------------
# Matrix-vector products
# ---------------------------------------------------------------------------


def _sparse_ints(rng, n, density):
    return [rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(n)]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 9),
    st.integers(0, 9),
    st.sampled_from([0.0, 0.15, 0.5, 1.0]),
    st.sampled_from([0.0, 0.15, 0.5, 1.0]),
    st.integers(0, 2**32 - 1),
)
def test_mat_vec_matches_plain_loops(rows, cols, mat_density, vec_density, seed):
    # oracle: out[i] = sum over j of m[i][j] * vec[j], summed in plain loops
    rng = random.Random(seed)
    m = IntMatrix(rows, cols, _sparse_ints(rng, rows * cols, mat_density))
    vec = _sparse_ints(rng, cols, vec_density)
    expected = []
    for i in range(rows):
        acc = 0
        for j in range(cols):
            acc += m.entry(i, j) * vec[j]
        expected.append(acc)
    assert m.mat_vec(vec) == tuple(expected)
    assert m.mat_vec(tuple(vec)) == tuple(expected)
    with pytest.raises(ValueError):
        m.mat_vec(vec + [1])
    if cols:
        with pytest.raises(ValueError):
            m.mat_vec(vec[:-1])


def test_mat_vec_empty_shapes():
    assert IntMatrix(0, 4, []).mat_vec((1, 0, 2, 0)) == ()
    assert IntMatrix(3, 0, []).mat_vec(()) == (0, 0, 0)
    assert IntMatrix(0, 0, []).mat_vec(()) == ()
    for m, bad in ((IntMatrix(0, 4, []), (1, 2)), (IntMatrix(3, 0, []), (1,))):
        with pytest.raises(ValueError):
            m.mat_vec(bad)


# ---------------------------------------------------------------------------
# The sparse-row representation against plain lists
# ---------------------------------------------------------------------------


def _plain_matmul(a, b, inner, width):
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(width)] for i in range(len(a))]


def _plain_det(a):
    # Gaussian elimination over the rationals
    a = [[Fraction(x) for x in r] for r in a]
    det = Fraction(1)
    for k in range(len(a)):
        p = next((i for i in range(k, len(a)) if a[i][k]), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            q = a[i][k] / a[k][k]
            a[i] = [x - q * y for x, y in zip(a[i], a[k])]
    return int(det)


def _sparse_columns_with_zeros(rng, rows, cols, density):
    # every column dict also stores some explicit zeros, which must be dropped
    columns = []
    for _ in range(cols):
        col = {i: x for i, x in enumerate(_sparse_ints(rng, rows, density)) if x or rng.random() < 0.4}
        columns.append(col)
    return columns


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 9),
    st.integers(0, 9),
    st.integers(0, 9),
    st.sampled_from([0.0, 0.2, 0.6, 1.0]),
    st.integers(0, 2**32 - 1),
)
def test_int_matrix_operations_match_plain_lists(rows, cols, other, density, seed):
    rng = random.Random(seed)
    a = [_sparse_ints(rng, cols, density) for _ in range(rows)]  # explicit zeros throughout
    m = IntMatrix(rows, cols, [x for r in a for x in r])
    columns = _sparse_columns_with_zeros(rng, rows, cols, density)
    c = IntMatrix.from_sparse_columns(rows, columns)
    b = [_sparse_ints(rng, other, density) for _ in range(cols)]
    mb = IntMatrix(cols, other, [x for r in b for x in r])
    under = [_sparse_ints(rng, cols, density) for _ in range(other)]
    side = [_sparse_ints(rng, other, density) for _ in range(rows)]
    vec = _sparse_ints(rng, cols, density)
    diag = [[a[0][i] if i == j else 0 for j in range(cols)] for i in range(cols)] if a else []
    built = [
        m,
        c,
        m.transpose(),
        m.vstack(IntMatrix.from_rows(under, cols=cols)),
        m.hstack(IntMatrix(rows, other, [x for r in side for x in r])),
        m @ mb,
        -m,
        IntMatrix.identity(rows),
        IntMatrix(rows, cols, [0] * (rows * cols)),
        IntMatrix.from_rows(diag),
    ]
    expected = [
        a,
        [[columns[j].get(i, 0) for j in range(cols)] for i in range(rows)],
        [[a[i][j] for i in range(rows)] for j in range(cols)],
        a + under,
        [r + t for r, t in zip(a, side)],
        _plain_matmul(a, b, cols, other),
        [[-x for x in r] for r in a],
        [[int(i == j) for j in range(rows)] for i in range(rows)],
        [[0] * cols for _ in range(rows)],
        diag,
    ]
    widths = [cols, cols, rows, cols, cols + other, other, cols, rows, cols, cols if rows else 0]
    for got, want, width in zip(built, expected, widths):
        assert (got.rows, got.cols) == (len(want), width)
        assert got.to_lists() == want
        assert got.entries == tuple(x for r in want for x in r)
        assert list(got.iter_rows()) == [tuple(r) for r in want]
        assert got.columns() == [tuple(r[j] for r in want) for j in range(width)]
        assert got.sparse_columns() == tuple({i: x for i, x in enumerate(col) if x} for col in got.columns())
        assert all(got.entry(i, j) == want[i][j] for i in range(got.rows) for j in range(got.cols))
        assert all(all(r.values()) for r in got.sparse_rows)  # no stored zero
        rebuilt = IntMatrix(got.rows, got.cols, got.entries)
        assert rebuilt == got and hash(rebuilt) == hash(got)
    assert m.mat_vec(vec) == tuple(sum(x * y for x, y in zip(r, vec)) for r in a)
    assert (c == m) == (expected[1] == a)
    assert m != IntMatrix(rows + 1, cols, [0] * ((rows + 1) * cols))
    if rows == cols:
        assert m.determinant() == _plain_det(a)
        assert c.determinant() == _plain_det(expected[1])
    smith_normal_form(c).verify(c)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def test_snf_zero_matrix():
    s = smith_normal_form(M([[0]]))
    assert s.diagonal == (0,)
    s.verify(M([[0]]))


def test_snf_identity():
    m = IntMatrix.identity(2)
    s = smith_normal_form(m)
    assert s.diagonal == (1, 1)
    s.verify(m)


def test_snf_two_by_two():
    # oracle: d1 = gcd of all entries = 2, d1*d2 = |det| = |16 - 24| = 8
    m = M([[2, 4], [6, 8]])
    s = smith_normal_form(m)
    assert s.diagonal == (2, 4)
    s.verify(m)


def test_snf_empty_shapes():
    for m in (IntMatrix.from_rows([], cols=3), IntMatrix(3, 0, []), IntMatrix(0, 0, [])):
        s = smith_normal_form(m)
        s.verify(m)


@pytest.mark.parametrize("n", range(6))
def test_snf_with_no_row_or_column_runs_no_presolve(monkeypatch, n):
    # such a matrix is its own Smith form: every transform is the identity
    def no_presolve(m):
        raise AssertionError("the presolve ran on a matrix with no row or no column")

    monkeypatch.setattr(abelian, "_presolve", no_presolve)
    for m in (IntMatrix(n, 0, []), IntMatrix(0, n, [])):
        s = smith_normal_form(m)
        assert (s.diagonal, s.rank) == ((), 0)
        s.verify(m)
        assert [s.u_row(i) for i in range(m.rows)] == [{i: 1} for i in range(m.rows)]
        assert [s.v_col(j) for j in range(m.cols)] == [{j: 1} for j in range(m.cols)]
        assert [s.vinv_row(j) for j in range(m.cols)] == [{j: 1} for j in range(m.cols)]
        assert s.kernel() == [{j: 1} for j in range(m.cols)]


@pytest.mark.parametrize("rows,cols", [(0, 0), (0, 3), (3, 0), (1, 1), (1, 5), (5, 1), (4, 7), (9, 9)])
def test_transpose_matches_plain_loops(rows, cols):
    rng = random.Random(rows * 10 + cols)
    m = IntMatrix(rows, cols, [rng.randint(-5, 5) for _ in range(rows * cols)])
    t = m.transpose()
    assert (t.rows, t.cols) == (cols, rows)
    assert t.to_lists() == [[m.entry(i, j) for i in range(rows)] for j in range(cols)]
    assert t.transpose() == m


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 8),
    st.integers(0, 8),
    st.integers(0, 2**32 - 1),
)
def test_snf_random_properties(rows, cols, seed):
    rng = random.Random(seed)
    m = IntMatrix(rows, cols, [rng.randint(-9, 9) for _ in range(rows * cols)])
    s = smith_normal_form(m)
    s.verify(m)  # U M V = D, unimodularity, nonnegative divisibility chain


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_kernel_rank_complements_diagonal_rank(rows, cols, seed):
    rng = random.Random(seed)
    m = IntMatrix(rows, cols, [rng.randint(-9, 9) for _ in range(rows * cols)])
    s = smith_normal_form(m)
    assert len(kernel_basis(m)) + s.rank == cols


# ---------------------------------------------------------------------------
# Smith normal form: unit-pivot presolve and the dense core
# ---------------------------------------------------------------------------


def _laplace_det(a):
    if not a:
        return 1
    minors = ([r[:j] + r[j + 1 :] for r in a[1:]] for j in range(len(a[0])))
    return sum((-1) ** j * x * _laplace_det(sub) for j, (x, sub) in enumerate(zip(a[0], minors)) if x)


def _determinantal_diagonal(m):
    """Oracle: d_k = D_k / D_(k-1), with D_k the gcd of all k x k minors."""
    rows = m.to_lists()
    diag, prev = [], 1
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for ri in combinations(range(m.rows), k):
            for ci in combinations(range(m.cols), k):
                g = math.gcd(g, _laplace_det([[rows[i][j] for j in ci] for i in ri]))
        if g == 0:
            break
        diag.append(g // prev)
        prev = g
    return tuple(diag) + (0,) * (min(m.rows, m.cols) - len(diag))


def _random_graph(rng, n, exempt):
    verts = [f"v{i:02d}" for i in range(n)]
    edges = [
        (f"e{i}_{k}", v, rng.choice(verts))
        for i, v in enumerate(verts)
        for k in range(rng.choice((0, 1, 1, 2, 2, 3, 5)))
    ]
    return FiniteGraph(verts, edges, [v for v in verts if exempt and rng.random() < 0.3])


def test_determinantal_oracle_examples():
    # hand values: diag(2, 3) ~ diag(1, 6); [[2, 4], [6, 8]] has D_1 = 2, D_2 = 8
    assert _determinantal_diagonal(IntMatrix.from_rows([[2, 0], [0, 3]])) == (1, 6)
    assert _determinantal_diagonal(M([[2, 4], [6, 8]])) == (2, 4)
    assert _determinantal_diagonal(M([[1, 2, 3], [2, 4, 6]])) == (1, 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.booleans(), st.integers(0, 2**32 - 1))
def test_snf_relation_matrices_of_random_graphs(n, exempt, seed):
    m = relation_matrix(_random_graph(random.Random(seed), n, exempt))
    smith_normal_form(m).verify(m)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.booleans(), st.integers(0, 2**32 - 1))
def test_snf_agrees_with_determinantal_divisors(rows, cols, sparse, seed):
    rng = random.Random(seed)
    pool = (0, 0, 0, 1, -1, 1, 2, -2, 3, 6) if sparse else range(-9, 10)
    m = IntMatrix(rows, cols, [rng.choice(pool) for _ in range(rows * cols)])
    s = smith_normal_form(m)
    s.verify(m)
    assert s.diagonal == _determinantal_diagonal(m)


@pytest.mark.parametrize(
    "free,torsion,factors",
    [(0, (2,), (2,)), (1, (3, 9), (3, 9)), (2, (4, 6), (2, 12)), (0, (2, 2, 5), (2, 10))],
)
def test_snf_case_i_torsion_bundles_leave_a_core(free, torsion, factors):
    # the presolve only ever puts 1 on the diagonal, so the torsion factors
    # come from the core, after unit pivots elsewhere in the same matrix
    m = relation_matrix(build_case_i(free, torsion))
    assert any(abs(x) == 1 for x in m.entries)
    s = smith_normal_form(m)
    s.verify(m)
    assert tuple(x for x in s.diagonal if x > 1) == factors
    assert s.diagonal.count(0) == free


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_snf_unit_block_stacked_on_dense_block(k, d, seed):
    # k rows with a signed unit in their own column and arbitrary entries in
    # the d dense columns, over a d x d block of even entries in [-9, 9]: the
    # units are presolved and the even block is left as the core
    rng = random.Random(seed)
    rows = [
        [rng.choice((1, -1)) if j == i else 0 for j in range(k)] + [rng.randint(-9, 9) for _ in range(d)]
        for i in range(k)
    ]
    rows += [[0] * k + [2 * rng.randint(-4, 4) for _ in range(d)] for _ in range(d)]
    perm = list(range(k + d))
    rng.shuffle(rows)
    rng.shuffle(perm)
    m = M([[r[j] for j in perm] for r in rows])
    s = smith_normal_form(m)
    s.verify(m)
    assert s.diagonal[:k] == (1,) * k
    assert all(x % 2 == 0 for x in s.diagonal[k:])
    if k + d <= 6:
        assert s.diagonal == _determinantal_diagonal(m)


# ---------------------------------------------------------------------------
# Smith transforms read on demand
# ---------------------------------------------------------------------------

MATRIX_KINDS = st.sampled_from(["sparse", "dense", "even"])


def _random_matrix(rng, rows, cols, kind):
    # "even" matrices have no unit entry, so all of their nonzero part is a
    # core with non-unit diagonal entries; "sparse" ones mix units and a core
    pool = {"sparse": (0, 0, 0, 1, -1, 1, 2, -2, 3, 6), "dense": range(-9, 10), "even": range(-8, 9, 2)}
    return IntMatrix(rows, cols, [rng.choice(pool[kind]) for _ in range(rows * cols)])


def _dense(vec, n):
    return tuple(vec.get(k, 0) for k in range(n))


def _dot(sparse, vec):
    return sum(x * vec[k] for k, x in sparse.items())


def _dense_v_classes(g, vectors):
    """Oracle: the canonical coordinates of each ambient vector x, read from
    the dense transform as (x @ V) at the positions whose diagonal entry is
    not 1, each torsion coordinate reduced modulo its diagonal entry."""
    v = g.snf.v.to_lists()
    diag = list(g.snf.diagonal) + [0] * (g.ngens - len(g.snf.diagonal))
    at = [j for j, d in enumerate(diag) if d != 1]
    out = []
    for x in vectors:
        z = {j: sum(xi * v[i][j] for i, xi in enumerate(x) if xi) for j in at}
        out.append(tuple(z[j] % diag[j] if diag[j] else z[j] for j in at))
    return out


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 9), st.integers(0, 9), MATRIX_KINDS, st.integers(0, 2**32 - 1))
def test_transform_vectors_read_in_any_order_match_the_dense_transforms(rows, cols, kind, seed):
    rng = random.Random(seed)
    m = _random_matrix(rng, rows, cols, kind)
    s = smith_normal_form(m)
    readers = {"u": s.u_row, "v": s.v_col, "vinv": s.vinv_row}
    keys = [("u", i) for i in range(rows)] + [(t, j) for t in ("v", "vinv") for j in range(cols)]
    rng.shuffle(keys)
    read = {(t, k): readers[t](k) for t, k in keys}
    for (t, k), vec in read.items():
        assert all(vec.values())  # sparse: no stored zeros
        assert readers[t](k) == vec  # replayed again on each read, kept nowhere
    # the dense matrices are built after every vector was read
    u_rows, v_cols, vinv_rows = s.u.to_lists(), s.v.columns(), s.v_inv.to_lists()
    for i in range(rows):
        assert list(_dense(read["u", i], rows)) == u_rows[i]
    for j in range(cols):
        assert _dense(read["v", j], cols) == v_cols[j]
        assert list(_dense(read["vinv", j], cols)) == vinv_rows[j]
    s.verify(m)


def test_each_v_column_read_sparse_or_dense_is_one_replay(monkeypatch):
    # the Smith form keeps no vector: every sparse and every dense read of a
    # V column replays it once, and both agree with the dense V
    m = _random_matrix(random.Random(5), 7, 7, "sparse")
    s = smith_normal_form(m)
    replays = []
    replay = abelian._replay
    monkeypatch.setattr(abelian, "_replay", lambda *args: replays.append(args) or replay(*args))
    v_cols = [(s.v_col(j), s.v_col_dense(j), s.v_col(j), s.v_col_dense(j)) for j in range(m.cols)]
    assert len(replays) == 4 * m.cols
    for (sparse, dense, sparse_again, dense_again), col in zip(v_cols, s.v.columns()):
        assert _dense(sparse, m.cols) == tuple(dense) == col
        assert sparse_again == sparse and dense_again == dense
    s.verify(m)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 7), st.integers(0, 7), MATRIX_KINDS, st.integers(0, 2**32 - 1))
def test_generator_classes_are_the_classes_of_the_unit_vectors(rows, cols, kind, seed):
    # class_of sums the generator classes, so both are checked against the
    # dense-transform oracle rather than against each other
    rng = random.Random(seed)
    g = cokernel(_random_matrix(rng, rows, cols, kind))
    units = [[int(k == i) for k in range(cols)] for i in range(cols)]
    vecs = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(4)]
    classes = g.generator_classes()
    assert classes == _dense_v_classes(g, units)
    assert [g.class_of(x) for x in vecs] == _dense_v_classes(g, vecs)
    assert g.generator_classes() is classes  # built once, then shared


@pytest.mark.parametrize("k0,k1", [("Z^40 + Z/2 + Z/6", "Z^41"), ("Z^41 + Z/4", "Z^40")])
def test_wide_layers_with_torsion_read_their_classes_as_the_dense_transform_does(k0, k1):
    # every layer the verification reads has many free coordinates beside
    # torsion ones; each inclusion column is the class of the image of a
    # section, and the colimit class of a vertex is the reduced group's class
    # of its settled-layer class
    res = synthesize(SynthesisRequest.parse(k0, k1, depth=4))
    assert res.verification.passed
    build = build_case_ii if res.case_tag == "ii" else build_case_iii
    p = res.parameters
    chain = build(p["l"], p["p"], tuple(p["torsion"]), p["depth"] + VERIFICATION_WINDOW)
    rep = chain_ktheory_report(chain, window=VERIFICATION_WINDOW)
    kts = rep.layer_results
    assert all(kt.k0.free_rank >= 40 and kt.k0.invariant_factors for kt in kts)
    for small, large, hom in zip(kts, kts[1:], rep.k0_homs):
        n, index = small.k0.ncoords, large.graph.vertex_index
        sections = [small.k0.section(j) for j in range(n)]
        assert _dense_v_classes(small.k0, sections) == [tuple(int(i == j) for i in range(n)) for j in range(n)]
        images = []
        for x in sections:
            y = [0] * len(index)
            for v, c in zip(small.vertex_order, x):
                y[index[v]] = c
            images.append(y)
        assert hom.matrix.columns() == _dense_v_classes(large.k0, images)
    top = kts[rep.settled_index - rep.first]
    n = len(top.vertex_order)
    layer = _dense_v_classes(top.k0, [[int(i == k) for i in range(n)] for k in range(n)])
    assert list(rep.k0_class_map) == list(top.vertex_order)
    assert list(rep.k0_class_map.values()) == _dense_v_classes(rep.k0, layer)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 7), st.integers(0, 7), MATRIX_KINDS, st.integers(0, 2**32 - 1))
def test_sparse_lattice_queries_match_the_dense_transforms(rows, cols, kind, seed):
    # oracle: coordinates from the whole products vec @ V and U @ vec
    rng = random.Random(seed)
    m = _random_matrix(rng, rows, cols, kind)
    g, lat = cokernel(m), ColumnLattice(m)

    def fits(z, diag):
        return all((x % diag[i] == 0) if i < len(diag) and diag[i] else x == 0 for i, x in enumerate(z))

    for vec in [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(4)] + [
        m.transpose().mat_vec([rng.randint(-3, 3) for _ in range(rows)]) for _ in range(2)
    ]:
        s = g.snf
        z = s.v.transpose().mat_vec(vec)
        torsion = [j for j, d in enumerate(s.diagonal) if d >= 2]
        free = [j for j in range(cols) if j >= len(s.diagonal) or s.diagonal[j] == 0]
        assert g.class_of(vec) == tuple([z[j] % s.diagonal[j] for j in torsion] + [z[j] for j in free])
        assert g.lattice_contains(vec) == fits(z, s.diagonal)
    for vec in [[rng.randint(-3, 3) for _ in range(rows)] for _ in range(4)] + [
        m.mat_vec([rng.randint(-3, 3) for _ in range(cols)]) for _ in range(2)
    ]:
        inside = fits(lat.snf.u.mat_vec(vec), lat.snf.diagonal)
        assert lat.contains(vec) == inside
        coeffs = lat.solve(vec)
        assert (coeffs is not None) == inside
        if inside:
            assert m.mat_vec(coeffs) == tuple(vec)
    with pytest.raises(ValueError):
        lat.contains([0] * (rows + 1))


# ---------------------------------------------------------------------------
# Core transforms replayed from the operation log
# ---------------------------------------------------------------------------


def _nearest_quotient(x, d):
    q = x // d
    if 2 * abs(x - q * d) > abs(d):
        q += 1
    return q


def _eager_dense_smith(a):
    """Reference core reduction: the same pivoting as ``abelian._dense_smith``,
    but keeping dense U, V and V^-1 current through every operation.
    Returns them, with ``a`` reduced in place to its diagonal form."""
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    u = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    v = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    vinv = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def row_axpy(i, j, q):
        for k in range(ncols):
            a[i][k] -= q * a[j][k]
        for k in range(nrows):
            u[i][k] -= q * u[j][k]

    def col_axpy(i, j, q):
        for row in a:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]
        for k in range(ncols):
            vinv[j][k] += q * vinv[i][k]

    def find_pivot(t):
        best, best_val = None, 0
        for i in range(t, nrows):
            for j in range(t, ncols):
                x = abs(a[i][j])
                if x and (best is None or x < best_val):
                    best, best_val = (i, j), x
                    if x == 1:
                        return best
        return best

    t = 0
    while t < min(nrows, ncols):
        piv = find_pivot(t)
        if piv is None:
            break
        i, j = piv
        while True:
            if j != t:
                swap_cols(j, t)
                j = t
            # column t first, swapping in its smallest remainder each round
            while True:
                if i != t:
                    swap_rows(i, t)
                    i = t
                d = a[t][t]
                for r in range(t + 1, nrows):
                    if a[r][t]:
                        q = _nearest_quotient(a[r][t], d)
                        if q:
                            row_axpy(r, t, q)
                left = [r for r in range(t + 1, nrows) if a[r][t]]
                if not left:
                    break
                i = min(left, key=lambda r: abs(a[r][t]))
            # then one round on row t
            for k in range(t + 1, ncols):
                if a[t][k]:
                    q = _nearest_quotient(a[t][k], d)
                    if q:
                        col_axpy(k, t, q)
            left = [k for k in range(t + 1, ncols) if a[t][k]]
            if left:
                j = min(left, key=lambda k: abs(a[t][k]))
                continue
            if d in (1, -1):
                break
            culprit = next(
                (r for r in range(t + 1, nrows) if any(a[r][k] % d for k in range(t + 1, ncols))), None
            )
            if culprit is None:
                break
            for k in range(ncols):
                a[t][k] += a[culprit][k]
            for k in range(nrows):
                u[t][k] += u[culprit][k]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return u, v, vinv


CORE_KINDS = st.sampled_from(["dense", "even", "tall"])


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 9), st.integers(1, 9), CORE_KINDS, st.integers(0, 2**32 - 1))
# a 40x40 core of 10- to 20-bit entries, which no draw reaches: its column
# passes run many rounds, two row passes leave a remainder that starts
# another column pass, and one pivot takes a divisibility fold
@example(rows=40, cols=40, kind="large", seed=37)
def test_replayed_core_vectors_match_the_eager_reduction(rows, cols, kind, seed):
    # no entry is 0 or +/-1, so the presolve leaves the whole matrix as the
    # core and every global transform vector is a core vector
    rng = random.Random(seed)
    if kind == "tall":
        rows, cols = 5 * rows + 10, 1 + cols % 2
    pool = {
        "dense": [x for x in range(-9, 10) if abs(x) > 1],
        "even": [x for x in range(-8, 9, 2) if x],
        "tall": [x for x in range(-300, 301) if abs(x) > 1],
        "large": range(2**9, 2**20),
    }[kind]
    m = IntMatrix(rows, cols, [rng.choice(pool) for _ in range(rows * cols)])
    a = m.to_lists()
    eu, ev, evinv = _eager_dense_smith(a)
    eager = {"u": eu, "v": [list(c) for c in zip(*ev)], "vinv": evinv}
    s = smith_normal_form(m)
    readers = {"u": s.u_row, "v": s.v_col, "vinv": s.vinv_row}
    keys = [("u", i) for i in range(rows)] + [(t, j) for t in ("v", "vinv") for j in range(cols)]
    rng.shuffle(keys)
    for t, k in keys:
        n = rows if t == "u" else cols
        assert _dense(readers[t](k), n) == tuple(eager[t][k])
    assert s.diagonal == tuple(a[t][t] for t in range(min(rows, cols)))
    inside = m.mat_vec([rng.randint(-3, 3) for _ in range(cols)])
    for vec in ([rng.randint(-5, 5) for _ in range(rows)], inside):
        assert s.u_mul(vec) == [sum(x * y for x, y in zip(r, vec)) for r in eu]
    s.verify(m)


def _full_sweep_dense_smith(a):
    """Reference core reduction: the pivoting and logs of
    ``abelian._dense_smith``, with every row operation run over every column
    and every column operation and column swap over every row, cleared lines
    included."""
    nrows, ncols = len(a), len(a[0]) if a else 0
    rlog, clog = [], []

    def row_axpy(i, j, q):
        for k in range(ncols):
            if a[j][k]:
                a[i][k] -= q * a[j][k]
        rlog.append((i, j, q))

    def col_axpy(i, j, q):
        for row in a:
            if row[j]:
                row[i] -= q * row[j]
        clog.append((i, j, q))

    def find_pivot(t):
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
                    if abs(a[i][j]) == 1:
                        return best
        return best

    t = 0
    while t < min(nrows, ncols):
        piv = find_pivot(t)
        if piv is None:
            break
        i, j = piv
        while True:
            if j != t:
                for row in a:
                    row[j], row[t] = row[t], row[j]
                clog.append((j, t, 0))
                j = t
            # column t first, swapping in its smallest remainder each round
            while True:
                if i != t:
                    a[i], a[t] = a[t], a[i]
                    rlog.append((i, t, 0))
                    i = t
                d = a[t][t]
                for r in range(t + 1, nrows):
                    if a[r][t]:
                        q = _nearest_quotient(a[r][t], d)
                        if q:
                            row_axpy(r, t, q)
                left = [r for r in range(t + 1, nrows) if a[r][t]]
                if not left:
                    break
                i = min(left, key=lambda r: abs(a[r][t]))
            # then one round on row t
            for k in range(t + 1, ncols):
                if a[t][k]:
                    q = _nearest_quotient(a[t][k], d)
                    if q:
                        col_axpy(k, t, q)
            left = [k for k in range(t + 1, ncols) if a[t][k]]
            if left:
                j = min(left, key=lambda k: abs(a[t][k]))
                continue
            if d in (1, -1):
                break
            culprit = next(
                (r for r in range(t + 1, nrows) if any(a[r][k] % d for k in range(t + 1, ncols))), None
            )
            if culprit is None:
                break
            row_axpy(t, culprit, -1)
        if a[t][t] < 0:
            row_axpy(t, t, 2)
        t += 1
    return rlog, clog


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["square", "tall", "wide"]),
    st.sampled_from(["mixed", "unit-free", "even"]),
    st.integers(1, 9),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_dense_core_logs_match_the_full_sweep_reduction(shape, pool, n, zero_column, seed):
    rng = random.Random(seed)
    rows, cols = {"square": (n, n), "tall": (3 * n + 2, n), "wide": (n, 3 * n + 2)}[shape]
    values = {
        "mixed": range(-9, 10),
        "unit-free": [x for x in range(-40, 41) if abs(x) != 1],
        "even": range(-12, 13, 2),
    }[pool]
    a = [[rng.choice(values) for _ in range(cols)] for _ in range(rows)]
    if zero_column:
        j = rng.randrange(cols)
        for r in a:
            r[j] = 0
    b = [list(r) for r in a]
    assert abelian._dense_smith(a) == _full_sweep_dense_smith(b)
    assert a == b


def _axpy(dst, src, q):
    """dst -= q * src on sparse vectors (index -> nonzero int)."""
    for k, y in src.items():
        z = dst.get(k, 0) - q * y
        if z:
            dst[k] = z
        else:
            del dst[k]


def _full_rescan_presolve(m):
    """Reference presolve: each step scans every row left for the shortest
    one holding a unit (ties to the lowest row) and, in it, the unit whose
    column has the fewest nonzeros (ties to the lowest column), then clears
    that entry's column with row operations and its row with column
    operations, applying each to sparse U rows, V columns and V^-1 rows as
    it goes.  Returns the pivots as (row, column, unit), the rows left and
    the three transforms."""
    rows = {i: {j: x for j, x in enumerate(r) if x} for i, r in enumerate(m.to_lists())}
    u = [{i: 1} for i in range(m.rows)]
    v = [{j: 1} for j in range(m.cols)]
    vinv = [{j: 1} for j in range(m.cols)]
    pivots = []
    while True:
        with_units = [(len(r), i) for i, r in rows.items() if any(abs(x) == 1 for x in r.values())]
        if not with_units:
            return pivots, rows, u, v, vinv
        _, p = min(with_units)
        colcount = Counter(j for r in rows.values() for j in r)
        _, c = min((colcount[j], j) for j, x in rows[p].items() if abs(x) == 1)
        rp = rows.pop(p)
        unit = rp.pop(c)
        pivots.append((p, c, unit))
        for i, r in rows.items():
            if c in r:
                q = r.pop(c) * unit
                for j, y in rp.items():
                    z = r.get(j, 0) - q * y
                    if z:
                        r[j] = z
                    else:
                        r.pop(j, None)
                _axpy(u[i], u[p], q)
        for j, y in rp.items():
            _axpy(v[j], v[c], y * unit)
            _axpy(vinv[c], vinv[j], -y * unit)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 14),
    st.integers(0, 14),
    st.sampled_from([0.1, 0.25, 0.5]),
    st.sampled_from([(1, -1), (1, -1, 1, -1, 2, -3)]),
    st.integers(0, 2**32 - 1),
)
def test_presolve_pivot_order_matches_a_full_rescan(rows, cols, density, pool, seed):
    rng = random.Random(seed)
    m = IntMatrix(rows, cols, [rng.choice(pool) if rng.random() < density else 0 for _ in range(rows * cols)])
    left, _, pivots, _, _ = abelian._presolve(m)
    ref_pivots, ref_left, _, _, _ = _full_rescan_presolve(m)
    assert pivots == ref_pivots
    assert {i: r for i, r in enumerate(left) if r is not None} == ref_left


@pytest.mark.parametrize("n", [2, 3, 10, 57, 200])
def test_presolve_eliminates_an_arrow_matrix_without_fill(n):
    # unit diagonal, dense first row and column: pivoting the dense row first
    # would fill the whole matrix, while each short row costs one row and one
    # column operation
    rng = random.Random(n)
    pool = (1, -1, 2, -3, 5)
    rows = [{j: rng.choice(pool) for j in range(n)}]
    rows += [{0: rng.choice(pool), i: 1} for i in range(1, n)]
    m = IntMatrix._of(n, n, tuple(rows))
    left, _, pivots, rlog, clog = abelian._presolve(m)
    negations = sum(1 for i, j, _ in rlog if i == j)
    assert len(rlog) - negations + len(clog) == 2 * (n - 1)
    assert sum(1 for r in left if r) <= 1
    assert negations == sum(1 for _, _, s in pivots if s < 0)
    if n <= 10:
        smith_normal_form(m).verify(m)


def _fold(coeffs, vectors):
    """sum of coeffs[l] * vectors[l] on sparse vectors."""
    acc = {}
    for q, vec in zip(coeffs, vectors):
        if q:
            _axpy(acc, vec, -q)
    return acc


def _eager_smith_vectors(m):
    """Reference transforms in output order: the eager presolve, the eager
    dense reduction of the core it leaves, and each core vector folded from
    the presolved vectors of the core rows or columns."""
    pivots, left, u, v, vinv = _full_rescan_presolve(m)
    core_rows = sorted(i for i, r in left.items() if r)
    core_cols = sorted({j for r in left.values() for j in r})
    zero_rows = sorted(i for i, r in left.items() if not r)
    zero_cols = sorted(set(range(m.cols)) - {c for _, c, _ in pivots} - set(core_cols))
    eu, ev, evinv = _eager_dense_smith([[left[i].get(j, 0) for j in core_cols] for i in core_rows])
    ev_cols = [list(c) for c in zip(*ev)]
    return (
        [{k: s * x for k, x in u[p].items()} for p, _, s in pivots]
        + [_fold(r, [u[i] for i in core_rows]) for r in eu]
        + [u[i] for i in zero_rows],
        [v[c] for _, c, _ in pivots]
        + [_fold(c, [v[j] for j in core_cols]) for c in ev_cols]
        + [v[j] for j in zero_cols],
        [vinv[c] for _, c, _ in pivots]
        + [_fold(r, [vinv[j] for j in core_cols]) for r in evinv]
        + [vinv[j] for j in zero_cols],
    )


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 14), st.sampled_from(["sparse", "graph", "graph with exempt rows"]), st.integers(0, 2**32 - 1)
)
def test_transform_vectors_match_the_eager_presolve_and_core(n, kind, seed):
    # graph relation matrices are mostly unit pivots around a small core, and
    # "sparse" matrices mix units and a core, so both phases do work
    rng = random.Random(seed)
    if kind == "sparse":
        m = _random_matrix(rng, n, rng.randint(0, 14), kind)
    else:
        m = relation_matrix(_random_graph(rng, n, kind != "graph"))
    s = smith_normal_form(m)
    eu, ev, evinv = _eager_smith_vectors(m)
    assert [s.u_row(i) for i in range(m.rows)] == eu
    assert [s.v_col(j) for j in range(m.cols)] == ev
    assert [s.vinv_row(j) for j in range(m.cols)] == evinv
    inside = m.mat_vec([rng.randint(-3, 3) for _ in range(m.cols)])
    for vec in ([rng.randint(-5, 5) for _ in range(m.rows)], inside):
        start = rng.randint(0, m.rows)
        assert s.u_mul(vec, start) == [_dot(r, vec) for r in eu[start:]]


# ---------------------------------------------------------------------------
# Kernels against the loops they replaced
# ---------------------------------------------------------------------------


def _reference_presolve(m):
    """The presolve as it was before its heap took integer keys: (length,
    row) pairs on the heap, and the pivot row's items read once per changed
    row.  It must give the same pivots, rows, column sets and logs."""
    rows = []
    colrows = [set() for _ in range(m.cols)]
    heap = []
    for i, r in enumerate(m.sparse_rows):
        rows.append(dict(r))
        for j in r:
            colrows[j].add(i)
        if r:
            heap.append((len(r), i))
    heapify(heap)
    pivots, rlog, clog = [], [], []
    while heap:
        length, p = heappop(heap)
        rp = rows[p]
        if rp is None or length != len(rp):
            continue
        c = -1
        for j, x in rp.items():
            if x == 1 or x == -1:
                k = len(colrows[j])
                if c < 0 or k < least or (k == least and j < c):
                    c, least = j, k
        if c < 0:
            continue
        s = rp.pop(c)
        pivots.append((p, c, s))
        rows[p] = None
        changed = colrows[c]
        changed.discard(p)
        colrows[c] = None
        for i in changed:
            ri = rows[i]
            q = ri.pop(c) * s
            for j, y in rp.items():
                x = ri.get(j)
                if x is None:
                    ri[j] = -q * y
                    colrows[j].add(i)
                elif z := x - q * y:
                    ri[j] = z
                else:
                    del ri[j]
                    colrows[j].discard(i)
            if ri:
                heappush(heap, (len(ri), i))
            rlog.append((i, p, q))
        if s < 0:
            rlog.append((p, p, 2))
        for j, y in rp.items():
            clog.append((j, c, y * s))
            colrows[j].discard(p)
    return rows, colrows, pivots, rlog, clog


def _reference_dense_smith(a):
    """The dense reduction as it was before its column pass listed the pivot
    row's nonzeros once per round: every row operation scans the pivot row
    from column t.  It must give the same logs and leave the same matrix."""
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    rlog, clog = [], []

    def row_axpy(i, j, q):
        ai, aj = a[i], a[j]
        for k in range(t, ncols):
            x = aj[k]
            if x:
                ai[k] -= q * x
        rlog.append((i, j, q))

    def find_pivot(t):
        best, best_val = None, 0
        for i in range(t, nrows):
            ai = a[i]
            for j in range(t, ncols):
                x = ai[j]
                if x:
                    ax = -x if x < 0 else x
                    if best is None or ax < best_val:
                        best, best_val = (i, j), ax
                        if ax == 1:
                            return best
        return best

    t = 0
    while t < min(nrows, ncols):
        piv = find_pivot(t)
        if piv is None:
            break
        i, j = piv
        while True:
            if j != t:
                for row in a[t:]:
                    row[j], row[t] = row[t], row[j]
                clog.append((j, t, 0))
            while True:
                if i != t:
                    a[i], a[t] = a[t], a[i]
                    rlog.append((i, t, 0))
                d = a[t][t]
                i, least = t, 0
                for r in range(t + 1, nrows):
                    x = a[r][t]
                    if x:
                        q = _nearest_quotient(x, d)
                        if q:
                            row_axpy(r, t, q)
                            x = a[r][t]
                        if x:
                            x = -x if x < 0 else x
                            if not least or x < least:
                                i, least = r, x
                if not least:
                    break
            at = a[t]
            j, least = t, 0
            for k in range(t + 1, ncols):
                x = at[k]
                if x:
                    q = _nearest_quotient(x, d)
                    if q:
                        x = at[k] = x - q * d
                        clog.append((k, t, q))
                    if x:
                        x = -x if x < 0 else x
                        if not least or x < least:
                            j, least = k, x
            if least:
                continue
            if d in (1, -1):
                break
            culprit = None
            for r in range(t + 1, nrows):
                if any(a[r][k] % d for k in range(t + 1, ncols)):
                    culprit = r
                    break
            if culprit is None:
                break
            row_axpy(t, culprit, -1)
        if a[t][t] < 0:
            row_axpy(t, t, 2)
        t += 1
    return rlog, clog


def _reference_generator_classes(g):
    """The class map as it was built before it read dense V columns: one
    sparse V column per coordinate, its entries written into per-generator
    lists."""
    factors = g.invariant_factors
    coords = [[0] * len(g._positions) for _ in range(g.ngens)]
    for t, j in enumerate(g._positions):
        d = factors[t] if t < len(factors) else 0
        for i, x in g.snf.v_col(j).items():
            coords[i][t] = x % d if d else x
    return [tuple(c) for c in coords]


def _bundled_graph(rng):
    """A random graph of 1-60 vertices and out-degree 1-20, in half the draws
    with its edges in parallel bundles of 2-5 and in half with exempt rows."""
    n, outdeg = rng.randint(1, 60), rng.randint(1, 20)
    bundles = rng.random() < 0.5
    verts = [f"v{i:02d}" for i in range(n)]
    edges = []
    for i, v in enumerate(verts):
        targets = []
        while len(targets) < outdeg:
            targets += [rng.choice(verts)] * (rng.randint(2, 5) if bundles else 1)
        edges += [(f"e{i}_{k}", v, t) for k, t in enumerate(targets[:outdeg])]
    exempt = [v for v in verts if rng.random() < 0.2] if rng.random() < 0.5 else []
    return FiniteGraph(verts, edges, exempt)


@pytest.mark.parametrize("block", range(10))
def test_kernels_keep_the_reference_pivots_and_logs(block):
    # 100 graphs per block, 1,000 in all: the presolve of each relation
    # matrix and of its transpose, 2,000 inputs, then the dense reduction of
    # every core they leave and the class map of both cokernels
    rng = random.Random(f"kernels:{block}")
    cores = 0
    for _ in range(100):
        m = relation_matrix(_bundled_graph(rng))
        for a in (m, m.transpose()):
            got = abelian._presolve(a)
            assert got == _reference_presolve(a)
            rows, colrows = got[0], got[1]
            core_rows = [i for i, r in enumerate(rows) if r]
            core_cols = [j for j, c in enumerate(colrows) if c]
            core = [[rows[i].get(j, 0) for j in core_cols] for i in core_rows]
            ref = [list(r) for r in core]
            assert abelian._dense_smith(core) == _reference_dense_smith(ref)
            assert core == ref
            cores += bool(core)
            assert cokernel(a).generator_classes() == _reference_generator_classes(cokernel(a))
    assert cores > 100


@pytest.mark.parametrize("n", [2, 5, 12, 24, 36, 48])
def test_dense_reduction_keeps_the_reference_logs_on_square_cores(n):
    # unit-free entries, as the presolve leaves them, up to 48x48
    rng = random.Random(n)
    for _ in range(max(1, 96 // n)):
        core = [[rng.choice((-4, -3, -2, 0, 2, 3, 5)) for _ in range(n)] for _ in range(n)]
        ref = [list(r) for r in core]
        assert abelian._dense_smith(core) == _reference_dense_smith(ref)
        assert core == ref


def _torsion_factor_sets():
    pool = (2, 3, 4, 9)
    multisets = [()] + [ms for k in (1, 2, 3) for ms in combinations_with_replacement(pool, k)]
    texts = {" + ".join(f"Z/{n}" for n in ms) or "0" for ms in multisets}
    return sorted({parse_group_expr(text).invariant_factors for text in texts})


@pytest.mark.parametrize("free", range(4))
def test_canonical_groups_take_their_smith_form_without_a_reduction(monkeypatch, free):
    for factors in _torsion_factor_sets():
        reductions = []
        monkeypatch.setattr(abelian, "smith_normal_form", lambda m: reductions.append(m))
        g = FgAbelianGroup.canonical(free, factors)
        monkeypatch.undo()
        assert reductions == []
        rel, s = g.relations, g.snf
        ref = smith_normal_form(rel)
        assert (s.rows, s.cols, s.diagonal, s.rank) == (ref.rows, ref.cols, ref.diagonal, ref.rank)
        assert [s.u_row(i) for i in range(s.rows)] == [ref.u_row(i) for i in range(ref.rows)]
        assert [s.v_col(j) for j in range(s.cols)] == [ref.v_col(j) for j in range(ref.cols)]
        assert [s.vinv_row(j) for j in range(s.cols)] == [ref.vinv_row(j) for j in range(ref.cols)]
        assert (s.u, s.v, s.v_inv, s.d) == (ref.u, ref.v, ref.v_inv, ref.d)
        s.verify(rel)
        assert g.canonical_pair() == (free, factors)


@pytest.mark.parametrize(
    "free,factors,message",
    [
        (0, (1,), "must be >= 2"),
        (1, (0,), "must be >= 2"),
        (0, (4, 6), "divisibility order"),
        (-1, (), "nonnegative"),
    ],
)
def test_canonical_rejects_malformed_invariants(free, factors, message):
    with pytest.raises(ValueError, match=message):
        FgAbelianGroup.canonical(free, factors)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 14), st.booleans(), st.integers(0, 2**32 - 1))
def test_sections_and_relations_in_canonical_coordinates(n, exempt, seed):
    g = cokernel(relation_matrix(_random_graph(random.Random(seed), n, exempt)))
    for i in range(g.ncoords):
        assert g.class_of(g.section(i)) == tuple(int(j == i) for j in range(g.ncoords))
    for row in g.relations.iter_rows():
        assert g.class_of(row) == (0,) * g.ncoords


# ---------------------------------------------------------------------------
# Cokernels and kernels
# ---------------------------------------------------------------------------


def test_smith_form_refuses_cores_above_the_bound(monkeypatch):
    monkeypatch.setattr(abelian, "MAX_CORE_CELLS", 6)
    assert smith_normal_form(M([[2, 0, 4], [0, 2, 6]])).diagonal == (2, 2)
    assert smith_normal_form(M([[1 if i == j else 0 for j in range(40)] for i in range(40)])).rank == 40
    with pytest.raises(ValueError, match="a 3x3 matrix leaves a 3x3 core .* bound of 6 cells"):
        smith_normal_form(M([[2, 0, 0], [0, 2, 0], [0, 0, 2]]))


def test_presolve_refuses_fill_above_the_bound(monkeypatch):
    # the all-ones 5x5 matrix takes one pivot, at row 0 and column 0, which
    # changes the other 4 rows at the other 4 entries of row 0: 16 entries
    # written, after which every other row is zero
    ones = M([[1] * 5 for _ in range(5)])
    monkeypatch.setattr(abelian, "MAX_PRESOLVE_FILL", 16)
    assert smith_normal_form(ones).diagonal == (1, 0, 0, 0, 0)
    monkeypatch.setattr(abelian, "MAX_PRESOLVE_FILL", 15)
    with pytest.raises(ValueError, match=r"a 5x5 matrix writes more than 15 entries in its presolve"):
        smith_normal_form(ones)


def test_cokernel_no_relations():
    g = cokernel(IntMatrix.from_rows([], cols=2))
    assert g.canonical_pair() == (2, ())


def test_cokernel_negative_unit():
    # coker of (-1) over Z is trivial; oracle: its Smith form is (1)
    assert cokernel(M([[-1]])).is_trivial


def test_cokernel_mixed():
    # oracle: Smith form diag(2) on the first coordinate leaves Z + Z/2
    g = cokernel(M([[2, 0]]))
    assert g.canonical_pair() == (1, (2,))


def test_cokernel_class_map():
    g = cokernel(M([[2, 0]]))
    one = g.class_of((1, 0))
    assert g.reduce_coords([x + y for x, y in zip(one, one)]) == (0, 0)
    assert g.class_of((0, 1)) != (0, 0)


def test_cokernel_invariant_under_unimodular_transforms():
    rng = random.Random(11)
    for _ in range(25):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = IntMatrix(r, c, [rng.randint(-9, 9) for _ in range(r * c)])
        u = _random_unimodular(rng, r)
        v = _random_unimodular(rng, c)
        assert cokernel(m).canonical_pair() == cokernel((u @ m) @ v).canonical_pair()


def _random_unimodular(rng, n):
    m = IntMatrix.identity(n).to_lists()
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += q * m[j][k]
    return IntMatrix.from_rows(m, cols=n)


def test_kernel_injective():
    assert kernel_basis(IntMatrix.identity(2)) == []


def test_kernel_antidiagonal():
    kb = kernel_basis(M([[1, 1]]))
    assert len(kb) == 1
    assert ColumnLattice(IntMatrix.from_sparse_columns(2, kb)).contains((1, -1))


def test_kernel_full_rank():
    # oracle: det = 2*8 - 4*6 = -8 != 0, so the kernel is trivial
    assert M([[2, 4], [6, 8]]).determinant() == -8
    assert kernel_basis(M([[2, 4], [6, 8]])) == []


def test_kernel_is_saturated():
    rng = random.Random(5)
    for _ in range(20):
        r, c = rng.randint(1, 5), rng.randint(2, 5)
        m = IntMatrix(r, c, [rng.randint(-4, 4) for _ in range(r * c)])
        lat = ColumnLattice(IntMatrix.from_sparse_columns(c, kernel_basis(m)))
        # saturation: any integer vector with 2x in the kernel lattice is in it
        for col in lat.matrix.columns():
            doubled = tuple(2 * x for x in col)
            assert lat.contains(doubled)
            assert all(x % 2 == 0 for x in doubled)


# ---------------------------------------------------------------------------
# Homomorphisms
# ---------------------------------------------------------------------------


def test_hom_compose_identity_and_zero():
    g = parse_group_expr("Z + Z/2")
    n = g.ngens
    ident = GroupHom(g, g, IntMatrix.identity(n))
    assert hom_compose(ident, ident).matrix == ident.matrix
    zero = GroupHom(g, g, IntMatrix(n, n, [0] * (n * n)))
    assert hom_compose(zero, ident).matrix == zero.matrix


def test_hom_compose_multiplication():
    z = FgAbelianGroup.canonical(1)
    x2 = GroupHom(z, z, M([[2]]))
    x3 = GroupHom(z, z, M([[3]]))
    assert hom_compose(x2, x3).matrix == M([[6]])


def test_hom_compose_requires_same_presentation():
    z = FgAbelianGroup.canonical(1)
    z2 = FgAbelianGroup.canonical(2)
    with pytest.raises(ValueError):
        hom_compose(GroupHom(z, z, IntMatrix.identity(1)), GroupHom(z2, z2, IntMatrix.identity(2)))


def test_hom_iso_identity_on_mixed_group():
    g = parse_group_expr("Z + Z/2")
    assert GroupHom(g, g, IntMatrix.identity(g.ngens)).is_isomorphism()


def test_hom_doubling_not_iso():
    z = FgAbelianGroup.canonical(1)
    assert not GroupHom(z, z, M([[2]])).is_isomorphism()


def test_hom_tripling_mod_two_is_iso():
    # oracle: exhaustive check on the two elements, 3*0 = 0 and 3*1 = 1 mod 2
    z2 = parse_group_expr("Z/2")
    tripling = GroupHom(z2, z2, M([[3]]))
    images = {x: (3 * x) % 2 for x in (0, 1)}
    assert images == {0: 0, 1: 1}
    assert tripling.is_isomorphism()


def test_hom_rejects_ill_defined():
    z2 = parse_group_expr("Z/2")
    z = FgAbelianGroup.canonical(1)
    with pytest.raises(ValueError):
        GroupHom(z2, z, M([[1]]))  # sends an order-2 element to infinite order


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_hom_well_definedness_matches_the_dense_relation_test(seed):
    # reference: every domain relation, as a dense vector, maps through the
    # dense matrix into the codomain relation lattice
    rng = random.Random(seed)
    nd, nc = rng.randint(0, 4), rng.randint(0, 4)

    def presented(n):
        rels = [[rng.choice([0, 0, 1, 2, -3, 4]) for _ in range(n)] for _ in range(rng.randint(0, 3))]
        return cokernel(IntMatrix.from_rows(rels, cols=n))

    dom, cod = presented(nd), presented(nc)
    if rng.random() < 0.3:
        # a codomain relation row as a literal image, the fast path
        dom = cokernel(IntMatrix.from_rows([[1] + [0] * (nd - 1)] if nd else [], cols=nd))
    mat = M([[rng.randint(-2, 2) for _ in range(nd)] for _ in range(nc)]) if nc else IntMatrix(0, nd, [])
    expected = all(cod.lattice_contains(mat.mat_vec(rel)) for rel in dom.relations.iter_rows())
    if expected:
        GroupHom(dom, cod, mat)
    else:
        with pytest.raises(ValueError):
            GroupHom(dom, cod, mat)


def _is_isomorphism_by_preimage_lattice(hom):
    """The isomorphism test as first written: onto, and every generator of the
    preimage of the codomain relation lattice lies in the domain's."""
    pre = abelian._preimage_lattice_rows(hom.matrix, hom.codomain)
    return hom.is_surjective() and all(hom.domain.lattice_contains(row) for row in pre.iter_rows())


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["unimodular", "quotient", "random"]), st.integers(0, 2**32 - 1))
def test_isomorphism_test_matches_the_preimage_lattice_test(kind, seed):
    rng = random.Random(seed)
    n = rng.randint(0, 4)

    def rows(count, width):
        return [[rng.choice([0, 0, 1, 2, -3, 4]) for _ in range(width)] for _ in range(count)]

    rels = IntMatrix.from_rows(rows(rng.randint(0, 3), n), cols=n)
    if kind == "unimodular":
        # W is invertible over Z and the codomain relations are the domain's
        # images, so the hom is an isomorphism
        mat = _random_unimodular(rng, n)
        cod_rels = rels @ mat.transpose()
    elif kind == "quotient":
        # the identity onto extra relations that may already hold
        mat = IntMatrix.identity(n)
        extra = [rels.transpose().mat_vec([rng.randint(-2, 2) for _ in range(rels.rows)])]
        cod_rels = rels.vstack(IntMatrix.from_rows(extra + rows(rng.randint(0, 1), n), cols=n))
    else:
        # a random matrix, with the images of the domain relations among
        # the codomain's and maybe more
        nc = rng.randint(0, 4)
        mat = M([[rng.randint(-2, 2) for _ in range(n)] for _ in range(nc)]) if nc else IntMatrix(0, n, [])
        cod_rels = (rels @ mat.transpose()).vstack(IntMatrix.from_rows(rows(rng.randint(0, 2), nc), cols=nc))
    hom = GroupHom(cokernel(rels), cokernel(cod_rels), mat)
    assert hom.is_isomorphism() == _is_isomorphism_by_preimage_lattice(hom)
    if kind == "unimodular":
        assert hom.is_isomorphism()


def test_hom_kernel_rank():
    z2 = FgAbelianGroup.canonical(2)
    proj = GroupHom(z2, z2, M([[1, 0], [0, 0]]))
    assert proj.kernel_rank() == 1


# ---------------------------------------------------------------------------
# Colimits
# ---------------------------------------------------------------------------


def test_colimit_constant_chain():
    z = FgAbelianGroup.canonical(1)
    groups = [z] * 4
    homs = [GroupHom(z, z, IntMatrix.identity(1))] * 3
    res = colimit_chain_detailed(groups, homs, 2)
    assert res.stabilized and res.group.canonical_pair() == (1, ())


def test_colimit_everything_dies():
    # both basis elements are killed at every step and replaced by fresh ones
    z2 = FgAbelianGroup.canonical(2)
    groups = [z2] * 6
    homs = [GroupHom(z2, z2, IntMatrix(2, 2, [0] * 4))] * 5
    res = colimit_chain_detailed(groups, homs, 2)
    assert res.stabilized and res.group.is_trivial


def test_colimit_doubling_never_stabilizes():
    z = FgAbelianGroup.canonical(1)
    x2 = GroupHom(z, z, M([[2]]))
    for length in (4, 6, 8):
        res = colimit_chain_detailed([z] * length, [x2] * (length - 1), 2)
        assert not res.stabilized
        assert res.group.canonical_pair() == (1, ())


def test_colimit_isomorphism_chain_returns_first_group():
    g = parse_group_expr("Z/2 + Z/4")
    groups = [g] * 5
    homs = [GroupHom(g, g, IntMatrix.identity(g.ngens))] * 4
    res = colimit_chain_detailed(groups, homs, 2)
    assert res.stabilized and res.group.canonical_pair() == g.canonical_pair()


def _colimit_reducing_every_group(groups, homs, window):
    """The colimit as first written: a reduced group for every index up to
    the settled one.  Returns (reduced group, stabilized, settled index)."""
    last = len(groups) - 1 - window
    reduced = []
    for i in range(last + 1):
        comp = homs[i]
        for j in range(i + 1, i + window):
            comp = hom_compose(comp, homs[j])
        pre = abelian._preimage_lattice_rows(comp.matrix, groups[i + window])
        rel = groups[i].relations.vstack(pre)
        reduced.append(cokernel(rel))
    checks = min(window + 1, last)
    stabilized = all(
        GroupHom(reduced[i], reduced[i + 1], homs[i].matrix).is_isomorphism() for i in range(last - checks, last)
    )
    return reduced[last], stabilized, last


def _deep_chains():
    z, z2, mixed = FgAbelianGroup.canonical(1), FgAbelianGroup.canonical(2), parse_group_expr("Z + Z/2 + Z/4")
    shift = GroupHom(z2, z2, M([[0, 0], [1, 0]]))  # kills the second generator after one step
    onto = GroupHom(mixed, mixed, M([[1, 0, 0], [0, 1, 2], [0, 0, 1]]))
    # Z -> Z^2 -> ... -> Z^18: each map doubles the first generator and keeps
    # the others, so no two groups or maps are equal
    growing = [FgAbelianGroup.canonical(k) for k in range(1, 19)]
    widen = []
    for k in range(1, 18):
        rows = [[int(i == j) for j in range(k)] for i in range(k + 1)]
        rows[0][0] = 2
        widen.append(GroupHom(growing[k - 1], growing[k], M(rows)))
    return {
        "doubling": ([z] * 18, [GroupHom(z, z, M([[2]]))] * 17),
        "shift": ([z2] * 18, [shift] * 17),
        "mixed": ([mixed] * 18, [onto] * 17),
        "growing": (growing, widen),
        "scaling": ([z] * 18, [GroupHom(z, z, M([[k]])) for k in range(2, 19)]),  # equal groups, distinct maps
    }


@pytest.mark.parametrize("name", ["doubling", "shift", "mixed", "growing", "scaling"])
@pytest.mark.parametrize("window", [1, 2, 3])
def test_colimit_reduces_only_the_final_stretch(monkeypatch, name, window):
    # a depth-16 chain: the stabilization check reads the reduced groups at
    # the last window + 2 indices, so only those are computed, and a window
    # input (the groups at i and i + window and the maps between) met before
    # is not reduced again: the constant chains reduce one, the growing and
    # the scaling chain window + 2
    groups, homs = _deep_chains()[name]
    ref_group, ref_stabilized, ref_last = _colimit_reducing_every_group(groups, homs, window)
    stretch = range(ref_last - window - 1, ref_last + 1)
    inputs = {(id(groups[i]), id(groups[i + window]), *map(id, homs[i : i + window])) for i in stretch}
    assert len(inputs) == (window + 2 if name in ("growing", "scaling") else 1)
    calls = []
    monkeypatch.setattr(abelian, "cokernel", lambda m: calls.append(m) or cokernel(m))
    res = colimit_chain_detailed(groups, homs, window)
    assert len(calls) == len(inputs) < ref_last + 1
    assert (res.settled_index, res.stabilized) == (ref_last, ref_stabilized)
    assert res.group.canonical_pair() == ref_group.canonical_pair()
    assert res.group.relations == ref_group.relations


@pytest.mark.parametrize("window", [1, 2, 3])
def test_colimit_reuses_a_reduction_only_where_the_relations_agree(window):
    # every map is [1]: Z -> Z, then Z -> Z/2, then Z/2 -> Z/2.  The window
    # inputs of the final stretch share their map matrices, and the first of
    # them reduces to Z, the last to Z/2
    z, z2 = FgAbelianGroup.canonical(1), FgAbelianGroup.canonical(0, (2,))
    groups = [z] * 16 + [z2] * 2
    homs = [GroupHom(z, z, M([[1]]))] * 15 + [GroupHom(z, z2, M([[1]])), GroupHom(z2, z2, M([[1]]))]
    ref_group, ref_stabilized, ref_last = _colimit_reducing_every_group(groups, homs, window)
    res = colimit_chain_detailed(groups, homs, window)
    assert res.group.canonical_pair() == ref_group.canonical_pair() == (0, (2,))
    assert (res.settled_index, res.stabilized) == (ref_last, ref_stabilized)


def test_colimit_window_too_short():
    z = FgAbelianGroup.canonical(1)
    with pytest.raises(ValueError):
        colimit_chain_detailed([z] * 3, [GroupHom(z, z, IntMatrix.identity(1))] * 2, 2)


# ---------------------------------------------------------------------------
# Group expression grammar
# ---------------------------------------------------------------------------


def test_parse_free_and_torsion():
    g = parse_group_expr("Z^2 + Z/3")
    assert g.canonical_pair() == (2, (3,))


def test_parse_crt_normalization():
    # oracle: the Smith form of diag(2, 3) is diag(1, 6)
    s = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert s.diagonal == (1, 6)
    assert parse_group_expr("Z/2 + Z/3").canonical_pair() == (0, (6,))


@pytest.mark.parametrize("seed", range(40))
def test_parse_normalizes_torsion_as_the_smith_form(seed):
    # oracle: the Smith form of the diagonal matrix of the orders
    rng = random.Random(seed)
    torsion = [rng.choice((2, 3, 4, 5, 6, 8, 9, 12, 16, 25, 27, 30, 36)) for _ in range(rng.randint(1, 7))]
    diag = IntMatrix.from_rows([[x if i == j else 0 for j in range(len(torsion))] for i, x in enumerate(torsion)])
    expected = tuple(x for x in smith_normal_form(diag).diagonal if x >= 2)
    text = " + ".join(["Z^2"] + [f"Z/{n}" for n in torsion])
    assert parse_group_expr(text).canonical_pair() == (2, expected)


def test_parse_trivial():
    assert parse_group_expr("0").is_trivial


def test_parse_keeps_divisible_factors():
    assert parse_group_expr("Z/2 + Z/2 + Z/4").canonical_pair() == (0, (2, 2, 4))


@pytest.mark.parametrize("bad", ["", "Z^0", "Z/1", "Q", "Z +", "0 + Z", "Z/-3"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_group_expr(bad)


@pytest.mark.parametrize(
    "text",
    ["0", "Z", "Z^3", "Z/2", "Z^2 + Z/2 + Z/6", "Z/4 + Z/2 + Z^5", "Z/3 + Z/9"],
)
def test_parse_format_roundtrip(text):
    once = parse_group_expr(text)
    again = parse_group_expr(format_group(once))
    assert once.canonical_pair() == again.canonical_pair()
    assert format_group(once) == format_group(again)


def test_format_examples():
    assert format_group(parse_group_expr("Z/3 + Z^2")) == "Z^2 + Z/3"
    assert format_group(FgAbelianGroup.canonical(0)) == "0"
    assert format_group(FgAbelianGroup.canonical(1)) == "Z"

