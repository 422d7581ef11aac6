"""Exact integer linear algebra and finitely generated abelian groups.

Everything in this module is exact: matrices carry Python ints (arbitrary
precision is mandatory, since Smith normal form intermediates can exceed
machine words even for small inputs), Smith normal forms come with their
unimodular transforms, and groups are kept in invariant-factor form so that
isomorphism questions reduce to tuple comparison.  A matrix is its sparse
rows, one ``{column: nonzero}`` dict per row, all the way from the relation
rows of a graph to the Smith form's presolve, which eliminates on copies of
them; a dense view is built only where one is read.

The pieces fit together as follows.  ``smith_normal_form`` diagonalizes an
integer matrix M as ``U @ M @ V == D`` with U, V unimodular and the diagonal
in divisibility order.  It keeps no transform.  A sparse presolve
eliminates unit pivots, shortest row first, and a dense reduction finishes
the core they leave, clearing each pivot's column before its row; both
append their operations to one row log and one column log, and a row of
U, column of V or row of V^-1 is replayed from a log when a caller reads
it.  The callers below read only the vectors they
use (class maps skip the positions with a unit diagonal entry, and lattice
tests run the row log forward on the vector they test), and none of them
builds a dense transform.  Groups given in canonical form carry
their diagonal presentation with empty logs and need no reduction.
``cokernel`` presents Z^n modulo the row lattice of a relation matrix and
remembers enough of the transform to convert ambient integer vectors into
canonical coordinates (``FgAbelianGroup.class_of``).  ``kernel_basis`` returns
a saturated basis of the integer kernel lattice from the free columns of V.
``GroupHom`` is a homomorphism between presented groups, checked for
well-definedness at construction.  ``colimit_chain_detailed`` computes the
direct limit of a finite prefix of a chain of groups along homomorphisms,
with an explicit, honestly-flagged stabilization heuristic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush
from typing import Iterable, Sequence


class IntMatrix:
    """Immutable integer matrix, arbitrary precision, held as its sparse rows.

    ``sparse_rows`` holds one ``{column: nonzero}`` dict per row.  No row
    stores a zero and none is mutated after construction, so matrices may
    share rows.  ``entry`` and ``columns`` read the rows; the dense
    row-major tuple ``entries`` is derived from them on first read, for
    hashing, printing and readers outside the package.
    """

    __slots__ = ("rows", "cols", "sparse_rows", "_entries", "_hash")

    def __init__(self, rows: int, cols: int, entries: Sequence[int]):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        entries = tuple(int(x) for x in entries)
        if len(entries) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(entries)}"
            )
        dense_rows = (entries[i * cols : (i + 1) * cols] for i in range(rows))
        self._set(rows, cols, tuple({j: x for j, x in enumerate(r) if x} for r in dense_rows))

    def _set(self, rows: int, cols: int, sparse_rows: tuple[dict, ...]) -> None:
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "sparse_rows", sparse_rows)
        object.__setattr__(self, "_entries", None)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _of(cls, rows: int, cols: int, sparse_rows: tuple[dict, ...]) -> "IntMatrix":
        """Wrap ``rows`` sparse rows of width ``cols`` already known to be valid.

        Every row maps columns below ``cols`` to nonzero ints and is never
        mutated again.  Internal results are built that way from valid
        matrices, so they skip the coercion and checks of the public
        constructor.
        """
        m = object.__new__(cls)
        m._set(rows, cols, sparse_rows)
        return m

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        rows = [list(r) for r in rows]
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError("ragged rows")
        else:
            ncols = 0 if cols is None else cols
        return cls(len(rows), ncols, [x for r in rows for x in r])

    @classmethod
    def from_sparse_columns(cls, rows: int, columns: Sequence[dict]) -> "IntMatrix":
        """The rows x len(columns) matrix whose columns are these ``{row: value}`` dicts."""
        return cls._of(rows, len(columns), _transpose(columns, rows))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        if n < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        return cls._of(n, n, tuple({i: 1} for i in range(n)))

    # -- access ------------------------------------------------------------

    @property
    def entries(self) -> tuple[int, ...]:
        """The row-major dense entries, built from the rows on first read."""
        ents = self._entries
        if ents is None:
            ents = tuple(itertools.chain.from_iterable(self.iter_rows()))
            object.__setattr__(self, "_entries", ents)
        return ents

    def entry(self, i: int, j: int) -> int:
        return self.sparse_rows[i].get(j, 0)

    def iter_rows(self):
        for r in self.sparse_rows:
            yield _dense(r, self.cols)

    def sparse_columns(self) -> tuple[dict, ...]:
        """Every column as a ``{row: nonzero}`` dict, in one pass over the rows."""
        return _transpose(self.sparse_rows, self.cols)

    def columns(self) -> list[tuple[int, ...]]:
        """Every column as a dense tuple, read from ``sparse_columns``."""
        return [_dense(c, self.rows) for c in self.sparse_columns()]

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.iter_rows()]

    # -- algebra -----------------------------------------------------------

    def transpose(self) -> "IntMatrix":
        return IntMatrix._of(self.cols, self.rows, _transpose(self.sparse_rows, self.cols))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        orows = other.sparse_rows
        out = []
        for r in self.sparse_rows:
            acc: dict = {}
            for k, x in r.items():
                for j, y in orows[k].items():
                    acc[j] = acc.get(j, 0) + x * y
            out.append({j: z for j, z in acc.items() if z})
        return IntMatrix._of(self.rows, other.cols, tuple(out))

    def __neg__(self) -> "IntMatrix":
        rows = tuple({j: -x for j, x in r.items()} for r in self.sparse_rows)
        return IntMatrix._of(self.rows, self.cols, rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.sparse_rows == other.sparse_rows
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.rows, self.cols, self.entries))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols}, {self.to_lists()})"

    def mat_vec(self, vec: Sequence[int]) -> tuple[int, ...]:
        """self @ vec with vec a column vector, in nnz(self) steps."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum([x * vec[j] for j, x in r.items()]) for r in self.sparse_rows)

    def vstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.cols:
            raise ValueError("column count mismatch in vstack")
        return IntMatrix._of(self.rows + other.rows, self.cols, self.sparse_rows + other.sparse_rows)

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        c = self.cols
        pairs = zip(self.sparse_rows, other.sparse_rows)
        rows = tuple({**a, **{j + c: x for j, x in b.items()}} for a, b in pairs)
        return IntMatrix._of(self.rows, c + other.cols, rows)

    def determinant(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = self.to_lists()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k]:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


class SmithDecomposition:
    """U @ M @ V == D with U, V unimodular, D diagonal in divisibility order.

    No transform is stored.  The reduction keeps one row log and one column
    log of its operations in the matrix's own row and column indices (the
    format of ``_dense_smith``), and two output orders: diagonal position k
    sits at row ``e_order[k]`` and column ``f_order[k]`` of the reduced
    matrix.  Row k of U is replayed from the row log on the unit vector at
    row ``e_order[k]``, and column k of V and row k of V^-1 from the column
    log on the one at column ``f_order[k]`` (see ``_replay``).  Each is
    replayed the first time it is read with ``u_row``, ``v_col`` or
    ``vinv_row``, then kept as an ``{index: nonzero}`` dict.  Callers read
    only what they need, and
    most need little: a unit diagonal entry constrains nothing, so classes
    read only the V columns at non-unit positions, and ``u_mul`` runs the row
    log forward on the one vector it multiplies.  ``u``, ``v``, ``v_inv``
    and ``d`` build the whole matrices on first use.  ``v_inv`` is the exact
    inverse of V; its rows give sections of the quotient map (see
    ``FgAbelianGroup.section``).  The returned dicts are shared and must not be
    mutated.
    """

    def __init__(self, rows: int, cols: int, diagonal: Sequence[int], orders, logs):
        self.rows, self.cols = rows, cols
        self.diagonal = tuple(diagonal)
        self.rank = sum(1 for x in self.diagonal if x)
        self._orders = orders  # (e_order, f_order)
        self._logs = logs  # (row log, column log)
        self._read = ({}, {}, {})  # the vectors read so far: U rows, V columns, V^-1 rows

    def _vector(self, which: int, k: int) -> dict:
        read = self._read[which]
        vec = read.get(k)
        if vec is None:
            side = which > 0
            x = _replay(self._logs[side], self.cols if side else self.rows, self._orders[side][k], which == 2)
            vec = read[k] = {i: y for i, y in enumerate(x) if y}
        return vec

    def u_row(self, i: int) -> dict:
        return self._vector(0, i)

    def v_col(self, j: int) -> dict:
        return self._vector(1, j)

    def vinv_row(self, j: int) -> dict:
        return self._vector(2, j)

    def u_mul(self, vec: Sequence[int], start: int = 0) -> list[int]:
        """(U @ vec)[start:], building no row of U: the row log runs forward on ``vec``."""
        x = list(vec)
        for i, j, q in self._logs[0]:
            if q:
                y = x[j]
                if y:
                    x[i] -= q * y
            else:
                x[i], x[j] = x[j], x[i]
        order = self._orders[0]
        return [x[order[k]] for k in range(start, self.rows)]

    def kernel(self) -> IntMatrix:
        """Basis of {x : M @ x == 0} as columns: the columns of V past the rank."""
        return IntMatrix.from_sparse_columns(self.cols, [self.v_col(j) for j in range(self.rank, self.cols)])

    @cached_property
    def u(self) -> IntMatrix:
        return IntMatrix._of(self.rows, self.rows, tuple(self.u_row(i) for i in range(self.rows)))

    @cached_property
    def v(self) -> IntMatrix:
        return IntMatrix.from_sparse_columns(self.cols, [self.v_col(j) for j in range(self.cols)])

    @cached_property
    def v_inv(self) -> IntMatrix:
        return IntMatrix._of(self.cols, self.cols, tuple(self.vinv_row(j) for j in range(self.cols)))

    @cached_property
    def d(self) -> IntMatrix:
        diag = self.diagonal
        rows = tuple({t: diag[t]} if t < len(diag) and diag[t] else {} for t in range(self.rows))
        return IntMatrix._of(self.rows, self.cols, rows)

    def verify(self, m: IntMatrix) -> None:
        """Assert the defining invariants exactly (used by tests)."""
        if (self.u @ m) @ self.v != self.d:
            raise AssertionError("U @ M @ V != D")
        if abs(self.u.determinant()) != 1 or abs(self.v.determinant()) != 1:
            raise AssertionError("transforms are not unimodular")
        if self.v @ self.v_inv != IntMatrix.identity(self.v.rows):
            raise AssertionError("v_inv is not the inverse of V")
        diag = self.diagonal
        for i in range(self.d.rows):
            for j in range(self.d.cols):
                if i != j and self.d.entry(i, j) != 0:
                    raise AssertionError("D is not diagonal")
        for x in diag:
            if x < 0:
                raise AssertionError("negative diagonal entry")
        for a, b in zip(diag, diag[1:]):
            if a == 0 and b != 0:
                raise AssertionError("zero before nonzero on diagonal")
            if a != 0 and b % a != 0:
                raise AssertionError("divisibility chain broken")


def _nearest_quotient(x: int, d: int) -> int:
    q = x // d
    r = x - q * d
    if 2 * abs(r) > abs(d):
        q += 1
    return q


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """Diagonalize ``m`` over Z: returns U, D, V with U @ m @ V == D.

    ``_presolve`` eliminates the unit pivots on sparse rows, shortest row
    first, logging each row and column operation.  What is left has no unit
    entry; its nonzero rows and columns form the core, which ``_dense_smith``
    reduces with logs of its own.  Those are appended to the presolve's,
    translated to the matrix's indices, so one row log and one column log
    give every transform vector (see ``SmithDecomposition``).  The diagonal,
    and the output order of rows and columns, hold the unit pivots, then the
    core, then zero lines.  D depends only on ``m``; U and V, and with them
    every coordinate read through them, depend on the pivot order.  A matrix
    with no row or no column is its own Smith form.
    """
    nrows, ncols = m.rows, m.cols
    if not nrows or not ncols:
        return SmithDecomposition(nrows, ncols, (), (range(nrows), range(ncols)), ((), ()))
    rows, colrows, pivots, rlog, clog = _presolve(m)
    core_rows, zero_rows = _core_and_zero(rows)
    core_cols, zero_cols = _core_and_zero(colrows)
    diag = [1] * len(pivots)
    if core_rows:
        core = [[rows[i].get(j, 0) for j in core_cols] for i in core_rows]
        core_rlog, core_clog = _dense_smith(core)
        rlog += [(core_rows[i], core_rows[j], q) for i, j, q in core_rlog]
        clog += [(core_cols[i], core_cols[j], q) for i, j, q in core_clog]
        diag.extend(core[t][t] for t in range(min(len(core_rows), len(core_cols))))
    diag.extend([0] * (min(nrows, ncols) - len(diag)))
    e_order = [p for p, _, _ in pivots] + core_rows + zero_rows
    f_order = [c for _, c, _ in pivots] + core_cols + zero_cols
    return SmithDecomposition(nrows, ncols, diag, (e_order, f_order), (rlog, clog))


def _presolve(m: IntMatrix):
    """Eliminate the unit entries of ``m``, shortest row first.

    Works on copies of ``m``'s sparse rows, with column occurrence sets.
    Each step takes the shortest row that still holds a +/-1 (ties to the
    lowest row) and, in it, the unit whose column has the fewest nonzeros
    (ties to the lowest column): row operations clear that column, column
    operations clear the row, and a -1 pivot's row is negated.  Relation
    matrices of graphs are mostly such pivots (the unit-pivot elimination of
    Dumas, Saunders and Villard, J. Symbolic Comput. 2001).

    This is a restricted Markowitz search (Zlatev, SIAM J. Numer. Anal.
    1980): a heap of (row length, row) and a unit count per row, both kept
    up to date inside the fill loop at O(1) per entry.  No global Markowitz
    order, (row nnz - 1) * (col nnz - 1) over every unit, is kept.  Keeping
    it meant rescanning every row of every column in the pivot row at each
    pivot: the presolve that kept it ran the Smith-form inputs of one
    seed-1 ``ktheory_big`` benchmark pass in 0.49 s.  This order takes
    0.19 s there and leaves cores with 6% more cells (best of 10, one
    process on a 2-core x86-64 host, Python 3.11).  One pass over the input
    builds the rows, the column sets, the unit counts and the heap.

    No transform is kept: each step is appended to a row log or a column log
    in the format of ``_dense_smith``.  Returns the rows left ({column:
    nonzero}, None at pivot rows), the column occurrence sets (None at pivot
    columns), the pivots as (row, column, unit), the row log and the column
    log.
    """
    rows: list = []
    colrows: list = [set() for _ in range(m.cols)]
    units: list = []
    # every row holding a unit has an item at its current length; an item
    # whose row is gone, unit-free or of another length is stale
    heap = []
    for i, r in enumerate(m.sparse_rows):
        rows.append(dict(r))
        u = 0
        for j, x in r.items():
            colrows[j].add(i)
            if x == 1 or x == -1:
                u += 1
        units.append(u)
        if u:
            heap.append((len(r), i))
    heapify(heap)
    pivots: list[tuple[int, int, int]] = []
    rlog: list[tuple[int, int, int]] = []
    clog: list[tuple[int, int, int]] = []
    while heap:
        length, p = heappop(heap)
        rp = rows[p]
        if rp is None or not units[p] or length != len(rp):
            continue
        c = -1
        for j, x in rp.items():
            if x == 1 or x == -1:
                k = len(colrows[j])
                if c < 0 or k < least or (k == least and j < c):
                    c, least = j, k
        s = rp.pop(c)
        pivots.append((p, c, s))
        rows[p] = None
        # clear column c with row operations (s is its own inverse)
        changed = colrows[c]
        changed.discard(p)
        colrows[c] = None
        for i in changed:
            ri = rows[i]
            q = ri.pop(c) * s
            u = units[i] - (q == 1 or q == -1)
            for j, y in rp.items():
                x = ri.get(j)
                if x is None:  # fill: q and y are nonzero
                    z = ri[j] = -q * y
                    colrows[j].add(i)
                else:
                    if x == 1 or x == -1:
                        u -= 1
                    z = x - q * y
                    if not z:
                        del ri[j]
                        colrows[j].discard(i)
                        continue
                    ri[j] = z
                if z == 1 or z == -1:
                    u += 1
            units[i] = u
            if u:
                heappush(heap, (len(ri), i))
            rlog.append((i, p, q))
        if s < 0:
            rlog.append((p, p, 2))
        # clear row p with column operations; column c is zero off the pivot,
        # so they change no other row
        for j, y in rp.items():
            clog.append((j, c, y * s))
            colrows[j].discard(p)
    return rows, colrows, pivots, rlog, clog


def _core_and_zero(lines: Sequence) -> tuple[list[int], list[int]]:
    """The indices of the nonempty and of the empty lines; a pivot line is None."""
    core, zero = [], []
    for k, line in enumerate(lines):
        if line:
            core.append(k)
        elif line is not None:
            zero.append(k)
    return core, zero


def _dot(sparse: dict, vec: Sequence[int]) -> int:
    """Inner product of a sparse vector with a dense one."""
    return sum(x * vec[k] for k, x in sparse.items())


def _dense(vec: dict, n: int) -> tuple[int, ...]:
    """The length-n tuple of a sparse vector."""
    out = [0] * n
    for k, x in vec.items():
        out[k] = x
    return tuple(out)


def _transpose(lines: Sequence[dict], n: int) -> tuple[dict, ...]:
    """The n sparse lines across these sparse lines of length n, zeros dropped.

    Rows in give the columns out, and columns in give the rows out.
    """
    out: list[dict] = [{} for _ in range(n)]
    for i, line in enumerate(lines):
        for j, x in line.items():
            if x:
                out[j][i] = x
    return tuple(out)


def _replay(log: Sequence[tuple[int, int, int]], n: int, t: int, inverse: bool) -> list[int]:
    """Line t of a transform, replayed from its log on the unit vector e_t.

    With the row log this is row t of U; with the column log, column t of V,
    or with ``inverse`` row t of V^-1.  A transform is the product of its
    logged operations, U = E_k ... E_1, V = F_1 ... F_k and V^-1 = F_k^-1
    ... F_1^-1, so each of these vectors takes e_t through the operations in
    reverse, at O(1) per operation.
    """
    x = [0] * n
    x[t] = 1
    if inverse:
        for i, j, q in reversed(log):
            if q:
                y = x[j]
                if y:
                    x[i] += q * y
            else:
                x[i], x[j] = x[j], x[i]
    else:
        for i, j, q in reversed(log):
            if q:
                y = x[i]
                if y:
                    x[j] -= q * y
            else:
                x[i], x[j] = x[j], x[i]
    return x


def _dense_smith(a: list[list[int]]) -> tuple[list, list]:
    """Reduce the dense matrix ``a`` in place to Smith form; returns its logs.

    Each step t opens on the smallest nonzero absolute value in the
    remaining submatrix (with early exit on +/-1) and clears the pivot's
    column before its row (Kannan and Bachem, SIAM J. Comput. 1979).  The
    column pass reduces every row by nearest-integer division and swaps in
    the smallest remainder as the pivot, until column t is zero off row t.
    Then one round of column operations reduces row t; with column t clear,
    each changes row t alone.  A remainder left in row t is swapped in as
    the pivot column and the column pass runs again.  Divisibility of later
    diagonal entries by earlier ones is enforced by folding any offending
    row into the pivot row.

    The column goes first because callers read V columns, each a replay of
    the whole column log: this order logs one round of column operations
    per pivot (another only when row t keeps a remainder), where clearing
    the row first would log every round there.  ``smith_normal_form`` only
    hands this loop the core its unit-pivot presolve leaves.

    No transform is kept.  The row log and the column log list the
    operations in order as (i, j, q): "line i -= q * line j" for q != 0, a
    swap of lines i and j for q == 0.  A fold of row j into row t is
    (t, j, -1) and a negation of row t is (t, t, 2), which stays in the row
    log because ``_replay``'s inverse branch takes the column log to hold no
    negation.  ``_replay`` and ``SmithDecomposition.u_mul`` read the
    transforms from the logs.
    """
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    rlog: list[tuple[int, int, int]] = []
    clog: list[tuple[int, int, int]] = []

    # rows and columns before the current pivot position t are cleared, so
    # every operation at step t touches only lines t onwards
    def row_axpy(i, j, q):
        # row i -= q * row j
        ai, aj = a[i], a[j]
        for k in range(t, ncols):
            x = aj[k]
            if x:
                ai[k] -= q * x
        rlog.append((i, j, q))

    def find_pivot(t):
        best = None
        best_val = 0
        for i in range(t, nrows):
            ai = a[i]
            for j in range(t, ncols):
                x = ai[j]
                if x:
                    ax = -x if x < 0 else x
                    if best is None or ax < best_val:
                        best = (i, j)
                        best_val = ax
                        if ax == 1:
                            return best
        return best

    t = 0
    bound = min(nrows, ncols)
    while t < bound:
        piv = find_pivot(t)
        if piv is None:
            break
        i, j = piv
        while True:
            if j != t:
                for row in a[t:]:
                    row[j], row[t] = row[t], row[j]
                clog.append((j, t, 0))
            # column pass: swap row i in as the pivot row and reduce every
            # row against it, until no row keeps a remainder
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
            # row pass: column t is zero off row t, so each column operation
            # changes row t alone
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
            # force divisibility: pull a non-multiple into the pivot row
            culprit = None
            for r in range(t + 1, nrows):
                ar = a[r]
                for k in range(t + 1, ncols):
                    if ar[k] % d:
                        culprit = r
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            row_axpy(t, culprit, -1)
        if a[t][t] < 0:
            row_axpy(t, t, 2)
        t += 1
    return rlog, clog


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Basis of the lattice {x : m @ x == 0}, one basis vector per column.

    The kernel of an integer matrix is saturated (a direct summand), and the
    columns of V at zero diagonal positions form a basis of it.
    """
    return smith_normal_form(m).kernel()


# ---------------------------------------------------------------------------
# Finitely generated abelian groups
# ---------------------------------------------------------------------------


def _canonical_from_diagonal(diag: Iterable[int], ambient: int) -> tuple[int, tuple[int, ...]]:
    diag = list(diag)
    factors = tuple(x for x in diag if x >= 2)
    free = ambient - sum(1 for x in diag if x != 0)
    return free, factors


class FgAbelianGroup:
    """A finitely generated abelian group, given by generators and relations.

    ``relations`` rows are integer relations on the generators; the group
    Z^n / rowspace(relations) is put in invariant-factor form once, by Smith
    normal form.  ``invariant_factors`` are the torsion orders, each >= 2 and
    each dividing the next; ``free_rank`` counts the Z summands.  The
    canonical pair is the unique comparison key: two groups are isomorphic
    iff the pairs agree.  Ambient vectors convert to canonical coordinates
    and back.  Groups built straight from canonical data get the diagonal
    presentation, whose Smith form needs no reduction.
    """

    __slots__ = (
        "generators",
        "relations",
        "snf",
        "free_rank",
        "invariant_factors",
        "_torsion_pos",
        "_free_pos",
    )

    def __init__(
        self, generators: Sequence[str], relations: IntMatrix, snf: SmithDecomposition | None = None
    ):
        self.generators = tuple(generators)
        if relations.cols != len(self.generators):
            raise ValueError("relation matrix width must match generator count")
        self.relations = relations
        self.snf = smith_normal_form(relations) if snf is None else snf
        diag = self.snf.diagonal
        self.free_rank, factors = _canonical_from_diagonal(diag, relations.cols)
        for x, y in zip(factors, factors[1:]):
            if y % x:
                raise ValueError("invariant factors must be in divisibility order")
        self.invariant_factors = factors
        self._torsion_pos = tuple(j for j, x in enumerate(diag) if x >= 2)
        self._free_pos = tuple(
            j for j in range(relations.cols) if j >= len(diag) or diag[j] == 0
        )

    # -- constructors ------------------------------------------------------

    @classmethod
    def canonical(cls, free_rank: int, invariant_factors: Sequence[int] = ()) -> "FgAbelianGroup":
        factors = tuple(int(x) for x in invariant_factors)
        for x in factors:
            if x < 2:
                raise ValueError("invariant factors must be >= 2")
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        n = len(factors) + free_rank
        rel = IntMatrix._of(len(factors), n, tuple({i: x} for i, x in enumerate(factors)))
        # rel is already in Smith form: every transform is the identity
        snf = SmithDecomposition(len(factors), n, factors, (range(len(factors)), range(n)), ((), ()))
        return cls([f"g{i + 1}" for i in range(n)], rel, snf)

    # -- structure ---------------------------------------------------------

    @property
    def ngens(self) -> int:
        return len(self.generators)

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    @property
    def ncoords(self) -> int:
        return len(self.invariant_factors) + self.free_rank

    def canonical_pair(self) -> tuple[int, tuple[int, ...]]:
        return (self.free_rank, self.invariant_factors)

    def is_isomorphic_to(self, other: "FgAbelianGroup") -> bool:
        return self.canonical_pair() == other.canonical_pair()

    def same_as(self, other: "FgAbelianGroup") -> bool:
        """Same generators and relations, not just the same isomorphism class."""
        return self.generators == other.generators and self.relations == other.relations

    def __eq__(self, other) -> bool:
        # equality is isomorphism-class equality; presentations may differ
        return isinstance(other, FgAbelianGroup) and self.canonical_pair() == other.canonical_pair()

    def __hash__(self):
        return hash(self.canonical_pair())

    def __repr__(self):
        return f"FgAbelianGroup({format_group(self)!r})"

    # -- canonical coordinates ---------------------------------------------

    def coordinate_positions(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return self._torsion_pos, self._free_pos

    # coordinate j of a vector x is (x @ V)[j]; only the torsion and free
    # positions are read, since a unit diagonal entry constrains nothing

    def class_of(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Canonical coordinates of an ambient integer vector."""
        if len(vec) != self.ngens:
            raise ValueError("ambient vector length mismatch")
        snf = self.snf
        diag = snf.diagonal
        coords = [_dot(snf.v_col(j), vec) % diag[j] for j in self._torsion_pos]
        coords.extend(_dot(snf.v_col(j), vec) for j in self._free_pos)
        return tuple(coords)

    def generator_classes(self) -> list[tuple[int, ...]]:
        """``class_of`` of every generator's unit vector, one V column at a time."""
        snf = self.snf
        diag = snf.diagonal
        positions = self._torsion_pos + self._free_pos
        coords = [[0] * len(positions) for _ in range(self.ngens)]
        for t, j in enumerate(positions):
            d = diag[j] if t < len(self._torsion_pos) else 0
            for i, x in snf.v_col(j).items():
                coords[i][t] = x % d if d else x
        return [tuple(c) for c in coords]

    def section(self, i: int) -> tuple[int, ...]:
        """An ambient vector whose class is the i-th canonical basis element."""
        pos = (self._torsion_pos + self._free_pos)[i]
        return _dense(self.snf.vinv_row(pos), self.ngens)

    def lattice_contains(self, vec: Sequence[int]) -> bool:
        """Is ``vec`` in the row lattice of the relations?"""
        return not any(self.class_of(vec))

    def reduce_coords(self, coords: Sequence[int]) -> tuple[int, ...]:
        if len(coords) != self.ncoords:
            raise ValueError("coordinate length mismatch")
        out = []
        for i, x in enumerate(coords):
            if i < len(self.invariant_factors):
                out.append(x % self.invariant_factors[i])
            else:
                out.append(x)
        return tuple(out)


def cokernel(m: IntMatrix, generators: Sequence[str] | None = None) -> FgAbelianGroup:
    """Z^cols(m) modulo the row lattice of ``m``, presented by ``m``.

    Rows of ``m`` are relations on the ambient generators.  The result's
    ``class_of`` maps any ambient vector to canonical coordinates.
    """
    if generators is None:
        generators = tuple(f"g{i + 1}" for i in range(m.cols))
    return FgAbelianGroup(generators, m)


# ---------------------------------------------------------------------------
# Integer lattices given by generators
# ---------------------------------------------------------------------------


class ColumnLattice:
    """The sublattice of Z^n generated by the columns of a matrix."""

    __slots__ = ("matrix", "snf")

    def __init__(self, matrix: IntMatrix):
        self.matrix = matrix
        self.snf = smith_normal_form(matrix)

    @property
    def ambient_dim(self) -> int:
        return self.matrix.rows

    @property
    def rank(self) -> int:
        return self.snf.rank

    # vec is in the lattice iff (U @ vec)[i] is a multiple of the i-th diagonal
    # entry (0 past the rank) for every i; rows at unit entries always pass

    def contains(self, vec: Sequence[int]) -> bool:
        if len(vec) != self.matrix.rows:
            raise ValueError("vector length mismatch")
        snf = self.snf
        diag, rank = snf.diagonal, snf.rank
        start = diag.count(1)
        return not any((x % diag[i]) if i < rank else x for i, x in enumerate(snf.u_mul(vec, start), start))

    def solve(self, vec: Sequence[int]) -> tuple[int, ...] | None:
        """Coefficients c with matrix @ c == vec, or None if vec is outside.

        c = V @ y with y[i] = (U @ vec)[i] / d_i up to the rank.
        """
        if len(vec) != self.matrix.rows:
            raise ValueError("vector length mismatch")
        snf = self.snf
        diag = snf.diagonal
        w = snf.u_mul(vec)
        if any(w[snf.rank :]) or any(w[i] % diag[i] for i in range(snf.rank)):
            return None
        out = [0] * self.matrix.cols
        for i in range(snf.rank):
            q = w[i] // diag[i]
            if q:
                for k, x in snf.v_col(i).items():
                    out[k] += q * x
        return tuple(out)

    def equals(self, other: "ColumnLattice") -> bool:
        if self.ambient_dim != other.ambient_dim:
            return False
        return all(map(other.contains, self.matrix.columns())) and all(
            map(self.contains, other.matrix.columns())
        )


# ---------------------------------------------------------------------------
# Homomorphisms
# ---------------------------------------------------------------------------


def _preimage_lattice_rows(hom_matrix: IntMatrix, codomain: FgAbelianGroup) -> IntMatrix:
    """Generators (as rows) of {x : hom_matrix @ x in codomain relation lattice}."""
    rel_t = codomain.relations.transpose()
    stacked = hom_matrix.hstack(-rel_t)
    ker = kernel_basis(stacked)
    ngen = hom_matrix.cols
    rows = tuple({i: x for i, x in col.items() if i < ngen} for col in ker.transpose().sparse_rows)
    return IntMatrix._of(ker.cols, ngen, rows)


class GroupHom:
    """Homomorphism between presented groups.

    ``matrix`` is ngens(codomain) x ngens(domain): column j is the image of
    the j-th domain generator written in codomain generators.  The image of
    every domain relation must land in the codomain relation lattice; this is
    checked at construction (with a fast path for relations that are literal
    codomain relation rows, the common case for graph inclusions).
    """

    __slots__ = ("domain", "codomain", "matrix", "_canonical_matrix")

    def __init__(self, domain: FgAbelianGroup, codomain: FgAbelianGroup, matrix: IntMatrix):
        if matrix.cols != domain.ngens or matrix.rows != codomain.ngens:
            raise ValueError("hom matrix shape does not match the presentations")
        self.domain = domain
        self.codomain = codomain
        self.matrix = matrix
        self._canonical_matrix = None
        self._verify_well_defined()

    def _verify_well_defined(self):
        cod = self.codomain
        cod_rows = {frozenset(r.items()) for r in cod.relations.sparse_rows}
        cols = self.matrix.sparse_columns()
        for rel in self.domain.relations.sparse_rows:
            acc: dict = {}
            for k, x in rel.items():
                for i, y in cols[k].items():
                    acc[i] = acc.get(i, 0) + x * y
            image = {i: z for i, z in acc.items() if z}
            if frozenset(image.items()) in cod_rows:
                continue
            if not cod.lattice_contains(_dense(image, cod.ngens)):
                raise ValueError("hom is not well defined: a relation maps outside the lattice")

    # -- actions -----------------------------------------------------------

    def canonical_matrix(self) -> IntMatrix:
        """Action on canonical coordinates (column j = image of canonical gen j)."""
        if self._canonical_matrix is None:
            dom, cod = self.domain, self.codomain
            cols = []
            for j in range(dom.ncoords):
                sec = dom.section(j)
                img = cod.class_of(self.matrix.mat_vec(sec))
                cols.append(img)
            cols = [dict(enumerate(c)) for c in cols]
            self._canonical_matrix = IntMatrix.from_sparse_columns(cod.ncoords, cols)
        return self._canonical_matrix

    def apply_coords(self, coords: Sequence[int]) -> tuple[int, ...]:
        """Image in canonical coordinates of a canonical-coordinate element."""
        return self.codomain.reduce_coords(self.canonical_matrix().mat_vec(coords))

    # -- structure ---------------------------------------------------------

    def _cokernel_pair(self) -> tuple[int, tuple[int, ...]]:
        """Canonical pair of the codomain modulo the image."""
        stacked = self.codomain.relations.vstack(self.matrix.transpose())
        return _canonical_from_diagonal(smith_normal_form(stacked).diagonal, self.codomain.ngens)

    def is_surjective(self) -> bool:
        return self._cokernel_pair() == (0, ())

    def is_isomorphism(self) -> bool:
        # finitely generated abelian groups are Hopfian: a surjection between
        # isomorphic ones is injective
        return self.domain == self.codomain and self.is_surjective()

    def image_rank(self) -> int:
        return self.codomain.free_rank - self._cokernel_pair()[0]

    def kernel_rank(self) -> int:
        """Free rank of the kernel subgroup."""
        return self.domain.free_rank - self.image_rank()


def hom_compose(f: GroupHom, g: GroupHom) -> GroupHom:
    """g after f.  Requires f.codomain and g.domain to share a presentation."""
    if not f.codomain.same_as(g.domain):
        raise ValueError("presentation mismatch: cannot compose")
    return GroupHom(f.domain, g.codomain, g.matrix @ f.matrix)


# ---------------------------------------------------------------------------
# Colimits of chains
# ---------------------------------------------------------------------------


@dataclass
class ColimitResult:
    group: FgAbelianGroup
    stabilized: bool
    settled_index: int
    reduction: GroupHom  # groups[settled_index] -> group


def colimit_chain_detailed(
    groups: Sequence[FgAbelianGroup], homs: Sequence[GroupHom], window: int
) -> ColimitResult:
    """Direct-limit heuristic for a finite chain prefix.

    The reduced group at n is G_n modulo the kernel of the composite map
    G_n -> G_{n+window}; if the induced maps between consecutive reduced
    groups are isomorphisms along the final stretch (the last window+1 of
    them, or as many as the prefix affords), the last reduced group is
    reported with ``stabilized=True``.  A False flag means the prefix is too
    short to certify anything.

    Repeated inputs are reduced once: a window input (the presentations at i
    and i+window and the window's map matrices) equal to one met before
    reuses that reduced group, and an induced map between the same two
    reduced groups is checked once.  A chain that has settled into equal
    groups and maps costs one reduction and one check instead of window+2
    reductions and window+1 checks.
    """
    n = len(groups)
    if window < 1:
        raise ValueError("window must be >= 1")
    if len(homs) != n - 1:
        raise ValueError("need exactly len(groups)-1 homs")
    if n < window + 2:
        raise ValueError(f"chain of length {n} is too short for window {window}")
    for i, h in enumerate(homs):
        if not h.domain.same_as(groups[i]) or not h.codomain.same_as(groups[i + 1]):
            raise ValueError(f"hom {i} does not connect groups {i} -> {i + 1}")

    # only the reduced groups of the final stretch are read.  Keys are
    # compared with ==, never hashed, so a matrix in a key builds no dense view
    last = n - 1 - window
    first = last - min(window + 1, last)
    seen: list = []  # (window input, its reduced group)
    reduced: dict[int, FgAbelianGroup] = {}
    for i in range(first, last + 1):
        g, h = groups[i], groups[i + window]
        key = (g.generators, g.relations, h.generators, h.relations)
        key += tuple(f.matrix for f in homs[i : i + window])
        red = next((red for k, red in seen if k == key), None)
        if red is None:
            comp = homs[i]
            for j in range(i + 1, i + window):
                comp = hom_compose(comp, homs[j])
            red = cokernel(g.relations.vstack(_preimage_lattice_rows(comp.matrix, h)), g.generators)
            seen.append((key, red))
        reduced[i] = red

    # the reduced group at i fixes homs[i], the first map of its window, so a
    # step is fixed by the two reduced groups it joins
    steps: dict = {}
    for i in range(first, last):
        steps.setdefault((id(reduced[i]), id(reduced[i + 1])), i)
    stabilized = all(
        GroupHom(reduced[i], reduced[i + 1], homs[i].matrix).is_isomorphism() for i in steps.values()
    )

    reduction = GroupHom(groups[last], reduced[last], IntMatrix.identity(groups[last].ngens))
    return ColimitResult(reduced[last], stabilized, last, reduction)


# ---------------------------------------------------------------------------
# Group expression grammar
# ---------------------------------------------------------------------------


def parse_group_expr(text: str) -> FgAbelianGroup:
    """Parse ``term ( "+" term )*`` with term = Z | Z^k | Z/n; "0" is trivial.

    The result is normalized to invariant-factor form, so e.g. Z/2 + Z/3
    comes back as Z/6 while Z/2 + Z/4 keeps both factors.
    """
    return FgAbelianGroup.canonical(*parse_group_pair(text))


def parse_group_pair(text: str) -> tuple[int, tuple[int, ...]]:
    """The canonical pair (free rank, invariant factors) of a group expression.

    Builds no group, so a caller can bound the rank before allocating
    anything that grows with it.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty group expression")
    if s == "0":
        return 0, ()
    free = 0
    torsion: list[int] = []
    for raw in s.split("+"):
        term = raw.strip()
        if not term:
            raise ValueError(f"syntax error in group expression: {text!r}")
        if term == "Z":
            free += 1
        elif term.startswith("Z^"):
            try:
                k = int(term[2:])
            except ValueError:
                raise ValueError(f"syntax error in term {term!r}") from None
            if k < 1:
                raise ValueError(f"free power must be >= 1 in {term!r}")
            free += k
        elif term.startswith("Z/"):
            try:
                nval = int(term[2:])
            except ValueError:
                raise ValueError(f"syntax error in term {term!r}") from None
            if nval < 2:
                raise ValueError(f"torsion order must be >= 2 in {term!r}")
            torsion.append(nval)
        else:
            raise ValueError(f"syntax error in term {term!r}")
    # Z/a + Z/b is Z/gcd + Z/lcm; after every pair is replaced so, each
    # order divides the later ones and the units lead
    for i in range(len(torsion)):
        for j in range(i + 1, len(torsion)):
            g = math.gcd(torsion[i], torsion[j])
            torsion[i], torsion[j] = g, torsion[i] // g * torsion[j]
    return free, tuple(x for x in torsion if x >= 2)


def format_group(group: FgAbelianGroup) -> str:
    """Canonical text form: free part first, torsion in divisibility order."""
    terms = []
    if group.free_rank == 1:
        terms.append("Z")
    elif group.free_rank > 1:
        terms.append(f"Z^{group.free_rank}")
    terms.extend(f"Z/{n}" for n in group.invariant_factors)
    return " + ".join(terms) if terms else "0"
