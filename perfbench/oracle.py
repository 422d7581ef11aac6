"""Independent reference answers for the benchmark's correctness gate.

The invariant factors here come from a separate, transform-free integer
elimination on sparse rows, written without reference to graphck's Smith
normal form.  It only has to agree with graphck on group isomorphism type,
so it keeps no unimodular transforms and is cheap enough to check every
request of a run after the timed part ends.
"""

from __future__ import annotations

from math import gcd


def relation_rows(vertices, edges, at):
    """Sparse rows ``e_u - sum of e_t(e) over edges leaving u`` for u in ``at``."""
    index = {v: i for i, v in enumerate(vertices)}
    out = {v: [] for v in vertices}
    for _, origin, terminus in edges:
        out[origin].append(terminus)
    rows = []
    for u in at:
        row = {index[u]: 1}
        for t in out[u]:
            j = index[t]
            row[j] = row.get(j, 0) - 1
        rows.append({j: x for j, x in row.items() if x})
    return rows


def smith_diagonal(rows):
    """(rank, invariant factors >= 2) of the integer matrix with these sparse rows."""
    rows = [dict(r) for r in rows if r]
    diag = []
    while rows:
        # smallest absolute entry, fewest nonzeros in its row as tie-break
        best = None
        for ri, row in enumerate(rows):
            for c, x in row.items():
                key = (abs(x), len(row))
                if best is None or key < best[0]:
                    best = (key, ri, c)
        _, ri, c = best
        prow = rows[ri]
        p = prow[c]
        clean = True
        for rj, row in enumerate(rows):
            x = row.get(c)
            if rj == ri or x is None:
                continue
            q = x // p
            for j, y in prow.items():
                z = row.get(j, 0) - q * y
                if z:
                    row[j] = z
                else:
                    row.pop(j, None)
            if c in row:
                clean = False
        rows = [r for r in rows if r]
        if not clean:
            continue
        # column c is now zero off the pivot row: column operations reduce
        # the rest of the pivot row modulo p without touching other rows
        for j in list(prow):
            if j != c:
                z = prow[j] % p
                if z:
                    prow[j] = z
                else:
                    del prow[j]
        if len(prow) == 1:
            diag.append(abs(p))
            rows.remove(prow)
    return len(diag), invariant_factors(diag)


def invariant_factors(diag):
    """Diagonal entries to divisibility-chain form via pairwise gcd/lcm."""
    d = sorted(x for x in diag if x != 1)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] * d[j] // g
    return tuple(x for x in d if x != 1)


def format_group(free, factors):
    """Same text form as graphck's group formatter: free part, then torsion."""
    terms = []
    if free == 1:
        terms.append("Z")
    elif free > 1:
        terms.append(f"Z^{free}")
    terms.extend(f"Z/{n}" for n in factors)
    return " + ".join(terms) if terms else "0"


def ktheory_answer(vertices, edges, exempt):
    """(K0 free rank, K0 invariant factors, K1 rank) of the graph's algebra."""
    vertices = sorted(vertices)
    s = [v for v in vertices if v not in exempt]
    rank, factors = smith_diagonal(relation_rows(vertices, edges, s))
    return len(vertices) - rank, factors, len(s) - rank


def les_terms(vertices, edges, exempt):
    """The five terms of the Toeplitz extension sequence, as formatted groups."""
    k0t, ft, k1t = ktheory_answer(vertices, edges, exempt)
    k0o, fo, k1o = ktheory_answer(vertices, edges, ())
    return {
        "k1_toeplitz": format_group(k1t, ()),
        "k1_full": format_group(k1o, ()),
        "ideal_k0": format_group(len(exempt), ()),
        "k0_toeplitz": format_group(k0t, ft),
        "k0_full": format_group(k0o, fo),
    }
