"""Reference routines the tests share and the package does not need."""

import numpy as np

from graphck.graphs import GraphChain
from graphck.lab import MatField


def toeplitz_s_set(chain: GraphChain, n: int) -> frozenset[str]:
    """Vertices of layer n whose full out-star is contained in the layer.

    Computed against the recorded prefix edges: a finite-valence vertex is
    outside S_n while some edge from it lies in a later layer group, which
    ``GraphChain._outside_s`` reads.  Declared infinite-valence vertices are
    excluded outright (their out-star is infinite in the full graph, which no
    finite prefix can witness).
    """
    if not 0 <= n < len(chain):
        raise ValueError(f"layer index {n} out of range")
    return chain.layers[n] - chain._outside_s(n)


def scalar_field(values, dim: int) -> MatField:
    """The field whose fiber s is ``values[s]`` times the dim x dim identity."""
    eye = np.eye(dim, dtype=complex)
    return MatField([v * eye for v in values])


def neg_field(f: MatField) -> MatField:
    """The field -f, wrapping the fresh array that negation computes."""
    return MatField._of(-f.fibers)
