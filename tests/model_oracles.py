"""Model forms and graph searches that the library no longer has, kept as test
helpers and oracles.

``build`` makes a :class:`MOGenModel` from label tuples and transition counts given
as a scipy sparse matrix or as ``(data, (row, col))`` arrays, as the constructor
once took them: it derives the sorted labels and the padded rows and passes the
counts as COO arrays. ``trans_counts`` rebuilds the count matrix of a model's sorted
CSR layout, for a MOGen or a network model.

``first_reached`` and ``network_betweenness`` are the searches as they ran on scipy
matrices: a breadth-first search from start sets, the rows of a CSR matrix, over
the nonzero pattern of any square matrix, and Brandes betweenness over it.
"""
import numpy as np
import scipy.sparse as sp

from pathcent import MOGenModel


def build(order, states, start_counts, transitions, end_counts) -> MOGenModel:
    """The model of ``states``, label tuples, over the transition counts
    ``transitions``: a scipy sparse matrix or ``(data, (row, col))`` arrays."""
    states = [tuple(s) for s in states]
    labels = sorted({v for s in states for v in s})
    ids, width = {v: i for i, v in enumerate(labels)}, max(map(len, states), default=1)
    rows = np.array([[ids[v] for v in s] + [-1] * (width - len(s)) for s in states],
                    dtype=np.int32).reshape(-1, width)
    if sp.issparse(transitions):
        coo = transitions.tocoo()
        transitions = coo.data, (coo.row, coo.col)
    return MOGenModel(order, rows, start_counts, transitions, end_counts, labels)


def trans_counts(model) -> sp.csr_matrix:
    """The transition counts of ``model``'s ``indptr``, ``indices`` and ``counts`` as
    a sorted scipy CSR matrix over copies of them."""
    n = len(model.indptr) - 1
    return sp.csr_matrix((model.counts, model.indices, model.indptr), shape=(n, n), copy=True)


def first_reached(adj, start):
    """Level-synchronous BFS over ``adj`` from the rows of the CSR matrix
    ``start``, each row a set of states at distance 0. Yields ``(lo, dist,
    level)`` per level and batch of start rows from ``lo``: ``level`` (batch rows
    x states) counts the shortest paths to each state first seen at ``dist`` >= 1
    hops. A batch's last level is empty. Batches hold ``models._BFS_CELLS`` cells,
    read at each call."""
    from pathcent import models

    adj = (adj != 0).astype(float).tocsr()
    n = adj.shape[0]
    batch = max(1, models._BFS_CELLS // n)
    for lo in range(0, start.shape[0], batch):
        frontier = start[lo : lo + batch].astype(float)
        b, dist = frontier.shape[0], 0
        seen = np.zeros(b * n, dtype=bool)
        while frontier.nnz:
            seen[np.repeat(np.arange(b) * n, np.diff(frontier.indptr)) + frontier.indices] = True
            dist += 1
            paths = frontier @ adj
            cells = np.repeat(np.arange(b) * n, np.diff(paths.indptr)) + paths.indices
            new = ~seen[cells]
            indptr = np.concatenate([[0], np.cumsum(np.bincount(cells[new] // n, minlength=b))])
            frontier = sp.csr_matrix((paths.data[new], paths.indices[new], indptr), shape=(b, n))
            yield lo, dist, frontier


def network_betweenness(adj) -> np.ndarray:
    """Brandes betweenness (unnormalised) over the nonzero pattern of ``adj`` from
    the levels of :func:`first_reached` from every source."""
    out = np.zeros(adj.shape[0])
    levels = []
    for _, _, sigma in first_reached(adj, sp.identity(adj.shape[0], format="csr")):
        if sigma.nnz:
            levels.append(sigma)
            continue
        coef = sigma  # the batch's last level is empty
        for sigma in reversed(levels):
            delta = sigma.multiply(coef @ adj.T)
            out += delta.sum(axis=0).A1
            inv = sigma.power(-1)
            coef = inv + inv.multiply(delta)
        levels = []
    return out
