"""Model families fitted to path data.

Three representations of the same path dataset:

* :class:`NetworkModel` -- first-order topology: :func:`fit_network` keeps the
  order-1 fit's sorted node labels and its ``indptr``, ``indices`` and ``counts``.
* :class:`PathModel` -- the path multiset itself (lossless).
* :class:`MOGenModel` -- multi-order transition structure over states that
  remember up to K previous nodes, with an explicit start distribution and an
  absorbing end state. As an absorbing Markov chain, its fundamental matrix
  F = (I - Q)^-1 = sum Q^n gives expected state visits (Kemeny & Snell, 1960).
  Where the counts conserve flow, as every fit's do, S.F is the row totals over
  the number of paths; otherwise S.F, and always F.1, are solved by the fixed
  point x <- b + A x, or by sparse LU where that does not converge, with a
  checked residual; a chain with a state that never reaches the end, or that
  still fails, raises :class:`NumericError` (CLI exit 3). Each S.F and F.1 logs
  one DEBUG record. That end check and closeness run the bit-set search
  :func:`_closeness`; betweenness and the edge report run :func:`_first_reached`.

A model's transitions are one sorted CSR layout of numpy arrays, which the solves
and both searches read; only the ``trans_p`` view and the LU fallback load scipy.

A :class:`MOGenModel` comes from :func:`fit_mogen`, which counts with numpy on
the integer encoding and sequence codes that a corpus computes once and its
windows and split sides read, and keys each state by its code, in ``(len,
labels)`` order; or from its constructor over such rows of label ids and COO
counts; no file format. ``model.state_keys[i]``, row i's labels joined by ``|``, is
the only state-to-row key; ``model.states`` splits the keys into label tuples on first
use. Later layers hold per-state arrays over the rows and read ``model.node_index``.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DataError, NumericError
from .pathdata import END, START, PathDataset, _check_labels, _ranked

#: Row-stochasticity tolerance after normalisation.
STOCHASTIC_TOL = 1e-12
#: Largest accepted ||x - A x - b||_inf / ||x||_inf of a chain solve.
_TOL = 1e-14
#: Scores closer than this share of the largest |score| tie in the experiment's AUC;
#: solves and searches move values by far less (closeness: 4.5e-14 relative).
TIE_TOL = 1e-9
#: Fixed-point iterations before a chain solve falls back to sparse LU.
_MAX_ITER = 1000
#: Cells of one BFS batch, source rows x max(states, transitions); bounds its seen
#: slots and each level's candidates, and so the search's memory on large models.
_BFS_CELLS = 1 << 20
#: uint64 words of one closeness batch (rows x words of group bits).
_BATCH_WORDS = 1 << 17

log = logging.getLogger(__name__)

State = tuple[str, ...]


def encode_path(nodes: Sequence[str], k: int) -> list:
    """Encode a node sequence as its multi-order state walk.

    Returns ``[START, (v1,), (v1,v2), ..., sliding K-tuples ..., END]``;
    tuples grow to length ``k`` and then slide. Consecutive states of the walk
    are the transitions :func:`fit_mogen` counts, so the walk is a reference
    for its fit.
    """
    if k < 1:
        raise DataError("order must be >= 1")
    walk: list = [START]
    for i in range(len(nodes)):
        lo = max(0, i - k + 1)
        walk.append(tuple(nodes[lo : i + 1]))
    walk.append(END)
    return walk


@dataclass(frozen=True, eq=False)  # == on an array raises
class NetworkModel:
    """First-order topology: the order-1 fit's sorted CSR arrays under
    :class:`MOGenModel`'s names, over the sorted node labels; no count is 0."""

    nodes: list[str]
    indptr: np.ndarray
    indices: np.ndarray
    counts: np.ndarray


@dataclass(frozen=True)
class PathModel:
    """Lossless model: the training multiset itself."""

    dataset: PathDataset

    @cached_property
    def _nodes(self):  # the nodes' sequence statistics: one occurrence pass
        from .centrality import sequence_scores
        return sequence_scores(self.dataset, ())


class MOGenModel:
    """Multi-order model with start distribution S, transient block Q and
    absorption column R, normalised in float64 from start, transition and end
    counts of states given as ``rows``: a 2-D int array of ids into the strictly
    ascending ``labels``, one row per state, its nodes first and padded with -1.
    Transition counts come as ``(data, (row, col))`` arrays, and are summed per
    transition into one sorted CSR layout (``indptr``, ``indices``, ``counts``,
    ``probs``), dropping a sum of 0; the caller's arrays are left as they are. An
    order below 1, a label the readers reject (so none holds ``|``), malformed labels
    or rows, repeated states, counts not sized to the states, a negative or non-finite
    count, or start counts summing to 0, raise :class:`DataError`.
    A fit also sets ``codes``, its states' codes in its corpus's ranking."""

    codes: np.ndarray | None = None

    def __init__(
        self,
        order: int,
        rows: np.ndarray,
        start_counts: np.ndarray,
        transitions: tuple,
        end_counts: np.ndarray,
        labels: list[str],
    ):
        if not (isinstance(order, int) and order >= 1):
            raise DataError("order must be >= 1")
        _check_labels(labels)
        if any(a >= b for a, b in zip(labels, labels[1:])):
            raise DataError("labels must be strictly ascending")
        if not (isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype.kind == "i"):
            raise DataError("rows must be a 2-D int array")
        node, n = rows >= 0, len(rows)
        size = node.sum(axis=1)  # a fit's rows ascend in (len, labels) order: no sort
        if not (((rows >= -1) & (rows < len(labels))).all() and (size > 0).all()
                and (node[:, :-1] | ~node[:, 1:]).all()):
            raise DataError("a row must hold one or more label ids, then only -1 pads")
        self.order, self.labels, self.rows = order, labels, rows
        later, tied = size[1:] > size[:-1], size[1:] == size[:-1]
        for before, after in zip(rows[:-1].T, rows[1:].T):
            later |= tied & (after > before)
            tied &= after == before
        if not later.all():
            ranked = rows[np.lexsort(rows.T[::-1])]  # repeats adjacent
            if (ranked[1:] == ranked[:-1]).all(axis=1).any():
                raise DataError("states must be distinct")
        data, (row, col) = transitions
        row, col = np.asarray(row, np.int64), np.asarray(col, np.int64)
        if (np.shape(start_counts) != (n,) or np.shape(end_counts) != (n,)
                or not ((row >= 0) & (row < n) & (col >= 0) & (col < n)).all()):
            raise DataError(f"counts must match the {n} states")
        key = row * n + col
        by = np.argsort(key, kind="stable")
        key = key[by]
        heads = np.flatnonzero(np.diff(key, prepend=-1))
        data = np.asarray(data)[by]
        data = np.add.reduceat(data, heads, dtype=data.dtype)  # one count per transition
        kept = data != 0  # a zero count is no observed transition
        key = key[heads][kept]
        self.start_counts, self.counts, self.end_counts = start_counts, data[kept], end_counts
        self._src, self.indices = key // n, key % n  # per entry, its row and its column
        self.indptr = np.searchsorted(self._src, np.arange(n + 1))
        counts = np.concatenate([start_counts, self.counts, end_counts])
        if not ((counts >= 0) & (counts < np.inf)).all():  # NaN fails both
            raise DataError("counts must be finite and non-negative")
        self.n_paths = start_counts.sum(dtype=np.float64)  # every path starts exactly once
        if not self.n_paths > 0:
            raise DataError("start counts must sum to more than 0")

        self.start_p = start_counts / self.n_paths
        counts = self.counts.astype(np.float64)
        self._totals = self._row_sums(counts) + end_counts  # float64 for any count dtype
        if np.any(self._totals <= 0):
            raise NumericError("state with no outgoing transitions")
        self.probs = counts * np.repeat(1.0 / self._totals, np.diff(self.indptr))  # each row / its total
        self.end_p = end_counts / self._totals
        self._validate()
        self._sf: np.ndarray | None = None
        self._reach: np.ndarray | None = None
        self._absorbing = False  # set once the end search passes, or by fit_mogen

    def _row_sums(self, values: np.ndarray) -> np.ndarray:
        """Per row, the sum of its entries' ``values``, added as scipy adds a CSR row."""
        out = np.zeros(self.n_states)
        busy = np.flatnonzero(np.diff(self.indptr))
        out[busy] = np.add.reduceat(values, self.indptr[busy])
        return out

    def _validate(self):
        rows = self._row_sums(self.probs) + self.end_p
        if np.max(np.abs(rows - 1.0)) > STOCHASTIC_TOL:
            raise NumericError("transition rows are not stochastic")
        if abs(self.start_p.sum() - 1.0) > STOCHASTIC_TOL:
            raise NumericError("start distribution does not sum to 1")

    def _check_absorbing(self) -> None:
        """Raise :class:`NumericError` if a state cannot reach a state with ``end_p > 0``
        (I - Q is then singular or nearly so); the search runs once per model."""
        if not self._absorbing:
            ends = self.end_p > 0
            if not (ends | (_closeness((self.indptr, self.indices), np.where(ends, 0, -1)) > 0)).all():
                raise NumericError("non-absorbing chain: a state never reaches the end")
            self._absorbing = True

    @cached_property
    def trans_p(self):
        """Q as a scipy CSR matrix over the layout's arrays."""
        import scipy.sparse as sp  # slow to import: only this view and the LU fallback load it

        m = sp.csr_matrix((self.probs, self.indices, self.indptr), shape=(self.n_states, self.n_states))
        m.has_canonical_format = True  # sorted and summed: scipy never sorts the shared data
        return m

    @property
    def n_states(self) -> int:
        return len(self.rows)

    @property
    def state_keys(self) -> list[str]:
        """Row i's labels joined by ``|``, column by column, on each read; no label
        holds ``|``, so each key splits back into its state."""
        keys, joins = np.array(self.labels, dtype=object)[self.rows[:, 0]], np.array(["", *("|" + v for v in self.labels)], dtype=object)
        for column in self.rows[:, 1:].T:  # a pad, -1, joins ""
            keys = keys + joins[column + 1]
        return keys.tolist()

    @cached_property
    def states(self) -> tuple[State, ...]:  # row i's state as a tuple of labels
        label = dict(zip(self.labels, self.labels))  # the labels' own strings, not a copy per state
        return tuple(tuple(map(label.__getitem__, key.split("|"))) for key in self.state_keys)

    @cached_property
    def node_index(self) -> tuple[list[str], np.ndarray, np.ndarray]:
        """Sorted last-node labels; per row, its last node's id and its state length."""
        lengths = (self.rows >= 0).sum(axis=1)
        used, last = np.unique(self.rows[np.arange(len(lengths)), lengths - 1], return_inverse=True)
        return [self.labels[i] for i in used.tolist()], last, lengths

    def expected_visits(self) -> np.ndarray:
        """S . F -- expected number of visits to each state on a random path.

        Where the counts conserve flow, each state's start and in-counts summing to
        its row total as in every fit, S . F is the row totals over ``n_paths``
        exactly, once the end search has passed: each visit starts a path or follows
        a transition. Other counts are solved."""
        if self._sf is None:
            self._check_absorbing()  # a closed cycle of counts conserves flow too
            inflow = self.start_counts + np.bincount(self.indices, self.counts, self.n_states)
            if np.array_equal(inflow, self._totals):
                log.debug("S.F from the counts: %d states", self.n_states)
                self._sf = self._totals / self.n_paths
            else:
                self._sf = _solve(self, "S.F", self.start_p)
        return self._sf

    def reach_totals(self) -> np.ndarray:
        """Row sums of F: expected visits to any state before absorption."""
        if self._reach is None:
            self._reach = _solve(self, "F.1", np.ones(self.n_states))
        return self._reach

    def log_likelihood(self) -> float:
        """Log-likelihood of the training paths under the fitted probabilities."""
        ll = float(np.sum(self.start_counts * np.log(self.start_p, where=self.start_counts > 0, out=np.zeros_like(self.start_p))))
        ll += float(np.sum(self.counts * np.log(self.probs)))
        mask = self.end_counts > 0
        ll += float(np.sum(self.end_counts[mask] * np.log(self.end_p[mask])))
        return ll

    def dof(self) -> int:
        """Free transition probabilities: nonzero entries minus row constraints."""
        nnz = (
            int(np.count_nonzero(self.start_counts))
            + len(self.counts)
            + int(np.count_nonzero(self.end_counts))
        )
        return nnz - (self.n_states + 1)


def fit_network(ds: PathDataset) -> NetworkModel:
    """The order-1 fit's transition counts: every consecutive node pair."""
    m = fit_mogen(ds, 1)
    return NetworkModel(m.node_index[0], m.indptr, m.indices, m.counts)


def fit_path(ds: PathDataset) -> PathModel:
    return PathModel(ds)


def fit_mogen(ds: PathDataset, k: int) -> MOGenModel:
    """Fit a multi-order model of maximum order ``k`` by transition counting.

    The state of node i is ``nodes[max(0, i - k + 1) : i + 1]``, keyed by its code
    in the corpus ranking, so states take rows in ``(len, labels)`` order. A path
    starts in the state of its first node, ends in that of its last, and moves
    into the state of each later node from the one before, so the model is
    absorbing: every state reaches the end of a path that holds it.
    """
    labels, ids, lengths, weights = ds.encoded
    first = np.cumsum(lengths) - lengths
    pos = np.arange(len(ids)) - np.repeat(first, lengths)
    state, codes, _, rows = _keyed_rows(ids, *ds._codes(k), np.arange(len(ids)), np.minimum(pos + 1, k))
    n = len(rows)
    start = np.bincount(state[first], weights, n)
    end = np.bincount(state[first + lengths - 1], weights, n)
    step = np.flatnonzero(pos)  # every node but a path's first
    trans = np.repeat(weights, lengths - 1), (state[step - 1], state[step])
    model = MOGenModel(k, rows, start, trans, end, labels)
    model.codes, model._absorbing = codes, True
    return model


def _keyed_rows(ids: np.ndarray, codes: np.ndarray, n_codes: int, at, size):
    """Each of ``codes``' index into its distinct values (:func:`~pathcent.pathdata._ranked`
    over the ``n_codes`` codes); those values; per value an entry with it; and the ids of
    that entry's ``size`` nodes ending at its ``at``."""
    index, distinct = _ranked(codes, n_codes)
    seen = np.empty(len(distinct), np.int64)
    seen[index] = np.arange(len(codes))
    back = size[seen, None] - 1 - np.arange(int(size.max()))  # column c holds the node at - back
    rows = np.where(back >= 0, ids[at[seen, None] - back.clip(0)], -1).astype(np.int32)
    return index, distinct, seen, rows


def _solve(model: MOGenModel, system: str, b: np.ndarray) -> np.ndarray:
    """x = b + A x, with A = Q^T for ``system`` "S.F" and A = Q for "F.1".

    A x is one ``np.bincount`` over the layout's entries, which adds each row's
    products in the order scipy's CSR product adds them. The fixed point stops at
    the first x whose residual x - A x - b is within ``_TOL`` and otherwise steps
    x -= residual; at ``_MAX_ITER`` sparse LU of (I - A) takes over, checked on the
    same residual. A non-absorbing chain raises before any solve
    (:meth:`MOGenModel._check_absorbing`).
    """
    n = model.n_states
    model._check_absorbing()
    to, by = (model._src, model.indices) if system == "S.F" else (model.indices, model._src)
    p = model.probs
    x, method = np.zeros_like(b), "fixed point"
    with np.errstate(over="ignore", invalid="ignore"):  # the residual checks catch overflow
        for iterations in range(1, _MAX_ITER + 1):
            r = x - np.bincount(by, p * x[to], n) - b
            residual = np.abs(r).max()
            if residual <= _TOL * np.abs(x).max():
                break
            x -= r
        else:
            method = "LU fallback"
            import scipy.sparse as sp
            import scipy.sparse.linalg as spla

            a = model.trans_p.T.tocsr() if system == "S.F" else model.trans_p
            try:
                x = spla.splu((sp.identity(n, format="csc") - a).tocsc()).solve(b)
            except RuntimeError as exc:
                raise NumericError(f"non-absorbing chain: {exc}") from exc
            residual = np.abs(x - np.bincount(by, p * x[to], n) - b).max()
    log.debug("solved %s: %d states, %d nnz, %s, %d iterations, residual %.3g",
              system, n, len(p), method, iterations, residual)
    if not residual <= _TOL * np.abs(x).max():
        raise NumericError(f"non-absorbing chain: {system} residual {residual:.3g}")
    return x


def _entries(indptr: np.ndarray, rows: np.ndarray):
    """The entries of ``rows`` in the CSR ``indptr``, row by row: each one's index
    into ``rows``, and its position."""
    start = indptr[rows]
    size = indptr[rows + 1] - start
    of = np.repeat(np.arange(len(rows)), size)
    return of, (start - np.cumsum(size) + size)[of] + np.arange(len(of))


def _first_reached(adj, sources: np.ndarray):
    """Level-synchronous BFS over the CSR pattern ``adj``, its ``(indptr,
    indices)``, from each of the rows ``sources`` at distance 0. Yields ``(lo,
    dist, src, row, sigma)`` per level and batch of sources from ``lo``: the cells
    first seen at ``dist`` >= 1 hops, by source (index in the batch, ascending) and
    row, and ``sigma``, their shortest-path counts. A batch's last level is empty.
    A source expands each cell once, so a level has at most batch x transitions
    candidates; their positions scatter into the batch's slots, one per cell, and
    one ``np.bincount`` sums σ at the position that stuck for each unseen cell."""
    (indptr, indices), n = adj, len(adj[0]) - 1
    batch = max(1, _BFS_CELLS // max(n, len(indices)))
    for lo in range(0, len(sources), batch):
        row = sources[lo : lo + batch]
        src, sigma, dist = np.arange(len(row)), np.ones(len(row)), 0
        slot = np.full(len(row) * n, -1, np.int32)  # -1 until a cell is seen
        slot[src * n + row] = 0
        while len(row):
            dist += 1
            of, at = _entries(indptr, row)
            src, row = src[of], indices[at]
            cell, k = src * n + row, np.arange(len(of), dtype=np.int32)
            new = slot[cell] < 0
            slot[cell] = k
            at = slot[cell]
            head = (at == k) & new
            sigma = np.bincount(at, sigma[of], len(cell))[head]
            src, row = src[head], row[head]
            yield lo, dist, src, row, sigma


def _closeness(adj, group: np.ndarray, by_group: bool = False) -> np.ndarray:
    """Per row of the CSR pattern ``adj``, its ``(indptr, indices)``, or per group
    if ``by_group``, the sum of 1/d over the groups first reached at d >= 1 hops:
    row i is in group ``group[i]`` (in none if negative), and a row's own group
    never counts. A multi-source search (Then et al., PVLDB 2014): rows keep the
    groups they reach as uint64 bit sets, ``_BATCH_WORDS`` per batch (rows x words),
    and at each hop the rows that grew OR their new bits into their predecessors,
    and groups their rows' new bits. Counts per hop, over every batch, are summed
    as count / d, d ascending."""
    indptr, indices = adj
    n, n_groups = len(indptr) - 1, int(group.max(initial=-1)) + 1
    by = np.argsort(indices, kind="stable")  # the transposed pattern: each row's predecessors
    pred = np.repeat(np.arange(n), np.diff(indptr))[by]
    pred_ptr = np.searchsorted(indices[by], np.arange(n + 1))
    n_out = n_groups if by_group else n
    words = max(1, min(_BATCH_WORDS // max(n, 1), -(-n_groups // 64)))
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


def select_order(ds: PathDataset, k_max: int, fits: dict | None = None) -> int:
    """Pick the maximum order minimizing AIC over nested multi-order fits.

    AIC = 2 * dof - 2 * logL; dof counts observed nonzero transition
    probabilities minus one constraint per row. Ties go to the smaller order, so
    orders above the longest path, whose fits equal its fit, are not tried.
    Each fit goes into ``fits``, if given, under its order.
    """
    if k_max < 1:
        raise DataError("k_max must be >= 1")
    best_k, best_aic = 1, math.inf
    for k in range(1, min(k_max, ds.max_length) + 1):
        m = fit_mogen(ds, k)
        if fits is not None:
            fits[k] = m
        aic = 2.0 * m.dof() - 2.0 * m.log_likelihood()
        if aic < best_aic - 1e-9:
            best_k, best_aic = k, aic
    return best_k
