"""Centrality measures for network, path, and multi-order models.

Six measures: betweenness, closeness (harmonic), path end, path continuation,
path reach, and visitation. Path-end, continuation, reach, and visitation need
information about where paths start and end, so they are undefined for plain
network models.

Multi-order values are computed analytically from the model's start
distribution and fundamental matrix and can be projected to first order:
betweenness / path end / visitation project by summation over states sharing a
final node, continuation and reach by visitation-weighted averaging.
A vector holds the sorted first-order labels, a float64 array aligned with them and
per-state values aligned with ``model.states``; the edge report holds its order-2 rows,
ascending, and arrays read at them, and searches closeness from those rows only.

Closeness is out-direction harmonic closeness over unweighted hop distances,
searched per node and per state over bit sets of target groups
(:func:`pathcent.models._closeness`). A breadth-first search serves Brandes
betweenness and the edge report's closeness from its selected states; both searches
read a model's ``(indptr, indices)`` alone, so this module imports no scipy.

Path-model values and the experiment's ground truth are arrays over the corpus's
sequence codes (:func:`sequence_scores`; level-1 codes are label ids), counted over
every sub-path occurrence up to a maximum length. Closeness sums, exactly per sequence,
1/d over the fewest transitions d along one path from it to a later other sequence.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, UnsupportedMeasureError
from .models import MOGenModel, NetworkModel, PathModel, _closeness, _first_reached, _keyed_rows, _pattern
from .pathdata import MEASURES, PATH_MEASURES, PathDataset

#: Cells of one batch of sequence closeness pairs; bounds their memory on long paths.
_PAIR_CELLS = 1 << 14


@dataclass(frozen=True, eq=False)  # == on an array raises
class CentralityVector:
    nodes: list[str]  # the sorted first-order node labels
    values: np.ndarray  # float64, aligned with nodes
    state_scores: np.ndarray | None = None  # aligned with model.states (mogen, not closeness)


# ---------------------------------------------------------------------------
# sequence statistics on raw path data (path model and ground-truth rankings)

def sequence_scores(ds: PathDataset, measures, max_len: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """Path-data centralities of every node sequence up to ``max_len``, counted by
    ``np.bincount`` over their occurrences: the sequences' distinct codes in the
    corpus ranking, ascending (with ``max_len=1`` the label ids, so these are the
    path-model node centralities); their rows of label ids; one node of
    ``ds.encoded`` where each ends; and per measure a function of their values.
    ``measures`` are checked. Closeness of s sums 1/d over every other sequence t,
    where d is the fewest transitions from an occurrence of s to a later
    occurrence of t on one path (between occurrence end positions)."""
    for m in measures:
        if m not in MEASURES:
            raise DataError(f"unknown measure {m!r}")
    n_codes = ds._codes(max_len)[1]  # which checks max_len
    _, ids, lengths, weights = ds.encoded
    path = np.repeat(np.arange(len(lengths)), lengths)
    pos = np.arange(len(path)) - (np.cumsum(lengths) - lengths)[path]
    # one occurrence per (end node, length), level-major and by node within a level
    at = [np.flatnonzero(pos >= m) for m in range(min(max_len, int(lengths.max())))]
    code = np.concatenate([ds._codes(m)[0][a] for m, a in enumerate(at, 1)])
    size = np.repeat(np.arange(1, len(at) + 1), list(map(len, at)))
    at = np.concatenate(at)
    sid, codes, seen, rows = _keyed_rows(ids, code, n_codes, at, size)
    n, j, last, w = len(rows), pos[at], lengths[path[at]] - 1, weights[path[at]]
    occ = np.bincount(sid, w, n)
    end_occ = np.bincount(sid, w * (j == last), n)
    return codes, rows, at[seen], {
        "betweenness": lambda: np.bincount(sid, w * ((j >= size) & (j < last)), n),
        "closeness": lambda: _sequence_closeness(sid, at, at + last - j, n),
        "path_end": lambda: end_occ / ds.total,
        "path_continuation": lambda: 1.0 - end_occ / occ,
        "path_reach": lambda: np.bincount(sid, w * (last - j), n) / occ,
        "visitation": lambda: occ / occ.sum(),
    }


def _sequence_closeness(sid, at, stop, n: int) -> np.ndarray:
    """Closeness of the ``n`` sequences; an occurrence of ``sid`` ends at node ``at``
    of a path ending at ``stop``. As in a scan keeping each sequence's latest end,
    an occurrence of s at a pairs with those ending after a, up to the next of s,
    at distance node - a. Pairs come in batches of whole sequences, ``_PAIR_CELLS``
    or one sequence's (one per occurrence at most); one sort of their (s, t) codes
    keeps the fewest transitions per pair, and ``math.fsum`` sums exactly per s."""
    by_node = np.argsort(at, kind="stable")
    tsid, tnode = sid[by_node], at[by_node]
    tstart = np.searchsorted(tnode, np.arange(tnode[-1] + 2))  # targets by end node
    by_seq = np.argsort(sid, kind="stable")  # by sequence, then by node
    s, a, stop = sid[by_seq], at[by_seq], stop[by_seq]
    again = (s[1:] == s[:-1]) & (a[1:] <= stop[:-1])  # s occurs again on the path
    stop[:-1][again] = a[1:][again]
    lo, count = tstart[a + 1], tstart[stop + 1] - tstart[a + 1]
    pre = np.concatenate([[0], np.cumsum(count)])  # pairs before each occurrence
    starts = np.searchsorted(s, np.arange(n + 1))  # each sequence's first occurrence
    out, x, cum = np.zeros(n), 0, pre[starts]
    while x < n:
        y = max(x + 1, int(np.searchsorted(cum, cum[x] + _PAIR_CELLS, "right")) - 1)
        b, e = starts[x], starts[y]
        src = np.repeat(np.arange(b, e), count[b:e])
        t = np.repeat(lo[b:e] - pre[b:e], count[b:e]) + np.arange(pre[b], pre[e])
        other = tsid[t] != s[src]
        src, t = src[other], t[other]
        code = s[src] * n + tsid[t]
        order = np.argsort(code)
        code, d = code[order], (tnode[t] - a[src])[order]
        heads = np.flatnonzero(np.diff(code, prepend=-1))
        code, inv = code[heads] // n, (1.0 / np.minimum.reduceat(d, heads)).tolist()
        heads = np.flatnonzero(np.diff(code, prepend=-1))
        bounds = np.append(heads, len(code)).tolist()
        out[code[heads]] = [math.fsum(inv[i:j]) for i, j in zip(bounds, bounds[1:])]
        x = y
    return out


# ---------------------------------------------------------------------------
# network model

def _network_betweenness(adj) -> np.ndarray:
    """Brandes betweenness (unnormalised) over the CSR pattern ``adj``, its
    ``(indptr, indices)``, from the BFS levels of every source: with σ_d the
    shortest-path counts of level d, the dependencies are
    δ_d = σ_d ⊙ (((1 + δ_{d+1}) / σ_{d+1}) @ adjᵀ), summed backward over the
    levels of each batch of sources."""
    n = len(adj[0]) - 1
    adj_t = _pattern(adj, n).T.tocsr()  # built once per call
    out = np.zeros(n)
    levels = []
    for _, _, sigma in _first_reached(adj, np.arange(n)):
        if sigma.nnz:
            levels.append(sigma)
            continue
        coef = sigma  # the batch's last level is empty
        for sigma in reversed(levels):
            delta = sigma.multiply(coef @ adj_t)
            out += delta.sum(axis=0).A1
            inv = sigma.power(-1)
            coef = inv + inv.multiply(delta)
        levels = []
    return out


# ---------------------------------------------------------------------------
# multi-order model

def mogen_state_scores(model: MOGenModel, measure: str) -> np.ndarray:
    """Per-state analytic centrality values, aligned with ``model.states``.

    Betweenness is reported in expected interior-occurrence counts over the
    training dataset, matching the path-model counting convention.
    """
    sf = model.expected_visits()
    r = model.end_p
    if measure == "betweenness":
        vals = (sf - model.start_p) * (1.0 - r) * model.n_paths
    elif measure == "path_end":
        vals = sf * r
    elif measure == "path_continuation":
        vals = 1.0 - r
    elif measure == "path_reach":
        vals = model.reach_totals() - 1.0
    elif measure == "visitation":
        vals = sf / sf.sum()
    elif measure == "closeness":
        vals = _closeness((model.indptr, model.indices), np.arange(model.n_states))
    else:
        raise DataError(f"unknown measure {measure!r}")
    return vals


def _project_first_order(model: MOGenModel, measure: str, state_vals: np.ndarray) -> np.ndarray:
    last = model.node_index[1]
    if measure in ("betweenness", "path_end", "visitation"):
        return np.bincount(last, state_vals)
    sf = model.expected_visits()
    weights = np.bincount(last, sf)
    return np.divide(np.bincount(last, sf * state_vals), weights,
                     out=np.zeros_like(weights), where=weights > 0)


# ---------------------------------------------------------------------------
# public API

def compute(model, measure: str) -> CentralityVector:
    """Compute a centrality measure for any fitted model."""
    if measure not in MEASURES:
        raise DataError(f"unknown measure {measure!r}")
    if isinstance(model, NetworkModel):
        if measure in PATH_MEASURES:
            raise UnsupportedMeasureError(
                f"{measure} cannot be computed for a network model"
            )
        adj = (model.indptr, model.indices)
        vals = _network_betweenness(adj) if measure == "betweenness" else _closeness(adj, np.arange(len(model.nodes)))
        return CentralityVector(model.nodes, vals)
    if isinstance(model, PathModel):
        codes, _, _, value = model._nodes  # counted once for every measure; codes are label ids
        labels = model.dataset.encoded[0]
        return CentralityVector([labels[i] for i in codes.tolist()], value[measure]())
    if isinstance(model, MOGenModel):
        if measure == "closeness":  # a node's group holds the states ending in it
            state_vals = None
            vals = _closeness((model.indptr, model.indices), model.node_index[1], by_group=True)
        else:
            state_vals = mogen_state_scores(model, measure)
            vals = _project_first_order(model, measure, state_vals)
        return CentralityVector(model.node_index[0], vals, state_vals)
    raise DataError(f"unsupported model type {type(model).__name__}")


@dataclass(frozen=True, eq=False)
class EdgeCentralityReport:
    """Centralities of order-2 states above a visitation-share threshold."""

    rows: np.ndarray  # the selected order-2 rows of the model, ascending
    shares: np.ndarray  # visitation share, aligned with rows
    values: dict  # measure -> array aligned with rows


def edge_centralities(
    model: MOGenModel,
    measures=MEASURES,
    min_visitation: float = 0.02,
) -> EdgeCentralityReport:
    """Per order-2-state centralities, filtered by total visitation share;
    closeness is searched only from the selected states."""
    if model.order < 2:
        raise DataError("edge centralities require a model of order >= 2")
    sf = model.expected_visits()
    shares = sf / sf.sum()
    rows = np.flatnonzero((shares >= min_visitation) & (model.node_index[2] == 2))
    columns = {m: np.zeros(len(rows)) if m == "closeness" else mogen_state_scores(model, m)[rows] for m in measures}
    if "closeness" in columns and len(rows):  # summed as _closeness sums, d ascending
        for lo, dist, level in _first_reached((model.indptr, model.indices), rows):
            columns["closeness"][lo : lo + level.shape[0]] += np.diff(level.indptr) / dist
    return EdgeCentralityReport(rows, shares[rows], columns)
