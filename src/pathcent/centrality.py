"""Centrality measures for network, path, and multi-order models.

Six measures: betweenness, closeness (harmonic), path end, path continuation,
path reach, and visitation. Path-end, continuation, reach, and visitation need
information about where paths start and end, so they are undefined for plain
network models.

Multi-order values are computed analytically from the model's start
distribution and fundamental matrix and can be projected to first order:
betweenness / path end / visitation project by summation over states sharing a
final node, continuation and reach by visitation-weighted averaging.

Closeness is out-direction harmonic closeness over unweighted hop distances,
computed for every model family by one sparse breadth-first search; networkx
is used only for betweenness on the network model.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import networkx as nx
import numpy as np
import scipy.sparse as sp

from .errors import DataError, UnsupportedMeasureError
from .models import MOGenModel, NetworkModel, PathModel
from .pathdata import PathDataset

MEASURES = (
    "betweenness",
    "closeness",
    "path_end",
    "path_continuation",
    "path_reach",
    "visitation",
)
#: Measures that require path start/end information.
PATH_MEASURES = frozenset(
    {"path_end", "path_continuation", "path_reach", "visitation"}
)

State = tuple[str, ...]

#: Cells of the dense seen-mask of one BFS batch (source rows x states);
#: bounds the search's memory on large models.
_BFS_CELLS = 1 << 20


@dataclass(frozen=True)
class CentralityVector:
    measure: str
    model_kind: str
    scores: dict  # first-order node -> value
    state_scores: dict | None = None  # multi-order state -> value (mogen only)


# ---------------------------------------------------------------------------
# sequence statistics on raw path data (path model and ground-truth rankings)

def sequence_scores(ds: PathDataset, measure: str, max_len: int = 1) -> dict:
    """Path-data centrality for every node sequence up to ``max_len``.

    With ``max_len=1`` these are the path-model node centralities; larger
    values score higher-order sequences by their sub-path occurrences.
    """
    if measure not in MEASURES:
        raise DataError(f"unknown measure {measure!r}")
    if measure == "closeness":
        return _sequence_closeness(ds, max_len)
    occ, end_occ, interior, reach_sum = _occurrence_stats(ds, max_len)
    if measure == "betweenness":
        return {s: float(interior[s]) for s in occ}
    if measure == "path_end":
        n = ds.total
        return {s: end_occ[s] / n for s in occ}
    if measure == "path_continuation":
        return {s: 1.0 - end_occ[s] / occ[s] for s in occ}
    if measure == "path_reach":
        return {s: reach_sum[s] / occ[s] for s in occ}
    total = sum(occ.values())
    return {s: occ[s] / total for s in occ}  # visitation


def _occurrence_stats(ds: PathDataset, max_len: int):
    occ: dict = defaultdict(int)
    end_occ: dict = defaultdict(int)
    interior: dict = defaultdict(int)
    reach_sum: dict = defaultdict(int)
    for p in ds.paths:
        nodes, w, l = p.nodes, p.multiplicity, len(p.nodes)
        for j in range(l):
            for m in range(1, min(max_len, j + 1) + 1):
                s = nodes[j - m + 1 : j + 1]
                occ[s] += w
                reach_sum[s] += w * (l - 1 - j)
                if j == l - 1:
                    end_occ[s] += w
                if j - m + 1 >= 1 and j <= l - 2:
                    interior[s] += w
    return occ, end_occ, interior, reach_sum


def subpath_distances(ds: PathDataset, max_len: int = 1) -> dict:
    """Shortest observed sub-path distance between sequence occurrences.

    The distance between sequences s and t is the minimum number of
    transitions between an occurrence of s and a later occurrence of t on the
    same path (measured between occurrence end positions).
    """
    dist: dict = {}
    for p in ds.paths:
        nodes, l = p.nodes, len(p.nodes)
        for a in range(l):
            s_opts = [nodes[a - m + 1 : a + 1] for m in range(1, min(max_len, a + 1) + 1)]
            for b in range(a + 1, l):
                d = b - a
                for t_len in range(1, min(max_len, b + 1) + 1):
                    t = nodes[b - t_len + 1 : b + 1]
                    for s in s_opts:
                        key = (s, t)
                        if key not in dist or d < dist[key]:
                            dist[key] = d
    return dist


def _sequence_closeness(ds: PathDataset, max_len: int) -> dict:
    occ, _, _, _ = _occurrence_stats(ds, max_len)
    dist = subpath_distances(ds, max_len)
    sums: dict = {s: 0.0 for s in occ}
    for (s, t), d in dist.items():
        if s != t:
            sums[s] += 1.0 / d
    return sums


# ---------------------------------------------------------------------------
# network model

def _network_betweenness(model: NetworkModel) -> dict:
    g = nx.DiGraph()
    g.add_nodes_from(sorted(model.vocabulary))
    g.add_edges_from(model.edges)
    return dict(nx.betweenness_centrality(g, normalized=False))


def _network_closeness(model: NetworkModel) -> dict:
    nodes = sorted(model.vocabulary)
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    rows = [index[a] for a, _ in model.edges]
    cols = [index[b] for _, b in model.edges]
    adj = sp.csr_matrix((np.ones(len(rows), dtype=bool), (rows, cols)), shape=(n, n))
    vals = _harmonic_closeness(adj, sp.identity(n, dtype=bool, format="csr"))
    return dict(zip(nodes, vals.tolist()))


def _first_reached(adj, start, groups=None):
    """Level-synchronous BFS over ``adj`` from the rows of the boolean CSR
    matrix ``start``, each row a set of states at distance 0.

    ``groups`` maps states to group ids (default: one group per state).
    Yields ``(dist, rows, grps)`` per level and batch: row ``rows[i]`` first
    reaches group ``grps[i]`` at ``dist`` >= 1 hops. Start states are never
    reached, so a row holding all of its own group never reports it.
    """
    adj = (adj != 0).tocsr()
    n = adj.shape[0]
    groups = np.arange(n) if groups is None else np.asarray(groups, dtype=np.int64)
    n_groups = int(groups.max()) + 1
    batch = max(1, _BFS_CELLS // n)
    for lo in range(0, start.shape[0], batch):
        frontier = start[lo : lo + batch]
        b = frontier.shape[0]
        seen = np.zeros(b * n, dtype=bool)
        reached = np.zeros(b * n_groups, dtype=bool)
        r, c = _entries(frontier)
        seen[r * n + c] = True
        dist = 0
        while frontier.nnz:
            dist += 1
            r, c = _entries(frontier @ adj)
            new = ~seen[r * n + c]
            r, c = r[new], c[new]
            seen[r * n + c] = True
            indptr = np.zeros(b + 1, dtype=np.int64)
            np.cumsum(np.bincount(r, minlength=b), out=indptr[1:])
            frontier = sp.csr_matrix((np.ones(len(c), dtype=bool), c, indptr), shape=(b, n))
            keys = r * n_groups + groups[c]
            keys = np.unique(keys[~reached[keys]])
            reached[keys] = True
            yield dist, lo + keys // n_groups, keys % n_groups


def _entries(m: sp.csr_matrix):
    """Row and column of every stored entry of ``m``, in row order."""
    rows = np.repeat(np.arange(m.shape[0], dtype=np.int64), np.diff(m.indptr))
    return rows, m.indices.astype(np.int64)


def _harmonic_closeness(adj, start, groups=None) -> np.ndarray:
    """Per start row, the sum of 1/d over every group it reaches at hop
    distance d (see :func:`_first_reached`)."""
    out = np.zeros(start.shape[0])
    for dist, rows, _ in _first_reached(adj, start, groups):
        np.add.at(out, rows, 1.0 / dist)
    return out


# ---------------------------------------------------------------------------
# multi-order model

def mogen_state_scores(
    model: MOGenModel, measure: str, literal_end_term: bool = False
) -> dict:
    """Per-state analytic centrality values.

    Betweenness is reported in expected interior-occurrence counts over the
    training dataset, matching the path-model counting convention. With
    ``literal_end_term`` the per-state absorption probability is subtracted
    directly instead of the expected number of terminations.
    """
    sf = model.expected_visits()
    r = model.end_p
    s0 = model.start_p
    if measure == "betweenness":
        if literal_end_term:
            vals = (sf - s0 - r) * model.n_paths
        else:
            vals = (sf - s0) * (1.0 - r) * model.n_paths
    elif measure == "path_end":
        vals = sf * r
    elif measure == "path_continuation":
        vals = 1.0 - r
    elif measure == "path_reach":
        vals = model.reach_totals() - 1.0
    elif measure == "visitation":
        vals = sf / sf.sum()
    elif measure == "closeness":
        n = model.n_states
        vals = _harmonic_closeness(model.trans_p, sp.identity(n, dtype=bool, format="csr"))
    else:
        raise DataError(f"unknown measure {measure!r}")
    return {s: float(vals[i]) for i, s in enumerate(model.states)}


def _mogen_fo_closeness(model: MOGenModel) -> dict:
    """First-order harmonic closeness over the multi-order topology: one
    search per node, starting from every state that ends in it."""
    nodes, last = np.unique([s[-1] for s in model.states], return_inverse=True)
    n = model.n_states
    start = sp.csr_matrix(
        (np.ones(n, dtype=bool), (last, np.arange(n))), shape=(len(nodes), n)
    )
    vals = _harmonic_closeness(model.trans_p, start, last)
    return dict(zip(nodes.tolist(), vals.tolist()))


def _project_first_order(model: MOGenModel, measure: str, state_vals: dict) -> dict:
    sf = model.expected_visits()
    sums: dict = defaultdict(float)
    weights: dict = defaultdict(float)
    for i, s in enumerate(model.states):
        v = s[-1]
        if measure in ("betweenness", "path_end"):
            sums[v] += state_vals[s]
        elif measure == "visitation":
            sums[v] += sf[i]
        else:  # continuation / reach: visitation-weighted average
            sums[v] += sf[i] * state_vals[s]
            weights[v] += sf[i]
    if measure == "visitation":
        total = sum(sums.values())
        return {v: val / total for v, val in sums.items()}
    if measure in ("betweenness", "path_end"):
        return dict(sums)
    return {v: (sums[v] / weights[v] if weights[v] > 0 else 0.0) for v in sums}


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
        if measure == "betweenness":
            return CentralityVector(measure, "network", _network_betweenness(model))
        return CentralityVector(measure, "network", _network_closeness(model))
    if isinstance(model, PathModel):
        scores = sequence_scores(model.dataset, measure, max_len=1)
        return CentralityVector(measure, "path", {s[0]: v for s, v in scores.items()})
    if isinstance(model, MOGenModel):
        if measure == "closeness":
            state_vals = None
            fo = _mogen_fo_closeness(model)
        else:
            state_vals = mogen_state_scores(model, measure)
            fo = _project_first_order(model, measure, state_vals)
        return CentralityVector(measure, "mogen", fo, state_vals)
    raise DataError(f"unsupported model type {type(model).__name__}")


@dataclass(frozen=True)
class EdgeCentralityReport:
    """Centralities of order-2 states above a visitation-share threshold."""

    min_visitation: float
    shares: dict  # order-2 state -> visitation share
    values: dict  # order-2 state -> {measure: value}

    def by_source(self, node: str) -> dict:
        return {s: v for s, v in self.values.items() if s[0] == node}

    def by_target(self, node: str) -> dict:
        return {s: v for s, v in self.values.items() if s[-1] == node}


def edge_centralities(
    model: MOGenModel,
    measures=MEASURES,
    min_visitation: float = 0.02,
) -> EdgeCentralityReport:
    """Per order-2-state centralities, filtered by total visitation share."""
    if model.order < 2:
        raise DataError("edge centralities require a model of order >= 2")
    sf = model.expected_visits()
    total = sf.sum()
    selected = {
        s: sf[i] / total
        for i, s in enumerate(model.states)
        if len(s) == 2 and sf[i] / total >= min_visitation
    }
    values: dict = {s: {} for s in selected}
    for measure in measures:
        state_vals = mogen_state_scores(model, measure)
        for s in selected:
            values[s][measure] = float(state_vals[s])
    return EdgeCentralityReport(min_visitation, selected, values)
