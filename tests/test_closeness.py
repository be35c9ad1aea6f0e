"""Closeness against reference oracles: a plain-Python BFS over multi-order
states and networkx shortest paths on the network model.

Hop distances must match exactly; harmonic sums are compared at a relative
tolerance of 1e-12, because the search adds the reciprocals level by level
rather than in the oracles' order.
"""
from collections import defaultdict, deque

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp

from pathcent import Path, PathDataset, fit_mogen, fit_network
from pathcent import centrality
from pathcent.centrality import compute, mogen_state_scores

import generators

REL = 1e-12


# ---------------------------------------------------------------------------
# oracles


def oracle_bfs(adj: list, sources: list) -> dict:
    dist = {s: 0 for s in sources}
    queue = deque(sources)
    while queue:
        i = queue.popleft()
        for j in adj[i]:
            if j not in dist:
                dist[j] = dist[i] + 1
                queue.append(j)
    return dist


def oracle_state_adjacency(model) -> list:
    adj = [[] for _ in range(model.n_states)]
    coo = model.trans_p.tocoo()
    for i, j in zip(coo.row, coo.col):
        adj[i].append(j)
    return adj


def oracle_state_distances(model) -> dict:
    """(source state, target state) -> hop distance, sources excluded."""
    adj = oracle_state_adjacency(model)
    out = {}
    for i in range(model.n_states):
        for j, d in oracle_bfs(adj, [i]).items():
            if j != i:
                out[(i, j)] = d
    return out


def oracle_first_order_distances(model) -> dict:
    """(u, w) -> shortest distance from any state ending in u to any state
    ending in w, for w != u."""
    adj = oracle_state_adjacency(model)
    by_last = defaultdict(list)
    for i, s in enumerate(model.states):
        by_last[s[-1]].append(i)
    out = {}
    for u, sources in by_last.items():
        for i, d in oracle_bfs(adj, sources).items():
            w = model.states[i][-1]
            if w != u and ((u, w) not in out or d < out[(u, w)]):
                out[(u, w)] = d
    return out


def oracle_network_distances(model) -> dict:
    g = nx.DiGraph()
    g.add_nodes_from(model.vocabulary)
    g.add_edges_from(model.edges)
    return {
        (v, u): d
        for v, lengths in nx.all_pairs_shortest_path_length(g)
        for u, d in lengths.items()
        if u != v
    }


def harmonic(distances: dict, sources) -> dict:
    sums = {s: 0.0 for s in sources}
    for (s, _), d in distances.items():
        sums[s] += 1.0 / d
    return sums


# ---------------------------------------------------------------------------
# the routine under test, driven the way the library drives it


def searched(adj, start, groups=None) -> dict:
    out = {}
    for dist, rows, grps in centrality._first_reached(adj, start, groups):
        for r, g in zip(rows.tolist(), grps.tolist()):
            assert (r, g) not in out
            out[(r, g)] = dist
    return out


def identity(n):
    return sp.identity(n, dtype=bool, format="csr")


def first_order_start(model):
    nodes, last = np.unique([s[-1] for s in model.states], return_inverse=True)
    n = model.n_states
    start = sp.csr_matrix((np.ones(n, dtype=bool), (last, np.arange(n))), shape=(len(nodes), n))
    return nodes.tolist(), start, last


CORPORA = {
    "toy": generators.toy_dataset,
    **{f"random{s}": (lambda s=s: generators.random_small_dataset(s)) for s in range(5)},
    "order2": lambda: generators.order2_families(seed=0, n_paths=200),
    "walks": lambda: generators.first_order_walks(seed=0, n_paths=200, max_len=6),
    "cycle": lambda: PathDataset([Path(("a", "b", "c", "a", "b"))]),
    "self_loop": lambda: PathDataset([Path(("a", "a", "b")), Path(("b", "b"))]),
    "unreachable": lambda: PathDataset([Path(("a", "b")), Path(("c", "d")), Path(("e",))]),
    "single_node": lambda: PathDataset([Path(("a",)), Path(("a", "a", "a"))]),
}


def _orders():
    for name, make in CORPORA.items():
        for k in range(1, make().max_length + 1):
            yield pytest.param(name, k, id=f"{name}-k{k}")


@pytest.mark.parametrize("name", CORPORA)
def test_network(name):
    model = fit_network(CORPORA[name]())
    expected = oracle_network_distances(model)
    nodes = sorted(model.vocabulary)
    index = {v: i for i, v in enumerate(nodes)}
    adj = sp.csr_matrix(
        (np.ones(len(model.edges)), ([index[a] for a, _ in model.edges],
                                     [index[b] for _, b in model.edges])),
        shape=(len(nodes), len(nodes)),
    )
    got = searched(adj, identity(len(nodes)))
    assert {(nodes[r], nodes[c]): d for (r, c), d in got.items()} == expected
    scores = compute(model, "closeness").scores
    assert scores == pytest.approx(harmonic(expected, nodes), rel=REL, abs=0)


@pytest.mark.parametrize("name,k", list(_orders()))
def test_multi_order(name, k):
    model = fit_mogen(CORPORA[name](), k)

    expected = oracle_state_distances(model)
    assert searched(model.trans_p, identity(model.n_states)) == expected
    scores = mogen_state_scores(model, "closeness")
    oracle = harmonic(expected, range(model.n_states))
    assert scores == pytest.approx(
        {s: oracle[i] for i, s in enumerate(model.states)}, rel=REL, abs=0
    )

    expected = oracle_first_order_distances(model)
    nodes, start, last = first_order_start(model)
    got = searched(model.trans_p, start, last)
    assert {(nodes[r], nodes[g]): d for (r, g), d in got.items()} == expected
    scores = compute(model, "closeness").scores
    assert scores == pytest.approx(harmonic(expected, nodes), rel=REL, abs=0)


@pytest.mark.parametrize("cells", [1, 7, 64])
def test_batches_do_not_change_results(monkeypatch, cells):
    model = fit_mogen(CORPORA["order2"](), 3)
    per_state = mogen_state_scores(model, "closeness")
    first_order = compute(model, "closeness").scores
    monkeypatch.setattr(centrality, "_BFS_CELLS", cells)
    assert mogen_state_scores(model, "closeness") == per_state
    assert compute(model, "closeness").scores == first_order
