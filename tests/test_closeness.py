"""The searches behind closeness and network betweenness against reference
oracles: a plain-Python BFS over multi-order states, and networkx shortest
paths and Brandes betweenness on the network model.

Hop distances from the breadth-first search must match exactly; harmonic
sums and betweenness are compared at a relative tolerance of 1e-12, because
the searches add level by level rather than in the oracles' order. The
bit-set search behind every closeness runs over batches of 1 word and up.
Start sets of several states run through the search over scipy start rows
that ``model_oracles`` keeps, whose cells and path counts the library's search
yields level by level. The edge report's closeness equals that scipy search's
results bit for bit; Brandes betweenness equals a plain-Python Brandes that sums
in the library's order bit for bit, and the scipy one on sparse digraphs.
"""
from collections import defaultdict, deque
from unittest import mock

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcent import Path, PathDataset, fit_mogen, fit_network
from pathcent import centrality, models
from pathcent.centrality import _network_betweenness, compute, edge_centralities, mogen_state_scores

import generators
import model_oracles
from test_models import _fit_network_oracle, assert_network_matches_oracle, small_corpora
from vector_dicts import as_dict

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


def oracle_graph(ds):
    """The network of ``ds`` from the ``Counter`` fit, as a networkx digraph."""
    nodes, edges = _fit_network_oracle(ds)
    g = nx.DiGraph()
    g.add_nodes_from(nodes)
    g.add_edges_from(edges)
    return g


def oracle_network_distances(ds) -> dict:
    return {
        (v, u): d
        for v, lengths in nx.all_pairs_shortest_path_length(oracle_graph(ds))
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
    """(start row, group) -> the fewest hops from the row to a state of the group,
    read off the breadth-first search's levels over the CSR pattern ``adj``; a row's
    own states never count. ``start`` is an int array of source rows, searched by
    the library, or a scipy matrix whose rows are sets of states, searched by the
    oracle."""
    indptr, indices = adj
    n = len(indptr) - 1
    groups = np.arange(n) if groups is None else groups
    if isinstance(start, np.ndarray):
        levels = models._first_reached(adj, start)
    else:
        levels = model_oracles.level_cells(model_oracles.first_reached(pattern_matrix(adj), start))
    out, seen = {}, set()
    for lo, dist, src, row, _ in levels:
        for r, c in zip((src + lo).tolist(), row.tolist()):
            assert (r, c) not in seen  # each state is first seen once
            seen.add((r, c))
            out.setdefault((r, int(groups[c])), dist)
    return out


def identity(n):
    return sp.identity(n, dtype=bool, format="csr")


def pattern_matrix(adj) -> sp.csr_matrix:
    """The CSR pattern ``adj``, its ``(indptr, indices)``, as a scipy matrix of ones."""
    indptr, indices = adj
    n = len(indptr) - 1
    return sp.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n))


def first_order_start(model):
    nodes, last, _ = model.node_index
    n = model.n_states
    start = sp.csr_matrix((np.ones(n, dtype=bool), (last, np.arange(n))), shape=(len(nodes), n))
    return nodes, start, last


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
    ds = CORPORA[name]()
    model = fit_network(ds)
    assert_network_matches_oracle(model, ds)
    expected = oracle_network_distances(ds)
    nodes, adj = model.nodes, (model.indptr, model.indices)
    for start in (np.arange(len(nodes)), identity(len(nodes))):
        got = searched(adj, start)
        assert {(nodes[r], nodes[c]): d for (r, c), d in got.items()} == expected
    scores = as_dict(compute(model, "closeness"))
    assert scores == pytest.approx(harmonic(expected, nodes), rel=REL, abs=0)


@pytest.mark.parametrize("name,k", list(_orders()))
def test_multi_order(name, k):
    model = fit_mogen(CORPORA[name](), k)

    expected = oracle_state_distances(model)
    adj = (model.indptr, model.indices)
    assert searched(adj, np.arange(model.n_states)) == expected
    assert searched(adj, identity(model.n_states)) == expected
    scores = mogen_state_scores(model, "closeness")
    oracle = harmonic(expected, range(model.n_states))
    assert scores == pytest.approx(np.array(list(oracle.values())), rel=REL, abs=0)

    expected = oracle_first_order_distances(model)
    nodes, start, last = first_order_start(model)
    got = searched(adj, start, last)
    assert {(nodes[r], nodes[g]): d for (r, g), d in got.items()} == expected
    scores = as_dict(compute(model, "closeness"))
    assert scores == pytest.approx(harmonic(expected, nodes), rel=REL, abs=0)


@pytest.mark.parametrize("cells", [1, 7, 64, 2048])
def test_batches_do_not_change_results(monkeypatch, cells):
    model = fit_mogen(CORPORA["order2"](), 3)
    per_state = mogen_state_scores(model, "closeness")
    first_order = as_dict(compute(model, "closeness"))
    network = fit_network(CORPORA["walks"]())
    betweenness = as_dict(compute(network, "betweenness"))
    monkeypatch.setattr(models, "_BFS_CELLS", cells)
    monkeypatch.setattr(models, "_BATCH_WORDS", cells)
    assert np.array_equal(mogen_state_scores(model, "closeness"), per_state)
    assert as_dict(compute(model, "closeness")) == first_order
    assert as_dict(compute(network, "betweenness")) == pytest.approx(betweenness, rel=REL, abs=0)


@pytest.mark.parametrize("words", [1, 2, 3, 8])
@pytest.mark.parametrize("name", ["order2", "walks", "random3", "cycle", "self_loop"])
def test_closeness_over_batch_sizes(monkeypatch, name, words):
    """Batches of ``words`` uint64 words per row, so a batch of 64 * words
    states: order2's larger models need several."""
    ds = CORPORA[name]()
    for k in range(1, ds.max_length + 1):
        model = fit_mogen(ds, k)
        monkeypatch.setattr(models, "_BATCH_WORDS", words * model.n_states)
        oracle = harmonic(oracle_state_distances(model), range(model.n_states))
        scores = mogen_state_scores(model, "closeness")
        assert scores == pytest.approx(np.array(list(oracle.values())), rel=REL, abs=0)
        nodes = model.node_index[0]
        oracle = harmonic(oracle_first_order_distances(model), nodes)
        assert as_dict(compute(model, "closeness")) == pytest.approx(oracle, rel=REL, abs=0)


@pytest.mark.parametrize("words", [1, 2, 4])
def test_network_closeness_over_batch_sizes(monkeypatch, words):
    """A random digraph on 200 nodes: four words of node bits per row."""
    rng = np.random.default_rng(5)
    edges = {(int(a), int(b)) for a, b in rng.integers(200, size=(600, 2))}
    ds = PathDataset([Path((f"v{a}", f"v{b}")) for a, b in sorted(edges)]
                     + [Path((f"v{v}",)) for v in range(200)])
    model = fit_network(ds)
    monkeypatch.setattr(models, "_BATCH_WORDS", words * len(model.nodes))
    expected = harmonic(oracle_network_distances(ds), model.nodes)
    assert as_dict(compute(model, "closeness")) == pytest.approx(expected, rel=REL, abs=0)


# ---------------------------------------------------------------------------
# Brandes betweenness on the network model


def oracle_betweenness(ds) -> dict:
    return nx.betweenness_centrality(oracle_graph(ds), normalized=False)


@pytest.mark.parametrize("name", CORPORA)
def test_network_betweenness(name):
    ds = CORPORA[name]()
    scores = as_dict(compute(fit_network(ds), "betweenness"))
    assert scores == pytest.approx(oracle_betweenness(ds), rel=REL, abs=0)


@st.composite
def digraphs(draw):
    """Path datasets whose network is a random digraph on up to 29 nodes:
    one two-node path per edge (self-loops included) and one single-node
    path per isolated node."""
    n = draw(st.integers(1, 29))
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=3 * n))
    isolated = set(range(n)).difference(*edges)
    return PathDataset([Path((f"v{a}", f"v{b}")) for a, b in sorted(edges)]
                       + [Path((f"v{v}",)) for v in sorted(isolated)])


@settings(max_examples=150, deadline=None)
@given(digraphs(), st.sampled_from([1, 7, 64, models._BFS_CELLS]))
def test_network_betweenness_on_random_digraphs(ds, cells):
    # cells=1 searches one source row per batch
    model = fit_network(ds)
    with mock.patch.object(models, "_BFS_CELLS", cells):
        scores = as_dict(compute(model, "betweenness"))
    assert scores == pytest.approx(oracle_betweenness(ds), rel=REL, abs=0)


@settings(max_examples=150, deadline=None)
@given(digraphs(), st.sampled_from([1, 7, 64, models._BATCH_WORDS]))
def test_network_closeness_on_random_digraphs(ds, words):
    model = fit_network(ds)
    with mock.patch.object(models, "_BATCH_WORDS", words):
        scores = as_dict(compute(model, "closeness"))
    expected = harmonic(oracle_network_distances(ds), model.nodes)
    assert scores == pytest.approx(expected, rel=REL, abs=0)


@settings(max_examples=150, deadline=None)
@given(digraphs())
def test_network_betweenness_is_the_matrix_search_bit_for_bit(ds):
    """Brandes over ``(indptr, indices)`` gives the values of Brandes over the scipy
    count matrix and its start sets, at every batch size."""
    model = fit_network(ds)
    adj = model_oracles.trans_counts(model) != 0
    for cells in (1, 7, 64, models._BFS_CELLS):
        with mock.patch.object(models, "_BFS_CELLS", cells):
            got = compute(model, "betweenness").values
            assert np.array_equal(got, model_oracles.network_betweenness(adj))


@st.composite
def dense_digraphs(draw):
    """CSR patterns ``(indptr, indices)`` of random digraphs on 1 to 120 nodes, each
    edge, self-loops too, drawn with a probability of 0.02 to 0.3."""
    n, p = draw(st.integers(1, 120)), draw(st.floats(0.02, 0.3))
    rows, cols = np.nonzero(np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((n, n)) < p)
    return np.searchsorted(rows, np.arange(n + 1)), cols


@settings(max_examples=40, deadline=None)
@given(dense_digraphs(), st.sampled_from([1, 7, 64, models._BFS_CELLS]))
def test_network_betweenness_is_the_plain_brandes_bit_for_bit(adj, cells):
    """On denser digraphs, where the order of summation shows in the last bits."""
    with mock.patch.object(models, "_BFS_CELLS", cells):
        assert _network_betweenness(adj).tolist() == model_oracles.brandes(adj)


def test_a_level_expands_at_most_bfs_cells_candidates(monkeypatch):
    """On the complete digraph with self-loops, 60 nodes and 3,600 edges, 4 sources
    fit a batch of 2**14 cells: each level of the search and of Brandes' backward
    pass expands at most 4 x 3,600 entries, where all 60 sources would expand
    60 x 59 x 60 at the second level."""
    n, sizes, entries = 60, [], models._entries
    adj = np.arange(n + 1) * n, np.tile(np.arange(n), n)

    def spy(indptr, rows):
        of, at = entries(indptr, rows)
        sizes.append(len(of))
        return of, at

    monkeypatch.setattr(models, "_BFS_CELLS", 1 << 14)
    monkeypatch.setattr(models, "_entries", spy)
    monkeypatch.setattr(centrality, "_entries", spy)
    assert _network_betweenness(adj).tolist() == model_oracles.brandes(adj) == [0.0] * n
    assert max(sizes) <= 1 << 14


def assert_same_levels(adj, sources):
    """The search from ``sources`` yields, level by level, the cells and path counts
    of the scipy search from their identity rows, each level's sources ascending."""
    start = sp.identity(len(adj[0]) - 1, format="csr")[sources]
    want = list(model_oracles.level_cells(model_oracles.first_reached(pattern_matrix(adj), start)))
    got = list(models._first_reached(adj, sources))
    assert [(lo, dist) for lo, dist, *_ in got] == [(lo, dist) for lo, dist, *_ in want]
    for (_, _, *cells), (_, _, *expected) in zip(got, want):
        assert (np.diff(cells[0]) >= 0).all() and (cells[2].dtype == np.float64 or not len(cells[2]))
        assert sorted(zip(*(a.tolist() for a in cells))) == sorted(zip(*(a.tolist() for a in expected)))


@st.composite
def searches(draw):
    """A CSR pattern and source rows, repeats allowed: a random digraph's network
    model, or a MOGen fit of order 1 to 3 of paths over a/b/c (self-loops and
    single-node paths among them)."""
    if draw(st.booleans()):
        model = fit_network(draw(digraphs()))
    else:
        model = fit_mogen(draw(small_corpora()), draw(st.integers(1, 3)))
    n = len(model.indptr) - 1
    return (model.indptr, model.indices), np.array(draw(st.lists(st.integers(0, n - 1), max_size=2 * n)), int)


@settings(max_examples=150, deadline=None)
@given(searches(), st.sampled_from([1, 7, 64, models._BFS_CELLS]))
def test_search_yields_the_matrix_search_levels(search, cells):
    with mock.patch.object(models, "_BFS_CELLS", cells):
        assert_same_levels(*search)


def oracle_edge_closeness(model, rows) -> np.ndarray:
    """The edge report's closeness as it was summed over the scipy search from the
    identity rows of ``rows``."""
    out = np.zeros(len(rows))
    start = sp.identity(model.n_states, format="csr")[rows]
    for lo, dist, level in model_oracles.first_reached(model.trans_p, start):
        out[lo : lo + level.shape[0]] += np.diff(level.indptr) / dist
    return out


@pytest.mark.parametrize("cells", [1, 7, 64, models._BFS_CELLS])
@pytest.mark.parametrize("name", ["toy", "random3", "order2", "walks", "cycle", "self_loop"])
def test_edge_closeness_is_the_matrix_search_bit_for_bit(monkeypatch, name, cells):
    monkeypatch.setattr(models, "_BFS_CELLS", cells)
    ds = CORPORA[name]()
    for k in range(2, min(ds.max_length, 4) + 1):
        model = fit_mogen(ds, k)
        for min_visitation in (0.0, 0.01):
            report = edge_centralities(model, ("closeness",), min_visitation)
            assert np.array_equal(report.values["closeness"], oracle_edge_closeness(model, report.rows))
