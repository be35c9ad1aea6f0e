"""Model fitting: encoding, transition counting, block structure, AIC order
selection, and the constructor's count checks."""
import functools
import logging
import time
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcent import (
    DataError,
    MOGenModel,
    NumericError,
    Path,
    PathDataset,
    encode_path,
    fit_mogen,
    fit_network,
    fit_path,
    select_order,
)
from pathcent import models
from pathcent.centrality import MEASURES, compute, mogen_state_scores, sequence_scores
from pathcent.experiment import split
from pathcent import pathdata
from pathcent.pathdata import END, START, _ranked, rolling_windows

import generators
import ranking_oracles
import solver_oracles
from model_oracles import build, trans_counts
from ranking_oracles import scored_sequences
from test_pathdata import _timestamped


class TestEncodePath:
    def test_k3_growing_then_sliding(self):
        walk = encode_path(["A", "C", "D", "E"], 3)
        assert walk == [
            START,
            ("A",),
            ("A", "C"),
            ("A", "C", "D"),
            ("C", "D", "E"),
            END,
        ]

    def test_k1_matches_first_order_transitions(self):
        nodes = ["A", "C", "D", "E"]
        walk = encode_path(nodes, 1)
        transitions = [
            (a[0], b[0]) for a, b in zip(walk[1:-2], walk[2:-1])
        ]
        assert transitions == list(zip(nodes, nodes[1:]))

    def test_k_larger_than_path(self):
        walk = encode_path(["A", "B"], 5)
        assert walk == [START, ("A",), ("A", "B"), END]

    def test_single_node(self):
        assert encode_path(["A"], 2) == [START, ("A",), END]

    def test_invalid_order(self):
        with pytest.raises(DataError):
            encode_path(["A"], 0)


#: No transition counts, as ``(data, (row, col))`` arrays.
NO_TRANSITIONS = (np.zeros(0), (np.zeros(0, np.int64), np.zeros(0, np.int64)))


def _fit_network_oracle(ds):
    """The network fit as a ``Counter`` over label pairs: the sorted labels of
    ``ds.paths`` and ``{(source, target): count}`` of every consecutive pair."""
    edges: Counter = Counter()
    for p in ds.paths:
        for a, b in zip(p.nodes, p.nodes[1:]):
            edges[(a, b)] += p.multiplicity
    return sorted({v for p in ds.paths for v in p.nodes}), dict(edges)


def assert_network_matches_oracle(model, ds):
    """``model.nodes``, ``indptr``, ``indices`` and ``counts`` hold the oracle's labels
    and counts in sorted CSR order, without zeros."""
    nodes, edges = _fit_network_oracle(ds)
    assert model.nodes == nodes
    assert len(model.indptr) == len(nodes) + 1 and model.indptr[0] == 0
    assert len(model.indices) == len(model.counts) == model.indptr[-1]
    rows = np.repeat(np.arange(len(nodes)), np.diff(model.indptr))
    assert np.all(np.diff(rows * len(nodes) + model.indices) > 0)  # sorted within rows, no repeat
    assert np.all(model.counts != 0)
    got = {(nodes[i], nodes[j]): c for i, j, c in zip(rows, model.indices, model.counts.tolist())}
    assert got == edges


class TestFitNetwork:
    def test_edge_counts_include_multiplicity(self):
        ds = PathDataset([Path(("a", "b", "c"), 2), Path(("b", "c"), 1)])
        model = fit_network(ds)
        assert model.nodes == ["a", "b", "c"]
        assert trans_counts(model).toarray().tolist() == [[0, 2, 0], [0, 0, 3], [0, 0, 0]]
        assert_network_matches_oracle(model, ds)

    @settings(max_examples=100, deadline=None)
    @given(_timestamped, st.integers(1, 25), st.integers(1, 25), st.floats(0.1, 0.9),
           st.integers(0, 2**16))
    def test_corpora_and_row_subsets_match_oracle(self, paths, length, shift, fraction, seed):
        """Windows and split sides keep their corpus's labels in the encoding;
        the network holds only the nodes of their own paths."""
        ds = PathDataset(paths)
        subsets = [ds] + [w.dataset for w in rolling_windows(ds, length, shift) if not w.empty]
        try:
            subsets += split(ds, fraction, seed)
        except DataError:
            pass  # fewer than 2 path instances, or no non-degenerate draw
        for sub in subsets:
            model = fit_network(sub)
            assert model.nodes == sorted(sub.vocabulary)
            assert_network_matches_oracle(model, sub)

    @settings(max_examples=100, deadline=None)
    @given(_timestamped, st.integers(1, 25), st.integers(1, 25), st.floats(0.1, 0.9),
           st.integers(0, 2**16))
    def test_network_is_the_order_1_fit(self, paths, length, shift, fraction, seed):
        """The network holds the order-1 fit's arrays, and its closeness is that fit's
        per-state closeness and its first-order closeness, bit for bit."""
        for sub in _subsets(PathDataset(paths), length, shift, fraction, seed):
            network, fit = fit_network(sub), fit_mogen(sub, 1)
            for name in ("indptr", "indices", "counts"):
                got, want = getattr(network, name), getattr(fit, name)
                assert got.dtype == want.dtype and np.array_equal(got, want)
            closeness = compute(network, "closeness").values
            assert np.array_equal(closeness, mogen_state_scores(fit, "closeness"))
            assert np.array_equal(closeness, compute(fit, "closeness").values)

    def test_hub_with_many_successors(self):
        ds = PathDataset([Path(("hub", f"v{i}")) for i in range(20_000)])
        model = fit_network(ds)
        assert np.diff(model.indptr)[model.nodes.index("hub")] == 20_000
        assert_network_matches_oracle(model, ds)


def _fit_mogen_oracle(ds, k):
    """The multi-order fit as a walk over encoded states: counts every pair
    of consecutive states of ``encode_path``."""
    start_c, trans_c, end_c = Counter(), Counter(), Counter()
    for p in ds.paths:
        walk = encode_path(p.nodes, k)
        start_c[walk[1]] += p.multiplicity
        end_c[walk[-2]] += p.multiplicity
        for a, b in zip(walk[1:-2], walk[2:-1]):
            trans_c[(a, b)] += p.multiplicity
    states = sorted(set(start_c) | set(end_c) | {s for pair in trans_c for s in pair},
                    key=lambda s: (len(s), s))
    index = {s: i for i, s in enumerate(states)}
    n = len(states)
    start, end = np.zeros(n), np.zeros(n)
    for s, c in start_c.items():
        start[index[s]] = c
    for s, c in end_c.items():
        end[index[s]] = c
    rows = [index[a] for a, _ in trans_c]
    cols = [index[b] for _, b in trans_c]
    trans = sp.csr_matrix((list(map(float, trans_c.values())), (rows, cols)), shape=(n, n))
    return build(k, states, start, trans, end)


def assert_same_fit(got, want):
    assert got.states == want.states
    assert np.array_equal(got.start_counts, want.start_counts)
    assert np.array_equal(got.end_counts, want.end_counts)
    assert np.array_equal(trans_counts(got).toarray(), trans_counts(want).toarray())
    assert got.log_likelihood() == want.log_likelihood()
    assert got.dof() == want.dof()


@st.composite
def small_corpora(draw):
    """Paths over a/b/c of 1-9 nodes, multiplicities 1-4; optional start
    times keep equal node sequences as separate paths."""
    paths = draw(st.lists(
        st.tuples(st.text("abc", min_size=1, max_size=9), st.integers(1, 4),
                  st.none() | st.integers(0, 2)),
        min_size=1, max_size=12,
    ))
    return PathDataset([Path(tuple(nodes), m, t) for nodes, m, t in paths])


def _tuple_fit_oracle(ds, k):
    """The fit that kept its states as tuples: each distinct level key's state
    sliced from the nodes of a path where it occurs, given to the constructor."""
    _, _, lengths, weights = ds.encoded
    first, path, pos, levels = ranking_oracles.sequence_levels(ds, k)
    key = np.empty_like(pos)
    for at, level_key in levels:
        key[at] = level_key
    _, seen, state = np.unique(key, return_index=True, return_inverse=True)
    seqs = [p.nodes for p in ds.paths]
    size = np.minimum(pos + 1, k)
    states = [seqs[i][j - m + 1 : j + 1]
              for i, j, m in zip(path[seen].tolist(), pos[seen].tolist(), size[seen].tolist())]
    n = len(states)
    step = np.flatnonzero(pos)
    trans = sp.csr_matrix((weights[path[step]], (state[step - 1], state[step])), shape=(n, n))
    return build(k, states, np.bincount(state[first], weights, n),
                 trans, np.bincount(state[first + lengths - 1], weights, n))


def _node_index_oracle(states) -> tuple:
    """Sorted last-node labels, each state's last-node id and length, from tuples."""
    ends = [s[-1] for s in states]
    ids = {v: i for i, v in enumerate(sorted(set(ends)))}
    return list(ids), [ids[v] for v in ends], [len(s) for s in states]


def _sides(ds, fraction, seed) -> tuple:
    """The split sides of ``ds``, or none where no draw succeeds."""
    try:
        return split(ds, fraction, seed)
    except DataError:
        return ()  # fewer than 2 path instances, or no non-degenerate draw


def _subsets(ds, length, shift, fraction, seed) -> list:
    """``ds``, its non-empty windows and, where a draw succeeds, its split sides."""
    windows = [w.dataset for w in rolling_windows(ds, length, shift) if not w.empty]
    return [ds, *windows, *_sides(ds, fraction, seed)]


class TestOneRankingPerCorpus:
    """Fits and sequence values read the corpus ranking, extended level by level
    as orders are asked for; they equal those of the per-call ranking on
    corpora, their windows and their split sides, in either order of requests."""

    @settings(max_examples=100, deadline=None)
    @given(_timestamped, st.integers(1, 7), st.booleans(), st.integers(1, 25), st.integers(1, 25),
           st.floats(0.1, 0.9), st.integers(0, 2**16))
    def test_fits_and_values_match_the_per_call_ranking(self, paths, k_max, descending, length,
                                                        shift, fraction, seed):
        ds = PathDataset(paths)
        orders = sorted(range(1, k_max + 1), reverse=descending)
        subsets = _subsets(ds, length, shift, fraction, seed)
        for k in orders:
            for sub in subsets:
                got = fit_mogen(sub, k)
                assert_same_fit(got, _tuple_fit_oracle(sub, k))
                names = ranking_oracles.code_names(sub, k)
                assert [names[c] for c in got.codes.tolist()] == list(got.states)
                seqs, rows, want = ranking_oracles.sequence_values(sub, k)
                _, got_rows, at, value = sequence_scores(sub, MEASURES, k)
                assert np.array_equal(got_rows, rows)
                assert all(np.array_equal(value[m](), want[m]) for m in MEASURES)
                # one node where each sequence ends
                labels, ids, _, _ = sub.encoded
                assert [tuple(labels[i] for i in ids[a - len(s) + 1 : a + 1]) for a, s in
                        zip(at.tolist(), seqs)] == seqs
        levels, ends = ds.__dict__["_ranking"]
        assert len(levels) == min(k_max, ds.max_length)  # ranked once, to the highest order asked
        assert all(level.dtype == np.int32 for level in levels)
        assert not any("_ranking" in sub.__dict__ for sub in subsets[1:])  # subsets hold no copy

    @settings(max_examples=100, deadline=None)
    @given(_timestamped, st.integers(1, 5), st.integers(1, 25), st.integers(1, 25),
           st.floats(0.1, 0.9), st.integers(0, 2**16))
    def test_sequence_codes_list_every_level(self, paths, k, length, shift, fraction, seed):
        """``sequence_scores`` keys the sequences by the distinct codes of levels 1..k
        at the nodes (the path model's key listing), on corpora, windows, split sides
        and split sides of windows; its rows and end nodes name what the codes name."""
        ds = PathDataset(paths)
        subsets = _subsets(ds, length, shift, fraction, seed)
        subsets += [side for w in rolling_windows(ds, length, shift) if not w.empty
                    for side in _sides(w.dataset, fraction, seed)]
        for sub in subsets:
            codes, rows, at, _ = sequence_scores(sub, (), k)
            listing = np.unique(np.concatenate([sub._codes(m)[0] for m in range(1, k + 1)]))
            assert codes.tolist() == listing.tolist()
            names, (labels, ids, _, _) = ranking_oracles.code_names(sub, k), sub.encoded
            seqs = [names[c] for c in codes.tolist()]
            assert [tuple(labels[i] for i in r if i >= 0) for r in rows.tolist()] == seqs
            assert [tuple(labels[i] for i in ids[a - len(s) + 1 : a + 1]) for a, s in
                    zip(at.tolist(), seqs)] == seqs

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 300), max_size=60), st.integers(0, 3000))
    def test_mask_and_sort_rank_alike(self, keys, extra):
        """``_ranked`` masks the key space or, for keys far fewer than it, sorts;
        either way it gives ``np.unique``'s distinct keys and inverse."""
        keys = np.array(keys, dtype=np.int32)
        space = int(keys.max(initial=-1)) + 1 + extra
        distinct, index = np.unique(keys, return_inverse=True)
        got_index, got_distinct = _ranked(keys, space)
        assert got_distinct.tolist() == distinct.tolist() and got_index.tolist() == index.tolist()

    @pytest.mark.parametrize("sort_below", [0, 10**9])  # always mask, always sort
    def test_fits_and_values_match_by_mask_and_by_sort(self, sort_below, monkeypatch):
        monkeypatch.setattr(pathdata, "_SORT_BELOW", sort_below)
        ds = generators.smell_corpus()  # ranked afresh under the patched threshold
        for sub in [ds] + [w.dataset for w in rolling_windows(ds, 100, 50) if not w.empty]:
            for k in (3, 1, 2):
                assert_same_fit(fit_mogen(sub, k), _tuple_fit_oracle(sub, k))
                _, rows, want = ranking_oracles.sequence_values(sub, k)
                _, got_rows, _, value = sequence_scores(sub, MEASURES, k)
                assert np.array_equal(got_rows, rows)
                assert all(np.array_equal(value[m](), want[m]) for m in MEASURES)

    @settings(max_examples=100, deadline=None)
    @given(_timestamped, st.integers(1, 6))
    def test_codes_number_the_sequences_in_len_labels_order(self, paths, k):
        ds = PathDataset(paths)
        names = ranking_oracles.code_names(ds, k)
        assert sorted(names) == list(range(len(names)))
        assert [names[c] for c in sorted(names)] == sorted(names.values(), key=lambda s: (len(s), s))
        assert ds._codes(k)[1] == len(names)
        assert ds._codes(1)[0].tolist() == ds.encoded[1].tolist()  # level 1 is the label ids


class TestStatesAsRows:
    """A fitted model holds label-id rows; its tuple view and ``node_index``
    equal those of the tuple fit, on corpora, their windows and split sides."""

    @settings(max_examples=100, deadline=None)
    @given(_timestamped, st.integers(1, 6), st.integers(1, 25), st.integers(1, 25),
           st.floats(0.1, 0.9), st.integers(0, 2**16))
    def test_rows_match_the_tuple_fit(self, paths, k, length, shift, fraction, seed):
        for sub in _subsets(PathDataset(paths), length, shift, fraction, seed):
            got, want = fit_mogen(sub, k), _tuple_fit_oracle(sub, k)
            assert_same_fit(got, want)
            assert got.labels is sub.encoded[0]  # the corpus's labels, not a copy
            nodes, last, lengths = got.node_index
            assert (nodes, last.tolist(), lengths.tolist()) == _node_index_oracle(want.states)
            assert (nodes, last.tolist(), lengths.tolist()) == _node_index_oracle(got.states)
            assert models._state_keys(got.labels, got.rows, "|") == ["|".join(s) for s in got.states]

    @pytest.mark.parametrize("corpus", [
        lambda: generators.order2_families(seed=2, n_paths=300),
        lambda: generators.first_order_walks(seed=1, n_paths=300),
        generators.smell_corpus,
    ])
    def test_generator_corpora(self, corpus):
        ds = corpus()
        for k in range(1, 6):
            got, want = fit_mogen(ds, k), _tuple_fit_oracle(ds, k)
            assert_same_fit(got, want)
            assert got.rows.dtype == np.int32 and got.rows.shape == (got.n_states, min(k, ds.max_length))
            nodes, last, lengths = got.node_index
            assert (nodes, last.tolist(), lengths.tolist()) == _node_index_oracle(want.states)

    def test_constructor_rows_follow_the_given_tuples(self):
        model = build(2, [("b", "a"), ("c",), ("a",)], np.array([1.0, 0.0, 1.0]),
                      sp.csr_matrix(([1.0, 1.0], ([0, 2], [2, 1])), shape=(3, 3)),
                      np.array([1.0, 1.0, 0.0]))
        assert model.labels == ["a", "b", "c"]
        assert model.rows.tolist() == [[1, 0], [2, -1], [0, -1]]
        assert model.states == (("b", "a"), ("c",), ("a",))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=3).map(tuple), min_size=1, max_size=8),
           st.booleans())
    def test_repeats_are_found_in_any_row_order(self, states, ordered):
        """Rows in ``(len, labels)`` order, as a fit gives them, skip the sort; any
        repeat, in that order or another, is a data error."""
        if ordered:
            states = sorted(states, key=lambda s: (len(s), s))
        rows = np.array([list(s) + [-1] * (3 - len(s)) for s in states], dtype=np.int32)
        n, trans = len(states), NO_TRANSITIONS
        if len(set(states)) < n:
            with pytest.raises(DataError, match="distinct"):
                MOGenModel(1, rows, np.ones(n), trans, np.ones(n), labels=["a", "b", "c"])
        else:
            assert MOGenModel(1, rows, np.ones(n), trans, np.ones(n), labels=["a", "b", "c"]).n_states == n

    def test_repeated_rows_are_data_error(self):
        trans = NO_TRANSITIONS
        with pytest.raises(DataError, match="distinct"):
            MOGenModel(1, np.array([[0, -1], [0, -1]], dtype=np.int32), np.ones(2), trans, np.ones(2),
                       labels=["a"])
        for rows in ([[0, -1], [1, -1], [0, -1]], [[0, 1], [0, -1], [0, 1]], [[0, -1], [0, 1], [0, 1]]):
            with pytest.raises(DataError, match="distinct"):  # a repeat, adjacent or not, in any order
                MOGenModel(1, np.array(rows, dtype=np.int32), np.ones(3), trans, np.ones(3), labels=["a", "b"])
        with pytest.raises(DataError, match="distinct"):
            build(1, [("a",), ("b",), ("a",)], np.ones(3), trans, np.ones(3))
        model = MOGenModel(1, np.array([[0, -1], [0, 1]], dtype=np.int32), np.ones(2), trans, np.ones(2),
                           labels=["a", "b"])
        assert model.states == (("a",), ("a", "b"))


class TestFitMatchesWalkOracle:
    @settings(max_examples=200, deadline=None)
    @given(small_corpora(), st.integers(1, 7))
    def test_random_corpora(self, ds, k):
        assert_same_fit(fit_mogen(ds, k), _fit_mogen_oracle(ds, k))

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    @pytest.mark.parametrize("corpus", [
        generators.toy_dataset,
        lambda: generators.order2_families(seed=2, n_paths=300),
        lambda: generators.first_order_walks(seed=1, n_paths=300),
        lambda: generators.random_small_dataset(3),
        generators.smell_corpus,
    ])
    def test_generator_corpora(self, corpus, k):
        ds = corpus()
        assert_same_fit(fit_mogen(ds, k), _fit_mogen_oracle(ds, k))

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.integers(1, 7))
    def test_large_vocabulary(self, data, k):
        # labels v0..v299 sort as strings (v10 < v9), not as numbers; a drawn
        # vocabulary size makes both repeated and all-distinct states likely;
        # counts up to 10**12 sum exactly in float64, not in float32
        size = data.draw(st.integers(1, 300))
        label = st.integers(0, size - 1).map("v{}".format)
        paths = data.draw(st.lists(
            st.tuples(st.lists(label, min_size=1, max_size=30), st.integers(1, 10**12),
                      st.none() | st.integers(0, 3)),
            min_size=1, max_size=40,
        ))
        ds = PathDataset([Path(tuple(nodes), m, t) for nodes, m, t in paths])
        assert_same_fit(fit_mogen(ds, k), _fit_mogen_oracle(ds, k))


class TestEncoding:
    def test_ids_follow_label_order(self):
        ds = PathDataset([Path(("v9", "v10", "v9"), 2), Path(("b",), 5)])
        labels, nodes, lengths, weights = ds.encoded
        assert labels == ["b", "v10", "v9"]
        assert nodes.tolist() == [0, 2, 1, 2]  # b < v10 < v9
        assert lengths.tolist() == [1, 3]
        assert weights.tolist() == [5.0, 2.0]

    def test_encoded_once_per_dataset(self, monkeypatch):
        calls = []

        def counted(ds):
            calls.append(ds)
            return encoded(ds)

        encoded = PathDataset.encoded.func
        prop = functools.cached_property(counted)
        prop.__set_name__(PathDataset, "encoded")
        monkeypatch.setattr(PathDataset, "encoded", prop)
        ds = generators.order2_families(seed=2, n_paths=300)
        first = fit_mogen(ds, 2)
        assert select_order(ds, 3) >= 1
        assert_same_fit(fit_mogen(ds, 2), first)
        assert calls == [ds]


class TestFitMOGen:
    def test_toy_states(self):
        model = fit_mogen(generators.toy_dataset(), 2)
        expected = {
            ("A",), ("B",), ("A", "C"), ("B", "C"), ("C", "D"),
            ("D", "E"), ("D", "F"),
        }
        assert set(model.states) == expected

    def test_start_and_end_probabilities(self):
        model = fit_mogen(generators.toy_dataset(), 2)
        i_a = model.states.index(("A",))
        assert model.start_p[i_a] == pytest.approx(0.5)
        i_de = model.states.index(("D", "E"))
        assert model.end_p[i_de] == pytest.approx(1.0)

    def test_rows_are_stochastic(self):
        model = fit_mogen(generators.order2_families(seed=3, n_paths=200), 2)
        rows = np.asarray(model.trans_p.sum(axis=1)).ravel() + model.end_p
        assert np.max(np.abs(rows - 1.0)) < 1e-12

    def test_branching_transition_probability(self):
        ds = PathDataset([
            Path(("a", "b", "c"), 3),
            Path(("a", "b", "d"), 1),
        ])
        model = fit_mogen(ds, 1)
        i_b, i_c = model.states.index(("b",)), model.states.index(("c",))
        assert model.trans_p[i_b, i_c] == pytest.approx(0.75)

    def test_expected_visits_on_toy(self):
        model = fit_mogen(generators.toy_dataset(), 2)
        sf = model.expected_visits()
        # every state lies on exactly one of two equiprobable paths,
        # except the shared (C, D) which lies on both  [DERIVED]
        for s in model.states:
            expected = 1.0 if s == ("C", "D") else 0.5
            assert sf[model.states.index(s)] == pytest.approx(expected)

    def test_invalid_order(self):
        with pytest.raises(DataError):
            fit_mogen(generators.toy_dataset(), 0)


def _dense_fundamental(model: MOGenModel) -> np.ndarray:
    """F = (I - Q)^-1, inverted densely: an oracle for small models."""
    return np.linalg.inv(np.eye(model.n_states) - model.trans_p.toarray())


class TestFundamentalMatrix:
    """S.F and F.1 against the rows and row sums of a dense F."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_identity_and_diagonal(self, k):
        model = fit_mogen(generators.order2_families(seed=5, n_paths=300), k)
        f = _dense_fundamental(model)
        q = model.trans_p.toarray()
        assert np.max(np.abs(f - (np.eye(model.n_states) + q @ f))) < 1e-9
        assert np.all(np.diag(f) >= 1.0)
        assert np.max(np.abs(model.expected_visits() - model.start_p @ f)) < 1e-9
        assert np.max(np.abs(model.reach_totals() - f.sum(axis=1))) < 1e-9

    def test_sparse_path_agrees_with_dense(self):
        model = fit_mogen(generators.order2_families(seed=5, n_paths=300), 2)
        rebuilt = build(2, model.states, 2 * model.start_counts, trans_counts(model),
                        model.end_counts)  # counts that do not conserve flow: S.F is solved
        dense = _dense_fundamental(model)
        for m in (model, rebuilt):
            assert np.max(np.abs(m.expected_visits() - m.start_p @ dense)) < 1e-9
            assert np.max(np.abs(m.reach_totals() - dense.sum(axis=1))) < 1e-9

    def test_cyclic_paths_still_absorbing(self):
        ds = PathDataset([Path(("a", "b", "a", "b", "a"))])
        model = fit_mogen(ds, 1)
        f = _dense_fundamental(model)
        assert np.all(np.isfinite(model.expected_visits())) and np.all(np.isfinite(model.reach_totals()))
        assert np.max(np.abs(model.expected_visits() - model.start_p @ f)) < 1e-9
        assert np.max(np.abs(model.reach_totals() - f.sum(axis=1))) < 1e-9


def _closed_cycle_direct() -> MOGenModel:
    """a <-> b with no end counts: no path is ever absorbed."""
    trans = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    return build(1, [("a",), ("b",)], np.array([1.0, 0.0]), trans, np.zeros(2))


def _closed_ring(seed: int, n: int = 21) -> MOGenModel:
    """A ring of ``n`` states plus 2n random extra transitions, fractional
    probabilities and no end counts: one closed class, started at state 0."""
    rng = np.random.default_rng(seed)
    extra = rng.integers(n, size=(2 * n, 2))
    rows = [*range(n), *extra[:, 0]]
    cols = [*((i + 1) % n for i in range(n)), *extra[:, 1]]
    trans = sp.csr_matrix((rng.random(len(rows)) + 0.1, (rows, cols)), shape=(n, n))
    start = np.zeros(n)
    start[0] = 1.0
    return build(1, [(f"s{i}",) for i in range(n)], start, trans, np.zeros(n))


def _slow_chain() -> MOGenModel:
    """End probability 1e-3 after every "b": spectral radius ~0.9995, so the
    fixed point cannot converge within the iteration cap. The fit's start count
    is doubled, so the counts do not conserve flow and S.F is solved."""
    fit = fit_mogen(PathDataset([Path(tuple("ab" * 1000))]), 1)
    return build(1, fit.states, 2 * fit.start_counts, trans_counts(fit), fit.end_counts)


#: Corpus makers of ``generators``, each a function of one integer seed.
SOLVER_CORPORA = {
    "toy": lambda seed: generators.toy_dataset(1 + seed % 3),
    "random_small": generators.random_small_dataset,
    "order2": lambda seed: generators.order2_families(seed=seed, n_paths=150),
    "first_order": lambda seed: generators.first_order_walks(seed, n_paths=150, max_len=6),
    "smell": lambda seed: generators.smell_corpus(seed=seed, paths_per_window=10),
}


class TestChainSolver:
    def test_slow_chain_falls_back_to_lu(self, caplog):
        model = _slow_chain()
        with caplog.at_level(logging.DEBUG, logger="pathcent.models"):
            sf = model.expected_visits()
        assert sf == pytest.approx([1000.0, 1000.0], rel=1e-12)
        [record] = caplog.records
        assert "S.F: 2 states, 2 nnz, LU fallback" in record.getMessage()
        assert f"{models._MAX_ITER} iterations" in record.getMessage()

    def test_fallback_over_tolerance_is_numeric_error(self, monkeypatch):
        class WrongLU:
            def solve(self, b):
                return 2.0 * b

        monkeypatch.setattr(scipy.sparse.linalg, "splu", lambda a: WrongLU())
        model = _slow_chain()
        with pytest.raises(NumericError, match="S.F residual"):
            model.expected_visits()

    def test_one_debug_record_per_solve(self, caplog):
        """A fit's S.F is read off its counts, and counts that do not conserve flow
        are solved; each S.F and F.1 logs one record."""
        fitted = fit_mogen(generators.toy_dataset(), 2)
        rebuilt = build(2, fitted.states, 2 * fitted.start_counts, trans_counts(fitted),
                        fitted.end_counts)
        with caplog.at_level(logging.DEBUG, logger="pathcent.models"):
            for model in (fitted, rebuilt):
                model.expected_visits()
                model.expected_visits()  # cached: no second solve
                model.reach_totals()
        messages = [r.getMessage() for r in caplog.records]
        assert [m.split(":")[0] for m in messages] == ["S.F from the counts", "solved F.1",
                                                       "solved S.F", "solved F.1"]
        assert messages[0] == f"S.F from the counts: {fitted.n_states} states"
        for message in messages[1:]:
            assert f"{fitted.n_states} states, {fitted.trans_p.nnz} nnz, fixed point" in message
            assert "residual" in message

    def test_end_search_runs_once_per_model(self, monkeypatch):
        """A model built from counts searches once; a fitted one is absorbing by
        construction and never searches."""
        searches = []
        search = models._closeness

        def spy(*args, **kwargs):
            searches.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(models, "_closeness", spy)
        fitted = fit_mogen(generators.toy_dataset(), 2)
        fitted.expected_visits()
        fitted.reach_totals()
        assert searches == []
        model = build(2, fitted.states, fitted.start_counts, trans_counts(fitted), fitted.end_counts)
        model.expected_visits()  # from the counts, once the search has passed
        model.reach_totals()
        assert len(searches) == 1
        rebuilt = build(2, fitted.states, fitted.start_counts, trans_counts(fitted), fitted.end_counts)
        rebuilt.reach_totals()  # a new model searches again
        assert len(searches) == 2

    @settings(max_examples=100, deadline=None)
    @given(_timestamped, st.integers(1, 6), st.integers(1, 25), st.integers(1, 25),
           st.floats(0.1, 0.9), st.integers(0, 2**16))
    def test_every_fit_passes_the_end_search(self, paths, k, length, shift, fraction, seed):
        """The search that fitted models skip passes on every fit: of corpora,
        their windows and their split sides."""
        for sub in _subsets(PathDataset(paths), length, shift, fraction, seed):
            model = fit_mogen(sub, k)
            assert model._absorbing
            model._absorbing = False
            model.reach_totals()  # runs the search, which raises on a non-absorbing chain
            assert model._absorbing

    @pytest.mark.parametrize("build", [_closed_cycle_direct], ids=["constructor"])
    @pytest.mark.parametrize("solve", ["expected_visits", "reach_totals"])
    def test_non_absorbing_chain_is_numeric_error(self, build, solve):
        model = build()
        with pytest.raises(NumericError):
            getattr(model, solve)()

    @pytest.mark.parametrize("seed, n", [(0, 21), *((s, 8 + s) for s in range(1, 16))])
    @pytest.mark.parametrize("solve", ["expected_visits", "reach_totals"])
    def test_closed_class_with_fractional_probabilities_is_numeric_error(self, seed, n, solve):
        # LU of the nearly singular I - Q yields ~1e15 visits whose residual passes
        with pytest.raises(NumericError, match="never reaches the end"):
            getattr(_closed_ring(seed, n), solve)()

    @pytest.mark.parametrize("solve", ["expected_visits", "reach_totals"])
    def test_closed_class_beside_an_absorbing_state_is_numeric_error(self, solve):
        # a ends half the time; b <-> c, entered from a, never end
        trans = sp.csr_matrix(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 2.0], [0.0, 3.0, 0.0]]))
        model = build(1, [("a",), ("b",), ("c",)], np.array([1.0, 0.0, 0.0]), trans,
                      np.array([1.0, 0.0, 0.0]))
        with pytest.raises(NumericError, match="never reaches the end"):
            getattr(model, solve)()

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(SOLVER_CORPORA)), st.integers(0, 2**16), st.data())
    def test_solves_match_dense_oracle(self, corpus, seed, data):
        ds = SOLVER_CORPORA[corpus](seed)
        k = data.draw(st.integers(1, ds.max_length), label="k")
        model = fit_mogen(ds, k)
        q = model.trans_p
        system = np.eye(model.n_states) - q.toarray()
        sf, reach = model.expected_visits(), model.reach_totals()
        assert np.max(np.abs(sf - np.linalg.solve(system.T, model.start_p))) < 1e-9
        assert np.max(np.abs(reach - np.linalg.solve(system, np.ones(model.n_states)))) < 1e-9
        assert np.max(np.abs(sf - q.T @ sf - model.start_p)) <= models._TOL * np.max(sf)
        assert np.max(np.abs(reach - q @ reach - 1.0)) <= models._TOL * np.max(reach)


    def test_residual_is_within_bound_on_a_rounding_case(self):
        # stepping on b + A x - x once returned an F.1 residual of 4.84e-14
        # against a bound of 4.83e-14 here
        model = fit_mogen(generators.random_small_dataset(29855), 2)
        q = model.trans_p
        sf, reach = model.expected_visits(), model.reach_totals()
        assert np.max(np.abs(sf - q.T @ sf - model.start_p)) <= models._TOL * np.max(sf)
        assert np.max(np.abs(reach - q @ reach - 1.0)) <= models._TOL * np.max(reach)


class TestLogLikelihoodAndOrderSelection:
    def test_loglik_single_path_is_zero(self):
        # one deterministic path: every probability is 1
        model = fit_mogen(PathDataset([Path(("a", "b", "c"))]), 2)
        assert model.log_likelihood() == pytest.approx(0.0)

    def test_loglik_without_transitions(self):
        # single-node paths only start and end: no transition term
        ds = PathDataset([Path(("a",), 3), Path(("b",), 1)])
        model = fit_mogen(ds, 2)
        assert model.log_likelihood() == pytest.approx(3 * np.log(0.75) + np.log(0.25))
        assert select_order(ds, k_max=2) == 1

    def test_higher_order_never_decreases_loglik(self):
        ds = generators.order2_families(seed=2, n_paths=300)
        lls = [fit_mogen(ds, k).log_likelihood() for k in (1, 2, 3)]
        assert lls[0] <= lls[1] + 1e-9
        assert lls[1] <= lls[2] + 1e-9

    def test_select_order_first_order_data(self):
        ds = generators.first_order_walks(seed=0, n_paths=2000)
        assert select_order(ds, k_max=3) == 1

    def test_select_order_second_order_data(self):
        ds = generators.order2_families(seed=0)
        assert select_order(ds, k_max=3) >= 2

    def test_invalid_k_max(self):
        with pytest.raises(DataError):
            select_order(generators.toy_dataset(), 0)


def _within_a_second(f, *args):
    began = time.perf_counter()
    out = f(*args)
    assert time.perf_counter() - began < 1.0, f.__name__
    return out


class TestOrdersAboveTheLongestPath:
    """No state or sequence is longer than the longest path, so a larger order
    gives the longest path's results, at no more cost."""

    HUGE = 10**6

    @pytest.fixture()
    def ds(self):
        return generators.order2_families(seed=0, n_paths=200)

    def test_fit_mogen(self, ds):
        model = _within_a_second(fit_mogen, ds, self.HUGE)
        assert model.order == self.HUGE
        assert_same_fit(model, fit_mogen(ds, ds.max_length))

    def test_select_order(self, ds):
        assert _within_a_second(select_order, ds, self.HUGE) == select_order(ds, ds.max_length)

    def test_sequence_scores(self, ds):
        got = _within_a_second(scored_sequences, ds, MEASURES, self.HUGE)
        assert got == scored_sequences(ds, MEASURES, ds.max_length)


def _toy_args() -> list:
    """Constructor arguments of the toy dataset's order-2 fit."""
    m = fit_mogen(generators.toy_dataset(), 2)
    return [m.order, list(m.states), m.start_counts, trans_counts(m), m.end_counts]


def _replace(args: list, pos: int, value) -> list:
    return [value if i == pos else a for i, a in enumerate(args)]


def _id_rows(*rows) -> np.ndarray:
    return np.array(rows, dtype=np.int32)


class TestConstructor:
    def test_counts_rebuild_the_fitted_model(self):
        ds = generators.order2_families(seed=4, n_paths=200)
        model = fit_mogen(ds, 2)
        assert model.n_paths == ds.total  # every path starts exactly once
        again = build(model.order, model.states, model.start_counts, trans_counts(model),
                      model.end_counts)
        assert again.states == model.states
        assert np.array_equal(again.start_p, model.start_p)
        assert np.array_equal(again.end_p, model.end_p)
        assert (again.trans_p != model.trans_p).nnz == 0
        assert again.log_likelihood() == model.log_likelihood()
        assert again.dof() == model.dof()
        assert np.array_equal(again.expected_visits(), model.expected_visits())

    @pytest.mark.parametrize("mangle", [
        lambda a: _replace(a, 0, 0),
        lambda a: _replace(a, 0, "2"),
        lambda a: _replace(a, 1, [*a[1][:-1], a[1][0]]),
        lambda a: _replace(a, 2, a[2][:-1]),
        lambda a: _replace(a, 4, a[4][:-1]),
        lambda a: _replace(a, 2, a[2][:, None]),
        lambda a: _replace(a, 3, a[3] * -1.0),
        lambda a: _replace(a, 2, np.array([-1.0, *a[2][1:]])),
        lambda a: _replace(a, 4, np.array([np.nan, *a[4][1:]])),
    ], ids=["order_zero", "order_string", "repeated_state", "short_start_counts",
            "short_end_counts", "column_start_counts", "negative_transition_count",
            "negative_start_count", "nan_end_count"])
    def test_malformed_counts_are_data_error(self, mangle):
        args = _toy_args()
        build(*args)
        with pytest.raises(DataError):
            build(*mangle(args))

    @pytest.mark.parametrize("bad", [-1.0, np.inf, np.nan])
    def test_constructor_rejects_bad_counts(self, bad):
        trans = sp.csr_matrix(np.array([[0.0, 2.0], [0.0, 0.0]]))
        start, end = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        build(1, [("a",), ("b",)], start, trans, end)
        with pytest.raises(DataError, match="finite and non-negative"):
            build(1, [("a",), ("b",)], np.array([1.0, bad]), trans, end)
        with pytest.raises(DataError, match="finite and non-negative"):
            build(1, [("a",), ("b",)], start, trans * bad, end)

    def test_stored_zero_counts_are_no_transitions(self):
        start, end = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        plain = sp.csr_matrix(([2.0], ([0], [1])), shape=(2, 2))
        zeros = sp.csr_matrix(([2.0, 0.0], ([0, 1], [1, 0])), shape=(2, 2))
        assert zeros.nnz == 2
        a = build(1, [("a",), ("b",)], start, plain, end)
        b = build(1, [("a",), ("b",)], start, zeros, end)
        assert b.log_likelihood() == a.log_likelihood() == 0.0
        assert b.dof() == a.dof() == 0
        assert b.trans_p.nnz == a.trans_p.nnz == 1
        assert zeros.nnz == 2  # the caller's matrix keeps its entries

    @pytest.mark.parametrize("row, col", [([0, 2], [1, 0]), ([0, -1], [1, 0]), ([0, 1], [1, 2])])
    def test_transition_arrays_outside_the_states_are_data_error(self, row, col):
        start, end = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        model = build(1, [("a",), ("b",)], start, ([2.0, 0.0], ([0, 1], [1, 0])), end)
        assert trans_counts(model).nnz == 1
        with pytest.raises(DataError, match="counts must match"):
            build(1, [("a",), ("b",)], start, ([2.0, 1.0], (row, col)), end)

    @pytest.mark.parametrize("rows, labels, match", [
        (_id_rows([0], [1]), ["a", "a"], "strictly ascending"),
        (_id_rows([0], [1]), ["b", "a"], "strictly ascending"),
        (_id_rows([0], [5]), ["a", "b"], "label ids"),
        (_id_rows([0], [-2]), ["a", "b"], "label ids"),
        (_id_rows([0, -1], [-1, 1]), ["a", "b"], "label ids"),
        (_id_rows([0, -1], [-1, -1]), ["a", "b"], "label ids"),
        (np.zeros((2, 0), np.int32), ["a", "b"], "label ids"),
        (np.array([0, 1], np.int32), ["a", "b"], "2-D int array"),
        (np.array([[0.0], [1.0]]), ["a", "b"], "2-D int array"),
        ([[0], [1]], ["a", "b"], "2-D int array"),
    ], ids=["repeated_label", "descending_labels", "id_past_the_labels", "id_below_the_pad",
            "pad_before_a_node", "all_pad_row", "no_columns", "one_dimensional", "float_rows",
            "list_rows"])
    def test_malformed_rows_and_labels_are_data_error(self, rows, labels, match):
        """Rows and labels are the only form of the states: each malformed one is a
        data error, not a wrong state, an unsorted node list or an IndexError."""
        args = np.ones(2), NO_TRANSITIONS, np.ones(2)
        assert MOGenModel(1, _id_rows([0], [1]), *args, ["a", "b"]).states == (("a",), ("b",))
        with pytest.raises(DataError, match=match):
            MOGenModel(1, rows, *args, labels)

    def test_zero_start_counts_are_data_error(self):
        trans = sp.csr_matrix(np.array([[0.0, 2.0], [0.0, 0.0]]))
        with pytest.raises(DataError, match="start counts must sum to more than 0"):
            build(1, [("a",), ("b",)], np.zeros(2), trans, np.array([0.0, 1.0]))


#: Labels whose sort order differs from their length or first letter.
INDEX_LABELS = ["a", "b", "B", "v9", "v10", "Zoë", "é"]


@st.composite
def labelled_corpora(draw):
    """Paths of 1-7 nodes over ``INDEX_LABELS``, multiplicities 1-3."""
    paths = draw(st.lists(
        st.tuples(st.lists(st.sampled_from(INDEX_LABELS), min_size=1, max_size=7),
                  st.integers(1, 3)),
        min_size=1, max_size=10,
    ))
    return PathDataset([Path(tuple(nodes), m) for nodes, m in paths])


def _shuffled(model: MOGenModel, seed: int) -> MOGenModel:
    """The model rebuilt by its constructor with its rows in a random order."""
    perm = np.random.default_rng(seed).permutation(model.n_states)
    return build(model.order, [model.states[i] for i in perm], model.start_counts[perm],
                 trans_counts(model)[perm][:, perm], model.end_counts[perm])


class TestNodeIndex:
    @settings(max_examples=150, deadline=None)
    @given(labelled_corpora(), st.integers(1, 5), st.integers(0, 2**16))
    def test_rows_give_their_last_node_and_length(self, ds, k, seed):
        fitted = fit_mogen(ds, k)
        assert fitted.node_index[0] == sorted(ds.vocabulary)
        for model in (fitted, _shuffled(fitted, seed)):
            nodes, last, lengths = model.node_index
            assert nodes == sorted(set(nodes))
            assert [nodes[i] for i in last.tolist()] == [s[-1] for s in model.states]
            assert lengths.tolist() == [len(s) for s in model.states]

    def test_constructor_states_in_any_order(self):
        trans = sp.csr_matrix(([1.0, 1.0], ([0, 2], [2, 1])), shape=(3, 3))
        model = build(2, [("b", "a"), ("c",), ("a",)], np.array([1.0, 0.0, 1.0]), trans,
                      np.array([1.0, 1.0, 0.0]))
        nodes, last, lengths = model.node_index
        assert (nodes, last.tolist(), lengths.tolist()) == (["a", "c"], [0, 1, 0], [2, 1, 1])


def _log_likelihood_oracle(model: MOGenModel, counts: sp.csr_matrix) -> float:
    """The log-likelihood that looked up each of ``counts``' entries, in their
    stored order, in ``trans_p`` by (row, column)."""
    start = model.start_counts * np.log(model.start_p, where=model.start_counts > 0,
                                        out=np.zeros_like(model.start_p))
    ll = float(np.sum(start))
    coo = counts.tocoo()
    if coo.nnz:  # scipy indexes no entries as a sparse matrix
        probs = np.asarray(model.trans_p[coo.row, coo.col]).ravel()
        ll += float(np.sum(coo.data * np.log(probs)))
    mask = model.end_counts > 0
    ll += float(np.sum(model.end_counts[mask] * np.log(model.end_p[mask])))
    return ll


def _reversed_rows(m: sp.csr_matrix) -> sp.csr_matrix:
    """``m`` with each row's entries stored in descending column order."""
    order = np.lexsort((-m.indices, np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))))
    return sp.csr_matrix((m.data[order], m.indices[order], m.indptr.copy()), shape=m.shape)


def _rebuilt_unsorted(model: MOGenModel) -> tuple[MOGenModel, sp.csr_matrix]:
    """The model rebuilt by its constructor from counts in reversed row order, and those counts."""
    counts = _reversed_rows(trans_counts(model))
    return build(model.order, model.states, model.start_counts, counts, model.end_counts), counts


def _matrix_arrays(model: MOGenModel) -> list[np.ndarray]:
    layout = [model.indptr, model.indices, model.counts, model.probs]
    return [a.copy() for a in layout + [model.trans_p.data, model.trans_p.indices, model.trans_p.indptr]]


class TestMatrixLayout:
    """``trans_p`` views the one sorted layout, and no call changes it."""

    @settings(max_examples=100, deadline=None)
    @given(labelled_corpora(), st.integers(1, 4))
    def test_fitted_and_rebuilt_models_share_a_sorted_layout(self, ds, k):
        fitted = fit_mogen(ds, k)
        rebuilt, counts = _rebuilt_unsorted(fitted)
        for model in (fitted, rebuilt):
            assert model.trans_p.has_sorted_indices and trans_counts(model).has_sorted_indices
            assert np.array_equal(model.trans_p.indices, model.indices)
            assert np.array_equal(model.trans_p.indptr, model.indptr)
            assert np.array_equal(model.trans_p.data, model.probs)
        assert np.array_equal(rebuilt.trans_p.data, fitted.trans_p.data)
        assert np.array_equal(rebuilt.indices, fitted.indices) and np.array_equal(rebuilt.counts, fitted.counts)
        assert fitted.log_likelihood() == _log_likelihood_oracle(fitted, trans_counts(fitted))
        assert rebuilt.log_likelihood() == pytest.approx(_log_likelihood_oracle(rebuilt, counts),
                                                         rel=1e-12, abs=0)

    def test_unsorted_counts_are_sorted_in_a_copy(self):
        fitted = fit_mogen(generators.order2_families(seed=3, n_paths=300), 3)
        rebuilt, counts = _rebuilt_unsorted(fitted)
        given = [counts.data.copy(), counts.indices.copy()]
        assert not counts.has_sorted_indices
        assert rebuilt.trans_p.has_sorted_indices
        assert np.array_equal(rebuilt.trans_p.indices, fitted.indices)
        assert rebuilt.log_likelihood() == pytest.approx(_log_likelihood_oracle(rebuilt, counts),
                                                         rel=1e-12, abs=0)
        assert np.array_equal(counts.data, given[0]) and np.array_equal(counts.indices, given[1])

    def test_duplicate_counts_are_summed(self):
        start, end = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        twice = sp.csr_matrix(([1.0, 1.0], [1, 1], [0, 2, 2]), shape=(2, 2))
        model = build(1, [("a",), ("b",)], start, twice, end)
        assert trans_counts(model).nnz == model.trans_p.nnz == 1 and model.dof() == 0
        assert trans_counts(model)[0, 1] == 2.0 and model.trans_p[0, 1] == 1.0

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_integer_counts_give_float64_probabilities(self, dtype):
        fitted = fit_mogen(generators.order2_families(seed=4, n_paths=300), 2)
        start, end = fitted.start_counts.astype(dtype), fitted.end_counts.astype(dtype)
        model = build(2, fitted.states, start, trans_counts(fitted).astype(dtype), end)
        assert model.counts.dtype == dtype and model.trans_p.dtype == np.float64
        assert np.array_equal(model.trans_p.data, fitted.trans_p.data)
        assert np.array_equal(model.trans_p.indices, fitted.trans_p.indices)
        assert np.array_equal(model.end_p, fitted.end_p) and np.array_equal(model.start_p, fitted.start_p)
        assert model.log_likelihood() == pytest.approx(fitted.log_likelihood(), rel=1e-12, abs=0)

    def test_count_dtypes_give_equal_probabilities(self):
        fitted = fit_mogen(generators.order2_families(seed=4, n_paths=300), 2)
        got = [build(2, fitted.states, fitted.start_counts.astype(dtype),
                     trans_counts(fitted).astype(dtype), fitted.end_counts.astype(dtype))
               for dtype in (np.int64, np.float32, np.float64)]
        want = got[0]
        for model in got:
            assert model.start_p.dtype == model.trans_p.dtype == model.end_p.dtype == np.float64
            assert np.array_equal(model.start_p, want.start_p) and np.array_equal(model.end_p, want.end_p)
            assert np.array_equal(model.trans_p.data, want.trans_p.data)
            assert np.array_equal(model.trans_p.indices, want.trans_p.indices)
            assert model.log_likelihood() == want.log_likelihood()

    def test_float_counts_keep_their_bits(self):
        """float32 counts that are not integers build; float64 ones give what
        dividing by their own sums gives, bit for bit."""
        fitted = fit_mogen(generators.order2_families(seed=4, n_paths=300), 2)
        rng = np.random.default_rng(0)
        start = fitted.start_counts * rng.uniform(0.1, 3, fitted.n_states)
        end = fitted.end_counts * rng.uniform(0.1, 3, fitted.n_states)
        trans = trans_counts(fitted)
        trans.data *= rng.uniform(0.1, 3, trans.nnz)
        build(2, fitted.states, start.astype(np.float32), trans.astype(np.float32), end.astype(np.float32))
        model = build(2, fitted.states, start, trans, end)
        row_tot = np.asarray(trans.sum(axis=1)).ravel() + end
        assert np.array_equal(model.start_p, start / start.sum())
        assert np.array_equal(model.end_p, end / row_tot)
        assert np.array_equal(model.trans_p.data, trans.data * np.repeat(1.0 / row_tot, np.diff(trans.indptr)))

    @pytest.mark.parametrize("call", [
        lambda m: m.expected_visits(), lambda m: m.reach_totals(),
        lambda m: compute(m, "closeness"),
    ], ids=["expected_visits", "reach_totals", "closeness"])
    def test_calls_leave_both_matrices_unchanged(self, call):
        fitted = fit_mogen(generators.order2_families(seed=2, n_paths=300), 2)
        for model in (fitted, _rebuilt_unsorted(fitted)[0]):
            before = _matrix_arrays(model)
            call(model)
            after = _matrix_arrays(model)
            assert all(np.array_equal(a, b) for a, b in zip(after, before))

    def test_search_leaves_its_arrays_unchanged(self):
        model = fit_mogen(generators.order2_families(seed=2, n_paths=300), 2)
        layout, transposed = _matrix_arrays(model), model.trans_p.T.tocsr()
        for adj in ((model.indptr, model.indices), (transposed.indptr, transposed.indices)):
            sources = np.arange(model.n_states)
            before = [a.copy() for a in (*adj, sources)]
            list(models._first_reached(adj, sources))
            assert all(np.array_equal(a, b) for a, b in zip((*adj, sources), before))
        assert all(np.array_equal(a, b) for a, b in zip(_matrix_arrays(model), layout))


class TestFitPath:
    def test_wraps_dataset(self):
        ds = generators.toy_dataset()
        model = fit_path(ds)
        assert model.dataset is ds


def _conserves_flow(model: MOGenModel) -> bool:
    """Whether each state's start and in-counts sum to its out- and end counts."""
    counts = trans_counts(model)
    return np.array_equal(model.start_counts + np.asarray(counts.sum(axis=0)).ravel(),
                          np.asarray(counts.sum(axis=1)).ravel() + model.end_counts)


def _occurrences(ds: PathDataset, k: int, states) -> np.ndarray:
    """Each state's occurrences on the paths of ``ds``, over their order-``k`` walks."""
    occ = Counter()
    for path in ds.paths:
        for state in encode_path(path.nodes, k)[1:-1]:
            occ[state] += path.multiplicity
    return np.array([occ[s] for s in states], dtype=float)


def _with_cycle(model: MOGenModel, length: int, count: int) -> MOGenModel:
    """``model`` rebuilt from its counts, given as ``(data, (row, col))`` arrays, plus
    a closed cycle of ``length`` new states with ``count`` on each transition: counts
    that conserve flow in a chain that is not absorbing."""
    n, coo = model.n_states, trans_counts(model).tocoo()
    ring, pad = np.arange(n, n + length), np.zeros(length)
    trans = (np.concatenate([coo.data, np.full(length, float(count))]),
             (np.concatenate([coo.row, ring]), np.concatenate([coo.col, np.roll(ring, -1)])))
    return build(model.order, [*model.states, *((f"~{i}",) for i in range(length))],
                 np.concatenate([model.start_counts, pad]), trans,
                 np.concatenate([model.end_counts, pad]))


class TestExpectedVisitsFromCounts:
    """A fit's S.F is its occurrence counts over its number of paths, with no solve;
    F.1, and S.F of counts that do not conserve flow, are solved bit for bit as the
    scipy solve of ``solver_oracles`` solves them."""

    @settings(max_examples=100, deadline=None)
    @given(_timestamped, st.integers(1, 5), st.integers(1, 25), st.integers(1, 25),
           st.floats(0.1, 0.9), st.integers(0, 2**16))
    def test_fits_read_their_counts(self, paths, k, length, shift, fraction, seed):
        for sub in _subsets(PathDataset(paths), length, shift, fraction, seed):
            model = fit_mogen(sub, k)
            assert _conserves_flow(model)
            sf = model.expected_visits()
            assert np.array_equal(sf, _occurrences(sub, k, model.states) / sub.total)
            oracle = solver_oracles.solve(model, "S.F", model.start_p)
            assert np.max(np.abs(sf - oracle)) <= 1e-10 * np.max(np.abs(oracle))
            ones = np.ones(model.n_states)
            assert np.array_equal(model.reach_totals(), solver_oracles.solve(model, "F.1", ones))

    @settings(max_examples=100, deadline=None)
    @given(_timestamped, st.integers(1, 5), st.integers(1, 25), st.integers(1, 25),
           st.floats(0.1, 0.9), st.integers(0, 2**16))
    def test_other_counts_are_solved_as_scipy_solved_them(self, paths, k, length, shift,
                                                          fraction, seed):
        rng = np.random.default_rng(seed)
        for sub in _subsets(PathDataset(paths), length, shift, fraction, seed):
            fit = fit_mogen(sub, k)
            end = fit.end_counts * rng.integers(2, 5, fit.n_states)  # more ends than starts
            coo = trans_counts(fit).tocoo()
            shuffled = rng.permutation(coo.nnz)
            for trans in (trans_counts(fit), (coo.data[shuffled], (coo.row[shuffled], coo.col[shuffled]))):
                model = build(k, fit.states, fit.start_counts, trans, end)
                assert not _conserves_flow(model)
                assert np.array_equal(model.expected_visits(),
                                      solver_oracles.solve(model, "S.F", model.start_p))
                assert np.array_equal(model.reach_totals(),
                                      solver_oracles.solve(model, "F.1", np.ones(model.n_states)))

    @settings(max_examples=50, deadline=None)
    @given(labelled_corpora(), st.integers(1, 4), st.integers(1, 5), st.integers(1, 3))
    def test_a_closed_cycle_that_conserves_flow_is_numeric_error(self, ds, k, length, count):
        model = _with_cycle(fit_mogen(ds, k), length, count)
        assert _conserves_flow(model)
        for solve in ("expected_visits", "reach_totals"):
            with pytest.raises(NumericError, match="never reaches the end"):
                getattr(model, solve)()
