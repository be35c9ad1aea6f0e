"""Centrality measures: hand-derived toy values, an independent brute-force
counter, network measures, multi-order projections, and edge reports."""
import math
from collections import defaultdict
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcent import (
    DataError,
    Path,
    PathDataset,
    UnsupportedMeasureError,
    fit_mogen,
    fit_network,
    fit_path,
    rolling_windows,
)
from pathcent import centrality, experiment, models
from pathcent.centrality import (
    MEASURES,
    PATH_MEASURES,
    compute,
    edge_centralities,
    mogen_state_scores,
    sequence_scores,
)

import generators
from ranking_oracles import scored_sequences
from vector_dicts import as_dict, edge_dicts


def brute_force(ds, measure):
    """Definition-level node centralities, written independently of the
    library's occurrence-counting implementation."""
    values = defaultdict(float)
    occ = defaultdict(int)
    ends = defaultdict(int)
    remaining = defaultdict(list)
    for p in ds.paths:
        for pos, v in enumerate(p.nodes):
            occ[v] += p.multiplicity
            remaining[v].extend([len(p.nodes) - 1 - pos] * p.multiplicity)
            if 1 <= pos <= len(p.nodes) - 2:
                if measure == "betweenness":
                    values[v] += p.multiplicity
            if pos == len(p.nodes) - 1:
                ends[v] += p.multiplicity
    if measure == "betweenness":
        return {v: values[v] for v in occ}
    if measure == "path_end":
        return {v: ends[v] / ds.total for v in occ}
    if measure == "path_continuation":
        return {v: 1.0 - ends[v] / occ[v] for v in occ}
    if measure == "path_reach":
        return {v: sum(remaining[v]) / occ[v] for v in occ}
    if measure == "visitation":
        total = sum(occ.values())
        return {v: occ[v] / total for v in occ}
    if measure == "closeness":
        best = {}
        for p in ds.paths:
            for i, j in product(range(len(p.nodes)), repeat=2):
                if i < j:
                    key = (p.nodes[i], p.nodes[j])
                    if key not in best or j - i < best[key]:
                        best[key] = j - i
        sums = {v: 0.0 for v in occ}
        for (s, t), d in best.items():
            if s != t:
                sums[s] += 1.0 / d
        return sums
    raise ValueError(measure)


class TestToyValues:
    """Hand-derived values for {A->C->D->E, B->C->D->F}.  [DERIVED]"""

    def setup_method(self):
        self.ds = generators.toy_dataset()

    def expect(self, measure):
        return {
            "betweenness": {"A": 0, "B": 0, "C": 2, "D": 2, "E": 0, "F": 0},
            "path_end": {"A": 0, "B": 0, "C": 0, "D": 0, "E": 0.5, "F": 0.5},
            "path_continuation": {"A": 1, "B": 1, "C": 1, "D": 1, "E": 0, "F": 0},
            "path_reach": {"A": 3, "B": 3, "C": 2, "D": 1, "E": 0, "F": 0},
            "visitation": {"A": 1 / 8, "B": 1 / 8, "C": 1 / 4, "D": 1 / 4,
                           "E": 1 / 8, "F": 1 / 8},
            "closeness": {"A": 1 + 1 / 2 + 1 / 3, "B": 1 + 1 / 2 + 1 / 3,
                          "C": 2.0, "D": 2.0, "E": 0.0, "F": 0.0},
        }[measure]

    @pytest.mark.parametrize("measure", MEASURES)
    def test_path_model(self, measure):
        vec = compute(fit_path(self.ds), measure)
        assert as_dict(vec) == pytest.approx(self.expect(measure))

    @pytest.mark.parametrize("measure", MEASURES)
    def test_matches_brute_force(self, measure):
        assert brute_force(self.ds, measure) == pytest.approx(
            self.expect(measure)
        )

    @pytest.mark.parametrize("measure", MEASURES)
    def test_lossless_mogen_projection(self, measure):
        model = fit_mogen(self.ds, self.ds.max_length)
        vec = compute(model, measure)
        assert as_dict(vec) == pytest.approx(self.expect(measure), abs=1e-9)


class TestBruteForceAgreement:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("measure", MEASURES)
    def test_path_model_matches_brute_force(self, seed, measure):
        ds = generators.random_small_dataset(seed)
        vec = compute(fit_path(ds), measure)
        assert as_dict(vec) == pytest.approx(brute_force(ds, measure))


class TestSequenceScores:
    def test_order2_betweenness_counts_interior_occurrences(self):
        ds = PathDataset([Path(("a", "b", "c", "d"), 3)])
        scores = scored_sequences(ds, ("betweenness",), max_len=2)["betweenness"]
        assert scores[("b", "c")] == 3  # starts at 1, ends before the last
        assert scores[("a", "b")] == 0  # touches the first position
        assert scores[("c", "d")] == 0  # touches the last position

    def test_order2_path_end(self):
        ds = PathDataset([Path(("a", "b"), 1), Path(("c", "b"), 3)])
        scores = scored_sequences(ds, ("path_end",), max_len=2)["path_end"]
        assert scores[("c", "b")] == pytest.approx(0.75)
        assert scores[("b",)] == pytest.approx(1.0)

    def test_unknown_measure(self):
        for measures in (("pagerank",), ("betweenness", "pagerank")):
            with pytest.raises(DataError, match="'pagerank'"):
                sequence_scores(generators.toy_dataset(), measures)

    def test_max_len_below_one(self):
        with pytest.raises(DataError, match="must be >= 1"):
            sequence_scores(generators.toy_dataset(), MEASURES, max_len=0)

    def test_one_scan_returns_every_requested_measure(self):
        ds = generators.random_small_dataset(3)
        scores = scored_sequences(ds, MEASURES, max_len=3)
        assert list(scores) == list(MEASURES)
        assert len({frozenset(v) for v in scores.values()}) == 1
        assert scored_sequences(ds, ("path_reach", "visitation"), 3) == {
            m: scores[m] for m in ("path_reach", "visitation")
        }

    def test_closeness_takes_the_nearest_earlier_occurrence(self):
        # a occurs at 0 and 2, c at 3: the a -> c distance is 1, not 3
        ds = PathDataset([Path(("a", "b", "a", "c"))])
        scores = scored_sequences(ds, ("closeness",))["closeness"]
        assert scores == {("a",): 1 / 1 + 1 / 1, ("b",): 1 / 1 + 1 / 2, ("c",): 0.0}

    def test_closeness_minimum_across_paths_and_orders(self):
        ds = PathDataset([Path(("a", "x", "x", "b")), Path(("a", "b"), 4)])
        scores = scored_sequences(ds, ("closeness",), max_len=2)["closeness"]
        # a reaches b in 1 (second path), x in 1, (a, x) in 1, (x, x) in 2,
        # (x, b) in 3, (a, b) in 1
        assert scores[("a",)] == pytest.approx(1 + 1 + 1 + 1 / 2 + 1 / 3 + 1)
        assert scores[("a", "b")] == 0.0


def _occurrence_stats(ds, max_len):
    """The per-measure occurrence scan ``sequence_scores`` replaced."""
    occ, end_occ, interior, reach_sum = (defaultdict(int) for _ in range(4))
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


def _subpath_distances(ds, max_len):
    """Shortest distance between sequence occurrences by a scan over every
    pair of positions, as ``sequence_scores`` computed it before."""
    dist = {}
    for p in ds.paths:
        nodes, l = p.nodes, len(p.nodes)
        for a in range(l):
            s_opts = [nodes[a - m + 1 : a + 1] for m in range(1, min(max_len, a + 1) + 1)]
            for b in range(a + 1, l):
                for t_len in range(1, min(max_len, b + 1) + 1):
                    t = nodes[b - t_len + 1 : b + 1]
                    for s in s_opts:
                        if (s, t) not in dist or b - a < dist[s, t]:
                            dist[s, t] = b - a
    return dist


def _sequence_scores_oracle(ds, measure, max_len):
    occ, end_occ, interior, reach_sum = _occurrence_stats(ds, max_len)
    if measure == "closeness":
        sums = {s: 0.0 for s in occ}
        for (s, t), d in _subpath_distances(ds, max_len).items():
            if s != t:
                sums[s] += 1.0 / d
        return sums
    if measure == "betweenness":
        return {s: float(interior[s]) for s in occ}
    if measure == "path_end":
        return {s: end_occ[s] / ds.total for s in occ}
    if measure == "path_continuation":
        return {s: 1.0 - end_occ[s] / occ[s] for s in occ}
    if measure == "path_reach":
        return {s: reach_sum[s] / occ[s] for s in occ}
    total = sum(occ.values())
    return {s: occ[s] / total for s in occ}


def _sequence_scores_scan(ds, measures, max_len):
    """The one-scan tuple walk ``sequence_scores`` replaced: per path, the end
    position of the latest occurrence of every sequence seen so far, and a
    dict of fewest distances per source sequence."""
    weights = defaultdict(int)
    for p in ds.paths:
        weights[p.nodes] += p.multiplicity
    occ, end_occ, interior, reach_sum = (defaultdict(int) for _ in range(4))
    dist = {}  # s -> {t: fewest transitions from s to a later t}
    for nodes, w in weights.items():
        l = len(nodes)
        last = {}  # sequence -> end position of its latest occurrence
        for j in range(l):
            ends = [nodes[j - m + 1 : j + 1] for m in range(1, min(max_len, j + 1) + 1)]
            for s, a in last.items():  # the latest earlier occurrence of s is the nearest one
                row, d = dist[s], j - a
                for t in ends:
                    if d < row.get(t, math.inf):
                        row[t] = d
            for t in ends:
                dist.setdefault(t, {})
                last[t] = j
            for m, s in enumerate(ends, 1):
                occ[s] += w
                reach_sum[s] += w * (l - 1 - j)
                if j == l - 1:
                    end_occ[s] += w
                if j - m + 1 >= 1 and j <= l - 2:
                    interior[s] += w
    n, total = ds.total, sum(occ.values())
    value = {
        "betweenness": lambda s: float(interior[s]),
        "closeness": lambda s: math.fsum(1.0 / d for t, d in dist[s].items() if t != s),
        "path_end": lambda s: end_occ[s] / n,
        "path_continuation": lambda s: 1.0 - end_occ[s] / occ[s],
        "path_reach": lambda s: reach_sum[s] / occ[s],
        "visitation": lambda s: occ[s] / total,
    }
    return {m: {s: value[m](s) for s in occ} for m in measures}


# small vocabularies and long paths, so sequences repeat often within a path
_corpora = st.lists(
    st.tuples(
        st.lists(st.sampled_from("abc"), min_size=1, max_size=30).map(tuple),
        st.integers(1, 4),
    ),
    min_size=1,
    max_size=8,
)


class TestSequenceScoresOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        paths=_corpora,
        max_len=st.integers(1, 6),
        measures=st.sets(st.sampled_from(MEASURES), min_size=1).map(sorted),
    )
    def test_matches_pair_scan(self, paths, max_len, measures):
        ds = PathDataset(Path(nodes, w) for nodes, w in paths)
        got = scored_sequences(ds, measures, max_len)
        assert list(got) == measures
        for m in measures:
            want = _sequence_scores_oracle(ds, m, max_len)
            assert got[m].keys() == want.keys()
            if m == "closeness":  # the pair scan sums in its own order, without fsum
                assert all(math.isclose(got[m][s], want[s], rel_tol=1e-12) for s in want)
            else:
                assert got[m] == want

    @settings(max_examples=300, deadline=None)
    @given(paths=_corpora, max_len=st.integers(1, 6),
           times=st.lists(st.none() | st.integers(0, 2), min_size=8, max_size=8))
    def test_equals_latest_occurrence_scan(self, paths, max_len, times):
        # start times split a node sequence over several rows
        ds = PathDataset(Path(nodes, w, t) for (nodes, w), t in zip(paths, times))
        assert scored_sequences(ds, MEASURES, max_len) == _sequence_scores_scan(ds, MEASURES, max_len)

    @pytest.mark.parametrize("cells", [1, 7, 64])
    def test_batches_do_not_change_results(self, monkeypatch, cells):
        corpora = [generators.random_small_dataset(3),
                   generators.first_order_walks(4, n_paths=60, n_nodes=3, stop_p=0.05, max_len=30)]
        want = [scored_sequences(ds, MEASURES, 4) for ds in corpora]
        monkeypatch.setattr(centrality, "_PAIR_CELLS", cells)
        assert [scored_sequences(ds, MEASURES, 4) for ds in corpora] == want

    def test_derived_datasets_score_like_fresh_ones(self):
        ds = generators.order2_families(seed=5, n_paths=300)
        for side in experiment.split(ds, 0.4, seed=2):
            fresh = PathDataset(side.paths)
            assert scored_sequences(side, MEASURES, 3) == scored_sequences(fresh, MEASURES, 3)


class TestNetworkModel:
    def test_betweenness_on_toy(self):
        scores = as_dict(compute(fit_network(generators.toy_dataset()), "betweenness"))
        # C and D each lie inside 6 of the shortest paths between other
        # node pairs of the toy graph: {A,B} x {D,E,F} through C, and
        # {A,B,C} x {E,F} through D  [DERIVED]
        assert scores["C"] == pytest.approx(6.0)
        assert scores["D"] == pytest.approx(6.0)
        assert scores["A"] == pytest.approx(0.0)

    def test_closeness_on_toy(self):
        scores = as_dict(compute(fit_network(generators.toy_dataset()), "closeness"))
        assert scores["A"] == pytest.approx(1 + 1 / 2 + 1 / 3 + 1 / 3)
        assert scores["E"] == pytest.approx(0.0)

    @pytest.mark.parametrize(
        "measure", ["path_end", "path_continuation", "path_reach", "visitation"]
    )
    def test_path_measures_unsupported(self, measure):
        with pytest.raises(UnsupportedMeasureError):
            compute(fit_network(generators.toy_dataset()), measure)


class TestMOGenStateScores:
    def setup_method(self):
        self.model = fit_mogen(generators.toy_dataset(), 2)

    def scores(self, measure):
        """The per-state array, read by state."""
        vals = mogen_state_scores(self.model, measure)
        assert vals.shape == (self.model.n_states,)
        return lambda *state: vals[self.model.states.index(state)]

    def test_continuation(self):
        vals = self.scores("path_continuation")
        assert vals("C", "D") == pytest.approx(1.0)
        assert vals("D", "E") == pytest.approx(0.0)

    def test_path_end(self):
        vals = self.scores("path_end")
        assert vals("D", "E") == pytest.approx(0.5)
        assert vals("C", "D") == pytest.approx(0.0)

    def test_betweenness_interior_counts(self):
        vals = self.scores("betweenness")
        assert vals("C", "D") == pytest.approx(2.0)
        assert vals("A", "C") == pytest.approx(1.0)
        assert vals("A") == pytest.approx(0.0)
        assert vals("D", "E") == pytest.approx(0.0)

    def test_reach(self):
        vals = self.scores("path_reach")
        assert vals("A") == pytest.approx(3.0)
        assert vals("C", "D") == pytest.approx(1.0)

    def test_visitation_sums_to_one(self):
        vals = mogen_state_scores(self.model, "visitation")
        assert vals.sum() == pytest.approx(1.0)


def _project_first_order_oracle(model, measure):
    """The first-order projection as a loop over states."""
    sf = model.expected_visits()
    state_vals = mogen_state_scores(model, measure)
    sums, weights = defaultdict(float), defaultdict(float)
    for i, s in enumerate(model.states):
        v = s[-1]
        if measure in ("betweenness", "path_end"):
            sums[v] += state_vals[i]
        elif measure == "visitation":
            sums[v] += sf[i]
        else:  # continuation / reach: visitation-weighted average
            sums[v] += sf[i] * state_vals[i]
            weights[v] += sf[i]
    if measure == "visitation":
        total = sum(sums.values())
        return {v: val / total for v, val in sums.items()}
    if measure in ("betweenness", "path_end"):
        return dict(sums)
    return {v: (sums[v] / weights[v] if weights[v] > 0 else 0.0) for v in sums}


class TestProjection:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["toy", "random", "order2", "walks"]), st.integers(0, 2**16),
           st.sampled_from([m for m in MEASURES if m != "closeness"]), st.data())
    def test_matches_loop_oracle(self, corpus, seed, measure, data):
        ds = {
            "toy": lambda: generators.toy_dataset(1 + seed % 3),
            "random": lambda: generators.random_small_dataset(seed),
            "order2": lambda: generators.order2_families(seed=seed, n_paths=100),
            "walks": lambda: generators.first_order_walks(seed, n_paths=100, max_len=6),
        }[corpus]()
        model = fit_mogen(ds, data.draw(st.integers(1, ds.max_length), label="k"))
        got = as_dict(compute(model, measure))
        expected = _project_first_order_oracle(model, measure)
        assert list(got) == sorted(expected)
        if measure == "visitation":  # sums per-state shares, not visits over their total
            assert got == pytest.approx(expected, rel=1e-12, abs=0)
        else:
            assert got == expected

    @pytest.mark.parametrize("measure", MEASURES)
    @pytest.mark.parametrize("seed", range(3))
    def test_lossless_projection_matches_path_model(self, measure, seed):
        ds = generators.random_small_dataset(seed)
        model = fit_mogen(ds, ds.max_length)
        projected = as_dict(compute(model, measure))
        direct = as_dict(compute(fit_path(ds), measure))
        assert projected == pytest.approx(direct, abs=1e-9)

    def test_underfit_projection_differs(self):
        # the first-order graph admits A->C->D->F, which no path realizes
        ds = generators.toy_dataset()
        k1 = as_dict(compute(fit_mogen(ds, 1), "closeness"))
        full = as_dict(compute(fit_path(ds), "closeness"))
        assert k1["A"] > full["A"]


class TestEdgeCentralities:
    def test_toy_report(self):
        model = fit_mogen(generators.toy_dataset(), 2)
        shares, values = edge_dicts(model, edge_centralities(model, min_visitation=0.02))
        assert ("C", "D") in shares
        # (C,D) is visited once per path; the seven states total 4
        # expected visits  [DERIVED]
        assert shares[("C", "D")] == pytest.approx(0.25)
        assert values[("C", "D")]["betweenness"] == pytest.approx(2.0)

    def test_threshold_filters(self):
        ds = generators.order2_families(seed=0)
        model = fit_mogen(ds, 2)
        shares, _ = edge_dicts(model, edge_centralities(model, min_visitation=0.02))
        assert shares
        assert all(v >= 0.02 for v in shares.values())
        assert all(len(s) == 2 for s in shares)

    def test_requires_order2(self):
        model = fit_mogen(generators.toy_dataset(), 1)
        with pytest.raises(DataError):
            edge_centralities(model)

    @pytest.mark.parametrize("min_visitation", [0.0, 0.02, 1.1])
    def test_closeness_searched_from_selected_rows(self, monkeypatch, min_visitation):
        model = fit_mogen(generators.order2_families(seed=0), 2)
        sf = model.expected_visits()
        rows = [i for i, s in enumerate(model.states)
                if len(s) == 2 and sf[i] / sf.sum() >= min_visitation]
        starts, searches = [], []
        search, closeness = models._first_reached, models._closeness

        def spy(adj, sources):
            starts.append(len(sources))
            return search(adj, sources)

        def every_state(*args):
            searches.append(args)
            return closeness(*args)

        for module in (models, centrality):
            monkeypatch.setattr(module, "_first_reached", spy)
            monkeypatch.setattr(module, "_closeness", every_state)
        report = edge_centralities(model, ("closeness",), min_visitation=min_visitation)
        assert sum(starts) == len(rows)
        assert all(starts)  # 1.1 selects nothing, and nothing is searched
        assert not searches  # no state's closeness outside the selected rows
        monkeypatch.undo()
        _, values = edge_dicts(model, report)
        assert [model.states.index(s) for s in values] == rows
        full = mogen_state_scores(model, "closeness")
        assert [v["closeness"] for v in values.values()] == full[rows].tolist()

    def test_names_only_the_selected_states(self):
        model = fit_mogen(generators.order2_families(seed=0), 2)  # 5 of 713 states selected
        report = edge_centralities(model, min_visitation=0.02)
        assert len(report.rows) and "states" not in model.__dict__  # no state tuple built
        shares, values = edge_dicts(model, report)
        assert list(values) == [s for s in model.states if s in shares]

    def test_measures_read_at_selected_rows(self):
        model = fit_mogen(generators.order2_families(seed=1, n_paths=200), 3)
        _, values = edge_dicts(model, edge_centralities(model, min_visitation=0.0))
        rows = [model.states.index(s) for s in values]
        assert rows and all(len(model.states[i]) == 2 for i in rows)
        for measure in MEASURES:
            full = mogen_state_scores(model, measure)
            assert [v[measure] for v in values.values()] == full[rows].tolist()


class TestNodeIndexOnce:
    def test_derived_once_per_model(self, monkeypatch):
        prop = models.MOGenModel.__dict__["node_index"]
        derived = []
        monkeypatch.setattr(prop, "func", lambda m, derive=prop.func: derived.append(m) or derive(m))
        ds = generators.order2_families(seed=2, n_paths=200)
        model, nodes = fit_mogen(ds, 3), np.unique(ds.encoded[1])
        for measure in MEASURES:
            compute(model, measure)
            experiment._predictions(model, (measure,), nodes)
        experiment._predictions(model, MEASURES, nodes)
        edge_centralities(model, min_visitation=0.0)
        assert derived == [model]


#: Labels of the generated corpora: one ends in NUL, which a numpy str array drops.
ARRAY_LABELS = ("Z", "a", "a\x00", "b", "c", "é")


@st.composite
def timed_corpora(draw):
    """Paths of 1-6 nodes over ``ARRAY_LABELS``, multiplicities 1-3, start times 0-29."""
    paths = draw(st.lists(
        st.tuples(st.lists(st.sampled_from(ARRAY_LABELS), min_size=1, max_size=6),
                  st.integers(1, 3), st.integers(0, 29)),
        min_size=1, max_size=12,
    ))
    return PathDataset([Path(tuple(nodes), m, t) for nodes, m, t in paths])


class TestVectorArrays:
    """A vector is the sorted first-order labels and a float64 array aligned with
    them; an edge report is its order-2 rows and arrays read at them."""

    @settings(max_examples=60, deadline=None)
    @given(timed_corpora(), st.sampled_from(["N", "P", "M1", "M2", "M3"]))
    def test_nodes_are_the_sorted_vocabulary_of_every_side(self, ds, label):
        fit = {"N": fit_network, "P": fit_path}.get(label) or (lambda d: fit_mogen(d, int(label[1])))
        # the corpus, and its windows: row subsets that keep the corpus's labels
        for side in [ds, *(w.dataset for w in rolling_windows(ds, 10, 5) if not w.empty)]:
            model = fit(side)
            for measure in MEASURES:
                try:
                    vec = compute(model, measure)
                except UnsupportedMeasureError:
                    assert label == "N" and measure in PATH_MEASURES
                    continue
                assert vec.nodes == sorted(side.vocabulary)  # one list for every measure
                assert vec.values.dtype == np.float64 and vec.values.shape == (len(vec.nodes),)

    @settings(max_examples=60, deadline=None)
    @given(timed_corpora(), st.integers(2, 3), st.sampled_from([0.0, 0.05, 0.2]))
    def test_edge_report_reads_state_scores_at_its_rows(self, ds, k, min_visitation):
        model = fit_mogen(ds, k)
        report = edge_centralities(model, min_visitation=min_visitation)
        sf = model.expected_visits()
        shares = sf / sf.sum()
        rows = [i for i, s in enumerate(model.states) if len(s) == 2 and shares[i] >= min_visitation]
        assert report.rows.tolist() == rows  # ascending, of length 2
        assert np.array_equal(report.shares, shares[rows])
        assert list(report.values) == list(MEASURES)
        for measure in MEASURES:
            assert np.array_equal(report.values[measure], mogen_state_scores(model, measure)[rows])
