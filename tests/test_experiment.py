"""Prediction experiment: splitting, ground truth, projection, AUC, evaluate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from pathcent import (
    DataError,
    MOGenModel,
    Path,
    PathDataset,
    SplitSpec,
    auc_score,
    compute,
    evaluate,
    fit_mogen,
    fit_network,
    ground_truth,
    project_up,
    split,
)
from pathcent import centrality, experiment, models
from pathcent.centrality import MEASURES, PATH_MEASURES, mogen_state_scores
from pathcent.experiment import _predictions, _scored, parse_model_label
from pathcent.models import TIE_TOL

import generators
import ranking_oracles
from ranking_oracles import scored_sequences
from vector_dicts import as_dict


def _split_oracle(ds, fraction, seed, max_attempts=100):
    """The instance-by-instance split: one unit ``Path`` per instance, merged
    again by ``PathDataset``."""
    instances = []
    for p in ds.paths:
        instances.extend([(p.nodes, p.start_time)] * p.multiplicity)
    if len(instances) < 2:
        raise DataError("need at least 2 path instances to split")
    base = seed if isinstance(seed, (list, tuple)) else [seed]
    for attempt in range(max_attempts):
        rng = np.random.default_rng(list(base) + [attempt])
        mask = rng.random(len(instances)) < fraction
        if mask.any() and not mask.all():
            train = [Path(n, 1, t) for (n, t), m in zip(instances, mask) if m]
            test = [Path(n, 1, t) for (n, t), m in zip(instances, mask) if not m]
            return PathDataset(train), PathDataset(test)
    raise DataError("could not produce a non-degenerate split")


class TestSplit:
    def test_partition_preserves_instances(self):
        ds = generators.order2_families(seed=0, n_paths=400)
        train, test = split(ds, 0.3, seed=7)
        assert train.total + test.total == ds.total

    def test_fraction_roughly_respected(self):
        ds = generators.order2_families(seed=0, n_paths=1000)
        train, _ = split(ds, 0.1, seed=7)
        assert 60 <= train.total <= 140

    def test_deterministic(self):
        ds = generators.order2_families(seed=0, n_paths=300)
        a = split(ds, 0.3, seed=5)
        b = split(ds, 0.3, seed=5)
        assert a[0].paths == b[0].paths and a[1].paths == b[1].paths

    def test_multiplicities_unrolled(self):
        ds = PathDataset([Path(("a", "b"), 50), Path(("c", "d"), 50)])
        train, test = split(ds, 0.5, seed=1)
        # a repeated path can straddle the split
        assert train.total + test.total == 100
        assert 20 <= train.total <= 80

    def test_degenerate_retry(self):
        ds = PathDataset([Path(("a", "b")), Path(("c", "d"))])
        train, test = split(ds, 0.5, seed=0)
        assert train.total >= 1 and test.total >= 1

    def test_too_small(self):
        with pytest.raises(DataError):
            split(PathDataset([Path(("a", "b"))]), 0.5, seed=0)

    @pytest.mark.parametrize("count", [2**63, 2**64])
    def test_multiplicity_past_int64_is_data_error(self, count):
        ds = PathDataset([Path(("a", "b", "c"), count), Path(("b", "c"), 2)])
        with pytest.raises(DataError, match="below 2"):
            split(ds, 0.5, seed=0)

    def test_instances_past_memory_are_data_error(self):
        # 2**40 instances would unroll into an 8 TiB array, which numpy refuses to allocate
        ds = PathDataset([Path(("a", "b", "c"), 2**40), Path(("b", "c"), 2)])
        with pytest.raises(DataError, match="1099511627778 path instances"):
            split(ds, 0.5, seed=0)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.builds(
                Path,
                st.lists(st.sampled_from("abc"), min_size=1, max_size=3).map(tuple),
                st.integers(1, 5),
                st.none() | st.integers(-3, 3),
            ),
            min_size=1,
            max_size=15,
        ),
        st.floats(0.05, 0.95),
        st.integers(0, 2**32 - 1) | st.lists(st.integers(0, 2**16), min_size=1, max_size=2),
    )
    def test_matches_instance_oracle(self, paths, fraction, seed):
        ds = PathDataset(paths)
        if ds.total < 2:
            with pytest.raises(DataError):
                split(ds, fraction, seed)
            return
        try:
            expected = _split_oracle(ds, fraction, seed)
        except DataError:
            with pytest.raises(DataError, match="non-degenerate"):
                split(ds, fraction, seed)
            return
        got = split(ds, fraction, seed)
        assert [side.paths for side in got] == [side.paths for side in expected]


def _ground_truth_oracle(test, measures, k_truth) -> dict:
    """The tuple ground truth: ``{measure: [(sequence, value), ...]}``, by value
    descending, ties broken lexicographically on the sequence."""
    scores = scored_sequences(test, measures, max_len=k_truth)
    return {m: sorted(v.items(), key=lambda kv: (-kv[1], kv[0])) for m, v in scores.items()}


def _project_up_oracle(keys, targets) -> list:
    """For each target state, its longest suffix in ``keys``, or None."""
    out = []
    for h in targets:
        for i in range(len(h)):
            if h[i:] in keys:
                out.append(h[i:])
                break
        else:
            out.append(None)
    return out


def _scored_oracle(values: dict, suffixes) -> list:
    """The value of each suffix; None gets the minimum score."""
    floor = min(values.values(), default=0.0)
    return [floor if s is None else values[s] for s in suffixes]


def _evaluate_oracle(ds, spec, models, measures, k_truth) -> dict:
    """``evaluate`` on label tuples: per (model, measure), each replicate's AUC from the
    tuple ground truth, the model's tuple keys and scores, and the tuple suffix walk."""
    out = {}
    for rep in range(spec.replicates):
        train, test = split(ds, spec.train_fraction, [spec.seed, rep])
        truth = _ground_truth_oracle(test, measures, k_truth)
        for label in models:
            kind, k = parse_model_label(label)
            if kind == "path":
                scored = scored_sequences(train, measures, k_truth)
            else:
                model = fit_network(train) if kind == "network" else fit_mogen(train, k)
                scored = {}
                for m in measures if kind == "mogen" else [m for m in measures if m not in PATH_MEASURES]:
                    scored[m] = {(v,): x for v, x in as_dict(compute(model, m)).items()}
                    if kind == "mogen":
                        values = mogen_state_scores(model, m).tolist()
                        scored[m].update((s, x) for s, x in zip(model.states, values) if len(s) >= 2)
            for m, values in scored.items():
                targets = sorted(seq for seq, _ in truth[m])
                top = {seq for seq, _ in truth[m][: -(-len(targets) // 10)]}
                scores = _scored_oracle(values, _project_up_oracle(set(values), targets))
                out.setdefault((label, m), []).append(auc_score([t in top for t in targets], scores))
    return out


def _named(ds, codes) -> list:
    """The label tuple of each of ``codes`` in the ranking of the corpus of ``ds``."""
    names = ranking_oracles.code_names(ds, 8)
    return [names[c] for c in np.asarray(codes).tolist()]


def _target_tuples(ds, targets) -> list:
    """Each target row's sequence (its longest suffix), checking that the row holds
    the codes of its suffixes by length, padded with -1."""
    names = ranking_oracles.code_names(ds, targets.shape[1])
    out = []
    for row in targets.tolist():
        size = sum(c >= 0 for c in row)
        assert row[size:] == [-1] * (len(row) - size)
        seq = names[row[size - 1]]
        assert [names[c] for c in row[:size]] == [seq[-m:] for m in range(1, size + 1)]
        out.append(seq)
    return out


def _coded(keys, targets):
    """Label-tuple ``keys`` and ``targets`` as :func:`project_up` takes them: codes
    of the ranking of a corpus that holds each as a path."""
    ds = PathDataset([Path(s) for s in (*keys, *targets)])
    names = {s: c for c, s in ranking_oracles.code_names(ds, 8).items()}
    width = max(map(len, targets))
    rows = [[names[t[-m:]] for m in range(1, len(t) + 1)] + [-1] * (width - len(t)) for t in targets]
    return np.array([names[s] for s in keys], np.int64), np.array(rows, np.int64).reshape(-1, width)


def _ranked(ds, measures, k_truth) -> dict:
    """``ground_truth``'s rankings as ``{measure: [(sequence, value), ...]}``."""
    targets, rankings = ground_truth(ds, measures, k_truth)
    seqs = _target_tuples(ds, targets)
    values = scored_sequences(ds, measures, max_len=k_truth)
    return {m: [(seqs[i], values[m][seqs[i]]) for i in r.tolist()] for m, r in rankings.items()}


TRUTH_CORPORA = [
    generators.toy_dataset,
    lambda: generators.order2_families(seed=1, n_paths=300),
    lambda: generators.first_order_walks(seed=2, n_paths=300, n_nodes=4),
    generators.smell_corpus,
]


class TestGroundTruth:
    def test_sorted_descending_with_tie_rule(self):
        ds = generators.toy_dataset()
        gt = _ranked(ds, ("betweenness",), 2)["betweenness"]
        scores = [v for _, v in gt]
        assert scores == sorted(scores, reverse=True)
        tied = [s for s, v in gt if v == 0.0]
        assert tied == sorted(tied)

    def test_contains_all_orders_up_to_k(self):
        ds = generators.toy_dataset()
        targets, _ = ground_truth(ds, ("visitation",), 3)
        seqs = _target_tuples(ds, targets)
        assert {len(s) for s in seqs} == {1, 2, 3} and targets.shape == (len(seqs), 3)
        assert seqs == sorted(seqs)  # lexicographic: ("a", "b") before ("b",)

    def test_top_state_on_toy(self):
        gt = _ranked(generators.toy_dataset(), ("betweenness",), 2)["betweenness"]
        top = [s for s, v in gt if v == 2.0]
        assert top == [("C",), ("C", "D"), ("D",)]

    def test_unknown_measure(self):
        with pytest.raises(DataError):
            ground_truth(generators.toy_dataset(), ("pagerank",), 2)

    def test_one_ranking_per_measure_over_the_same_sequences(self):
        targets, rankings = ground_truth(generators.toy_dataset(), MEASURES, 3)
        assert list(rankings) == list(MEASURES)
        assert all(sorted(r.tolist()) == list(range(len(targets))) for r in rankings.values())
        again = ground_truth(generators.toy_dataset(), ("path_end",), 3)
        assert np.array_equal(again[0], targets) and np.array_equal(again[1]["path_end"], rankings["path_end"])

    @pytest.mark.parametrize("corpus", TRUTH_CORPORA)
    @pytest.mark.parametrize("k_truth", [1, 3, 5])
    def test_matches_the_tuple_oracle(self, corpus, k_truth):
        ds = corpus()
        assert _ranked(ds, MEASURES, k_truth) == _ground_truth_oracle(ds, MEASURES, k_truth)


class TestProjectUp:
    def test_longest_scored_suffix_wins(self):
        assert project_up(*_coded([("A", "B"), ("B",)], [("C", "A", "B")])).tolist() == [0]

    def test_shorter_suffix_as_fallback(self):
        assert project_up(*_coded([("B",), ("X", "B")], [("C", "B")])).tolist() == [0]

    def test_exact_match_preferred(self):
        assert project_up(*_coded([("C", "B"), ("B",)], [("C", "B")])).tolist() == [0]

    def test_min_fallback(self):
        values = np.array([5.0, -1.0])
        suffixes = project_up(*_coded([("A",), ("B",)], [("Z",), ("A",)]))
        assert suffixes.tolist() == [-1, 0]
        assert _scored(values, suffixes).tolist() == [-1.0, 5.0]
        assert _scored(np.zeros(0), np.array([-1, -1])).tolist() == [0.0, 0.0]

    def test_one_entry_per_target_in_order(self):
        keys = [("a",), ("b", "a")]
        targets = [("b", "a"), ("c",), ("c", "a"), ("a",)]
        assert project_up(*_coded(keys, targets)).tolist() == [1, -1, 0, 0]

    def test_no_keys_or_no_targets(self):
        keys, targets = _coded([("a",)], [("b", "a")])
        assert project_up(keys[:0], targets).tolist() == [-1]
        assert project_up(keys, targets[:0]).tolist() == []

    @pytest.mark.parametrize("label", ["N", "M1", "M2", "M3"])
    def test_suffixes_and_scores_match_the_tuple_oracles(self, label):
        ds = generators.order2_families(seed=5, n_paths=400)
        train, test = split(ds, 0.3, [0, 0])
        targets, _ = ground_truth(test, ("visitation",), 4)
        kind, k = parse_model_label(label)
        keys, preds = _predictions(fit_network(train) if kind == "network" else fit_mogen(train, k),
                                   ("betweenness", "closeness"), np.unique(train.encoded[1]))
        suffixes = project_up(keys, targets)
        assert len(suffixes) == len(targets)
        keys, targets = _named(ds, keys), _target_tuples(test, targets)
        expected = _project_up_oracle(set(keys), targets)
        assert [None if j < 0 else keys[j] for j in suffixes.tolist()] == expected
        for values in preds.values():
            assert _scored(values, suffixes).tolist() == _scored_oracle(dict(zip(keys, values.tolist())), expected)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**16), st.floats(0.2, 0.8), st.integers(1, 5), st.integers(0, 2))
    def test_matches_the_tuple_walk_for_every_model(self, seed, fraction, k_truth, corpus):
        """N, M1-M5 and P keys over random splits: the integer walk finds the
        suffix that the tuple walk finds, and the keys name the model's states."""
        ds = [lambda: generators.order2_families(seed=seed % 7, n_paths=60),
              lambda: generators.first_order_walks(seed % 7, n_paths=60, n_nodes=4, max_len=8),
              lambda: generators.random_small_dataset(seed % 7)][corpus]()
        try:
            train, test = split(ds, fraction, seed)
        except DataError:
            return
        targets, _ = ground_truth(test, ("visitation",), k_truth)
        names = _target_tuples(test, targets)
        for label in ("N", "M1", "M2", "M3", "M4", "M5", "P"):
            kind, k = parse_model_label(label)
            if kind == "path":
                keys = np.unique(np.concatenate([train._codes(m)[0] for m in range(1, k_truth + 1)]))
                want = list(scored_sequences(train, ("visitation",), k_truth)["visitation"])
            else:
                model = fit_network(train) if kind == "network" else fit_mogen(train, k)
                keys, _ = _predictions(model, ("closeness",), np.unique(train.encoded[1]))
                nodes = model.node_index[0] if kind == "mogen" else model.nodes
                want = [(v,) for v in nodes] + [s for s in getattr(model, "states", ()) if len(s) >= 2]
            assert _named(ds, keys) == want
            suffixes = project_up(keys, targets)
            assert [None if j < 0 else want[j] for j in suffixes.tolist()] == _project_up_oracle(set(want), names)


class TestAUC:
    def test_perfect_ranking(self):
        assert auc_score([True, True, False, False], [4, 3, 2, 1]) == 1.0

    def test_inverted_ranking(self):
        assert auc_score([True, True, False, False], [1, 2, 3, 4]) == 0.0

    def test_all_tied_is_half(self):
        assert auc_score([True, False], [1.0, 1.0]) == 0.5

    def test_midrank_ties(self):
        assert auc_score([True, False, False], [2.0, 2.0, 1.0]) == 0.75

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            auc_score([True, True], [1, 2])

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(0)
        labels = np.zeros(10000, dtype=bool)
        labels[:1000] = True
        aucs = [
            auc_score(labels, rng.random(10000)) for _ in range(5)
        ]
        assert abs(np.mean(aucs) - 0.5) < 0.02

    @pytest.mark.parametrize("levels", [None, 3, 40])
    def test_matches_rankdata_oracle(self, levels):
        rng = np.random.default_rng(levels or 0)
        for _ in range(20):
            n = int(rng.integers(2, 300))
            scores = rng.random(n) if levels is None else rng.integers(levels, size=n) / 7
            labels = rng.random(n) < 0.3
            labels[:2] = [True, False]
            n_pos = labels.sum()
            expected = (rankdata(scores)[labels].sum() - n_pos * (n_pos + 1) / 2) / (
                n_pos * (n - n_pos)
            )
            assert auc_score(labels, scores) == expected


    def test_scores_within_the_tolerance_tie(self):
        assert auc_score([True, False], [1.0, 1.0 + 1e-12]) == 0.5
        assert auc_score([True, False, False], [2.0, 2.0 - 1e-13, 1.0]) == 0.75
        assert auc_score([True, False], [1.0, 1.0 + 1e-6]) == 0.0
        # the gap is measured against the largest |score|
        assert auc_score([True, False, False], [1e-3, 1e-3 + 1e-11, -100.0]) == 0.75

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.integers(-20, 20).filter(bool), st.integers(-4, 4)),
                    min_size=2, max_size=60),
           st.integers(-300, 300))
    def test_a_few_ulps_of_noise_move_no_auc(self, rows, exponent):
        # distinct values lie at least 1/20 of the largest |score| apart, far beyond the
        # tolerance; no value is 0, whose ulps are no relative change
        labels = np.array([hit for hit, _, _ in rows])
        if labels.all() or not labels.any():
            return
        scores = np.array([level for _, level, _ in rows]) * 2.0 ** (exponent // 10)
        noisy = scores.copy()
        for i, (_, _, ulps) in enumerate(rows):
            for _ in range(abs(ulps)):
                noisy[i] = np.nextafter(noisy[i], np.copysign(np.inf, ulps))
        assert auc_score(labels, noisy) == auc_score(labels, scores)


def _sequential_closeness(model) -> np.ndarray:
    """Per-state closeness summed as the breadth-first search once summed it:
    1/d added once per state first reached at d."""
    out = np.zeros(model.n_states)
    for lo, dist, level in models._first_reached((model.indptr, model.indices), np.arange(model.n_states)):
        reached = np.diff(level.indptr)
        np.add.at(out, lo + np.repeat(np.arange(len(reached)), reached), 1.0 / dist)
    return out


def _solve_other_step(model, system, b):
    """The chain solve with its fixed-point step written x += b + A x - x."""
    a = model.trans_p.T.tocsr() if system == "S.F" else model.trans_p
    x = np.zeros_like(b)
    for _ in range(models._MAX_ITER):
        if np.abs(x - a @ x - b).max() <= models._TOL * np.abs(x).max():
            return x
        x += b + a @ x - x
    raise AssertionError("no fixed point")


class TestTiePolicy:
    """Last-bit changes to the scores that once moved AUCs move none; with the
    tolerance at 0 they still do, so each case shows the policy at work."""

    @staticmethod
    def _aucs(monkeypatch, ds, spec, label, measure, tol, patch=None):
        with monkeypatch.context() as m:
            m.setattr(experiment, "TIE_TOL", tol)
            if patch:
                m.setattr(*patch)
            return evaluate(ds, spec, (label,), (measure,), 5)[0].aucs

    def _moved(self, monkeypatch, ds, spec, label, measure, patch):
        return {tol: self._aucs(monkeypatch, ds, spec, label, measure, tol)
                != self._aucs(monkeypatch, ds, spec, label, measure, tol, patch)
                for tol in (0.0, TIE_TOL)}

    def test_solver_step_moves_no_path_reach_auc(self, monkeypatch):
        # the other step moved a path_reach:M2 replicate by 1.7e-6 before ties had a tolerance
        ds = generators.order2_families(seed=0, n_paths=5000)
        moved = self._moved(monkeypatch, ds, SplitSpec(0.3, 0, 5), "M2", "path_reach",
                            (models, "_solve", _solve_other_step))
        assert moved == {0.0: True, TIE_TOL: False}

    def test_closeness_summation_moves_no_closeness_auc(self, monkeypatch):
        # closeness summed per level as count / d moved closeness:M4 against 1/d per state
        ds = generators.first_order_walks(0, n_paths=4000, n_nodes=30, stop_p=0.15, max_len=12)
        state_scores = centrality.mogen_state_scores
        sequential = (centrality, "mogen_state_scores",
                      lambda model, m: _sequential_closeness(model) if m == "closeness" else state_scores(model, m))
        moved = self._moved(monkeypatch, ds, SplitSpec(0.3, 0, 1), "M4", "closeness", sequential)
        assert moved == {0.0: True, TIE_TOL: False}


class TestModelLabels:
    def test_labels(self):
        assert parse_model_label("N") == ("network", None)
        assert parse_model_label("P") == ("path", None)
        assert parse_model_label("M3") == ("mogen", 3)

    @pytest.mark.parametrize("bad", ["M0", "Q", "M", "m2"])
    def test_bad_labels(self, bad):
        with pytest.raises(DataError):
            parse_model_label(bad)


class TestEvaluate:
    def test_result_shape_and_network_skips_path_measures(self):
        ds = generators.order2_families(seed=0, n_paths=400)
        res = evaluate(
            ds, SplitSpec(0.3, seed=1, replicates=2),
            models=("N", "M1", "P"),
            measures=("betweenness", "path_end"),
            k_truth=2,
        )
        keys = {(r.model, r.measure) for r in res}
        assert ("N", "betweenness") in keys
        assert ("N", "path_end") not in keys
        assert ("P", "path_end") in keys
        assert all(len(r.aucs) == 2 for r in res)
        assert all(0.0 <= a <= 1.0 for r in res for a in r.aucs)

    def test_deterministic(self):
        ds = generators.order2_families(seed=0, n_paths=300)
        spec = SplitSpec(0.3, seed=2, replicates=2)
        r1 = evaluate(ds, spec, models=("M2",), measures=("path_end",), k_truth=2)
        r2 = evaluate(ds, spec, models=("M2",), measures=("path_end",), k_truth=2)
        assert r1[0].aucs == r2[0].aucs

    def test_lossless_order_predicts_well(self):
        # a model refit at the dataset's own scale should beat chance easily
        ds = generators.order2_families(seed=0, n_paths=600)
        res = evaluate(
            ds, SplitSpec(0.5, seed=3, replicates=3),
            models=("M2",), measures=("path_end",), k_truth=3,
        )
        assert res[0].mean > 0.8

    @pytest.mark.parametrize("corpus", [
        lambda: generators.order2_families(seed=3, n_paths=300),
        lambda: generators.first_order_walks(seed=4, n_paths=200, n_nodes=5, max_len=9),
    ])
    def test_matches_the_tuple_pipeline(self, corpus):
        """Every model's AUCs equal those of the same experiment on label tuples."""
        ds, spec, models = corpus(), SplitSpec(0.4, seed=5, replicates=2), ("N", "M1", "M2", "M3", "P")
        got = evaluate(ds, spec, models=models, measures=MEASURES, k_truth=4)
        assert {(r.model, r.measure): list(r.aucs) for r in got} == _evaluate_oracle(ds, spec, models, MEASURES, 4)

    def test_results_are_measure_major_and_match_single_pair_runs(self):
        # one ground-truth pass and one suffix resolution per model must
        # give every pair the AUCs of a run that scores that pair alone
        ds = generators.order2_families(seed=0, n_paths=300)
        spec = SplitSpec(0.3, seed=4, replicates=2)
        models, measures = ("N", "M2", "P"), ("path_end", "closeness", "betweenness")
        res = evaluate(ds, spec, models=models, measures=measures, k_truth=3)
        assert [(r.model, r.measure) for r in res] == [
            (label, m) for m in measures for label in models
            if not (label == "N" and m == "path_end")
        ]
        for r in res:
            alone = evaluate(ds, spec, models=(r.model,), measures=(r.measure,), k_truth=3)
            assert alone[0].aucs == r.aucs

    def test_each_model_scores_the_same_keys_under_every_measure(self):
        # evaluate resolves a model's suffixes once for all its measures: one key
        # index per model, and per measure the scores the per-measure dicts held
        train = generators.order2_families(seed=0, n_paths=200)
        network_measures = [m for m in MEASURES if m not in PATH_MEASURES]
        for model, measures in ((fit_network(train), network_measures), (fit_mogen(train, 2), MEASURES)):
            keys, scores = _predictions(model, measures, np.unique(train.encoded[1]))
            assert list(scores) == list(measures) and len(set(keys.tolist())) == len(keys)
            keys = _named(train, keys)
            for m in measures:
                vec = compute(model, m)
                expected = {(v,): s for v, s in as_dict(vec).items()}
                if isinstance(model, MOGenModel):
                    state = mogen_state_scores(model, m)
                    expected.update((s, v) for s, v in zip(model.states, state.tolist()) if len(s) >= 2)
                assert dict(zip(keys, scores[m].tolist())) == expected

    def test_repeated_models_and_measures_count_once(self):
        ds = generators.order2_families(seed=0, n_paths=300)
        spec = SplitSpec(0.3, seed=4, replicates=2)
        once = evaluate(ds, spec, models=("M2", "N"), measures=("betweenness", "path_end"), k_truth=2)
        again = evaluate(ds, spec, models=("M2", "M2", "N", "M2"),
                         measures=("betweenness", "path_end", "betweenness"), k_truth=2)
        assert [(r.model, r.measure) for r in again] == [
            ("M2", "betweenness"), ("N", "betweenness"), ("M2", "path_end")]
        assert again == once
        assert all(len(r.aucs) == 2 for r in again)

    def test_no_supported_pair_is_data_error(self):
        ds = generators.order2_families(seed=0, n_paths=100)
        with pytest.raises(DataError, match="no requested measure"):
            evaluate(ds, SplitSpec(0.3), models=("N",), measures=("path_end",))
        with pytest.raises(DataError, match="no requested measure"):
            evaluate(ds, SplitSpec(0.3), models=(), measures=("betweenness",))

    def test_bad_spec(self):
        with pytest.raises(DataError):
            SplitSpec(0.0)
        with pytest.raises(DataError):
            SplitSpec(0.5, replicates=0)
        with pytest.raises(DataError, match="seed"):
            SplitSpec(0.5, seed=-1)
