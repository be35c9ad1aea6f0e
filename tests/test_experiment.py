"""Prediction experiment: splitting, ground truth, projection, AUC, evaluate."""

import numpy as np
import pytest
from scipy.stats import rankdata

from pathcent import (
    DataError,
    Path,
    PathDataset,
    SplitSpec,
    auc_score,
    evaluate,
    ground_truth,
    project_up,
    split,
)
from pathcent.experiment import parse_model_label

import generators


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


class TestGroundTruth:
    def test_sorted_descending_with_tie_rule(self):
        ds = generators.toy_dataset()
        gt = ground_truth(ds, "betweenness", 2)
        scores = [v for _, v in gt]
        assert scores == sorted(scores, reverse=True)
        tied = [s for s, v in gt if v == 0.0]
        assert tied == sorted(tied)

    def test_contains_all_orders_up_to_k(self):
        gt = ground_truth(generators.toy_dataset(), "visitation", 3)
        lengths = {len(s) for s, _ in gt}
        assert lengths == {1, 2, 3}

    def test_top_state_on_toy(self):
        gt = ground_truth(generators.toy_dataset(), "betweenness", 2)
        top = [s for s, v in gt if v == 2.0]
        assert top == [("C",), ("C", "D"), ("D",)]

    def test_unknown_measure(self):
        with pytest.raises(DataError):
            ground_truth(generators.toy_dataset(), "pagerank", 2)


class TestProjectUp:
    def test_longest_scored_suffix_wins(self):
        scores = {("A", "B"): 7.0, ("B",): 2.0}
        proj = project_up(scores, [("C", "A", "B")])
        assert proj[("C", "A", "B")] == 7.0

    def test_shorter_suffix_as_fallback(self):
        scores = {("B",): 2.0, ("X", "B"): 9.0}
        proj = project_up(scores, [("C", "B")])
        assert proj[("C", "B")] == 2.0

    def test_exact_match_preferred(self):
        scores = {("C", "B"): 4.0, ("B",): 2.0}
        assert project_up(scores, [("C", "B")])[("C", "B")] == 4.0

    def test_min_fallback(self):
        scores = {("A",): 5.0, ("B",): -1.0}
        proj = project_up(scores, [("Z",)])
        assert proj[("Z",)] == -1.0

    def test_exclude_fallback(self):
        proj = project_up({("A",): 5.0}, [("Z",), ("A",)], fallback="exclude")
        assert ("Z",) not in proj and proj[("A",)] == 5.0


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

    def test_bad_spec(self):
        with pytest.raises(DataError):
            SplitSpec(0.0)
        with pytest.raises(DataError):
            SplitSpec(0.5, replicates=0)
