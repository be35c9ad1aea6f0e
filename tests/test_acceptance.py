"""Acceptance suite: the end-to-end properties the package must satisfy.

Each test class pins one criterion with explicit tolerances.  Values marked
[DERIVED] were computed by hand or with an independent method before the
implementation was written.
"""
import json
import time
from collections import Counter

import numpy as np
import pytest

from pathcent import centrality, experiment, smells
from pathcent.centrality import MEASURES
from pathcent.cli import main
from pathcent.models import encode_path, fit_mogen, fit_path, select_order
from pathcent.pathdata import rolling_windows, write_paths

import generators
from test_centrality import brute_force
from test_models import _fit_network_oracle
from vector_dicts import as_dict


class TestCriterion1LosslessOracle:
    """MOGen at K = max path length projects to exactly the path-model scores.

    200 randomized datasets, all six measures, agreement within 1e-9,
    total runtime under two minutes.
    """

    def test_lossless_projection_200_datasets(self):
        t0 = time.monotonic()
        for seed in range(200):
            ds = generators.random_small_dataset(seed)
            pm = fit_path(ds)
            mm = fit_mogen(ds, ds.max_length)
            for measure in MEASURES:
                want = as_dict(centrality.compute(pm, measure))
                got = as_dict(centrality.compute(mm, measure))
                assert set(want) == set(got), (seed, measure)
                for node in want:
                    assert got[node] == pytest.approx(want[node], abs=1e-9), (
                        seed, measure, node)
        assert time.monotonic() - t0 < 120.0


class TestCriterion2FundamentalMatrix:
    """F = (I - Q)^-1 identities and stochasticity for every fitted model."""

    def _fitted_suite(self):
        toy = generators.toy_dataset()
        suite = [fit_mogen(toy, k) for k in range(1, toy.max_length + 1)]
        o2 = generators.order2_families(seed=1, n_paths=300)
        suite += [fit_mogen(o2, k) for k in (1, 2, 3)]
        suite += [fit_mogen(generators.random_small_dataset(s), 2) for s in range(5)]
        return suite

    def test_identities(self):
        for m in self._fitted_suite():
            Q = np.asarray(m.trans_p.todense())
            r = m.end_p
            n = m.n_states
            F = np.linalg.inv(np.eye(n) - Q)  # dense, for these small models
            # S.F and F.1 are the start-weighted rows and the row sums of F
            assert np.abs(m.expected_visits() - m.start_p @ F).max() < 1e-9
            assert np.abs(m.reach_totals() - F.sum(axis=1)).max() < 1e-9
            assert np.all(np.diag(F) >= 1.0 - 1e-12)
            # each state's outgoing mass (transitions + termination) is 1
            assert np.abs(Q.sum(axis=1) + r - 1.0).max() < 1e-12
            assert m.start_p.sum() == pytest.approx(1.0, abs=1e-12)


class TestCriterion3ToyCentralities:
    """Path-model centralities on the two-path toy dataset.

    [DERIVED] by enumerating sub-paths of A,C,D,E and B,C,D,F by hand.
    """

    EXPECTED = {
        "betweenness": {"A": 0.0, "B": 0.0, "C": 2.0, "D": 2.0, "E": 0.0, "F": 0.0},
        "path_end": {"A": 0.0, "B": 0.0, "C": 0.0, "D": 0.0, "E": 0.5, "F": 0.5},
        "path_continuation": {"A": 1.0, "B": 1.0, "C": 1.0, "D": 1.0, "E": 0.0, "F": 0.0},
        "path_reach": {"A": 3.0, "B": 3.0, "C": 2.0, "D": 1.0, "E": 0.0, "F": 0.0},
        "visitation": {"A": 0.125, "B": 0.125, "C": 0.25, "D": 0.25, "E": 0.125, "F": 0.125},
        "closeness": {"A": 1 + 1 / 2 + 1 / 3, "B": 1 + 1 / 2 + 1 / 3,
                      "C": 2.0, "D": 2.0, "E": 0.0, "F": 0.0},
    }

    @pytest.mark.parametrize("measure", MEASURES)
    def test_against_derivation_and_brute_force(self, measure):
        ds = generators.toy_dataset()
        got = as_dict(centrality.compute(fit_path(ds), measure))
        oracle = brute_force(ds, measure)
        for node, value in self.EXPECTED[measure].items():
            assert got[node] == pytest.approx(value, abs=1e-9)
            assert oracle[node] == pytest.approx(value, abs=1e-9)


class TestCriterion4Encoding:
    def test_k3_walk(self):
        assert encode_path(("A", "C", "D", "E"), 3) == [
            "*", ("A",), ("A", "C"), ("A", "C", "D"), ("C", "D", "E"), "†",
        ]

    def test_k1_matches_first_order_transitions(self):
        ds = generators.toy_dataset()
        m1 = fit_mogen(ds, 1)
        _, edges = _fit_network_oracle(ds)
        leaving = Counter()  # per node: its transitions out plus the paths ending there
        for (u, _), count in edges.items():
            leaving[u] += count
        for p in ds.paths:
            leaving[p.nodes[-1]] += p.multiplicity
        assert m1.trans_p.nnz == len(edges)
        for (u, v), count in edges.items():
            i, j = m1.states.index((u,)), m1.states.index((v,))
            assert m1.trans_p[i, j] == pytest.approx(count / leaving[u], abs=1e-12)


class TestCriterion5PredictionAdvantage:
    """On an order-2 corpus the M2 model beats both baselines by >= 0.05 AUC.

    The network model cannot score path_end (it has no notion of where
    walks stop), so the path_end margin is measured against P alone.
    Runtime under one minute.
    """

    def test_margins(self):
        t0 = time.monotonic()
        ds = generators.order2_families(seed=1)
        spec = experiment.SplitSpec(train_fraction=0.1, seed=7, replicates=5)
        results = experiment.evaluate(
            ds, spec, models=("N", "M2", "P"),
            measures=("betweenness", "path_end"), k_truth=3,
        )
        mean = {(r.model, r.measure): r.mean for r in results}
        assert mean[("M2", "betweenness")] >= mean[("N", "betweenness")] + 0.05
        assert mean[("M2", "betweenness")] >= mean[("P", "betweenness")] + 0.05
        assert ("N", "path_end") not in mean
        assert mean[("M2", "path_end")] >= mean[("P", "path_end")] + 0.05
        assert time.monotonic() - t0 < 60.0


class TestCriterion6OrderSelection:
    def test_first_order_corpora(self):
        for seed in range(10):
            ds = generators.first_order_walks(seed, n_paths=10000)
            assert select_order(ds, k_max=3) == 1, seed

    def test_second_order_corpora(self):
        for seed in range(10):
            ds = generators.order2_families(seed=seed)
            assert select_order(ds, k_max=3) >= 2, seed


class TestCriterion7SmellPipeline:
    """A member planted with a 0.7 end share is ranked first with a
    deviation score at least twice the runner-up, and carries the
    end-dominance flag.  Runtime under one minute.
    """

    def test_planted_member_detected(self):
        t0 = time.monotonic()
        series_list = []
        for platform, seed in (("p1", 0), ("p2", 1)):
            ds = generators.smell_corpus(seed=seed)
            windows = rolling_windows(ds, 100, 100)
            series_list.append(
                smells.windowed_centralities(windows, k=2, platform=platform))
        scores = smells.deviation_scores(series_list)
        ranked = smells.rank_members(scores)
        assert ranked[0] == "zed"
        by_member = {d.member: d.total for d in scores}
        runner_up = max(v for m, v in by_member.items() if m != "zed")
        assert by_member["zed"] >= 2.0 * runner_up
        ev = smells.evidence(series_list[0], "zed", theta_end=0.5, min_consecutive=4)
        assert ev.end_dominance
        assert time.monotonic() - t0 < 60.0


class TestCriterion8PublishedCorpora:
    """Reference statistics for the published ticket/contact corpora.

    Skipped when the raw data files are not present in the workspace.
    """

    DATA_HINTS = ("data/bms1", "data/school", "data/hospital", "data/work")

    def test_reference_statistics(self, request):
        root = request.config.rootpath
        if not any((root / hint).exists() for hint in self.DATA_HINTS):
            pytest.skip("reference corpora not available in this workspace")
        raise AssertionError("reference corpora present but checks not wired up")


class TestCriterion9AUCProperties:
    def test_perfect_and_inverted(self):
        labels = [1, 1, 0, 0]
        assert experiment.auc_score(labels, [4, 3, 2, 1]) == 1.0
        assert experiment.auc_score(labels, [1, 2, 3, 4]) == 0.0

    def test_random_scores_near_half(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            labels = [1] * 1000 + [0] * 9000
            scores = rng.random(10000)
            assert experiment.auc_score(labels, scores) == pytest.approx(0.5, abs=0.02)


class TestCriterion10Determinism:
    def test_experiment_rerun_byte_identical(self, tmp_path):
        src = tmp_path / "order2.paths"
        with open(src, "w", encoding="utf-8") as fh:
            write_paths(generators.order2_families(seed=1, n_paths=300), fh)
        args = [
            "experiment", "--input", str(src), "--models", "N,M2,P",
            "--measure", "betweenness", "--train-fraction", "0.3",
            "--replicates", "3", "--k-truth", "2", "--seed", "5",
        ]
        for run in ("a", "b"):
            assert main(args + ["--output-dir", str(tmp_path / run)]) == 0
        for name in ("auc.csv", "auc.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()
        doc = json.loads((tmp_path / "a" / "auc.json").read_text())
        assert doc["config"]["seed"] == 5
