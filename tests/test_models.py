"""Model fitting: encoding, transition counting, block structure, AIC order
selection, and serialization."""
import io
import json

import numpy as np
import pytest

from pathcent import (
    DataError,
    MOGenModel,
    Path,
    PathDataset,
    encode_path,
    fit_mogen,
    fit_network,
    fit_path,
    fundamental_matrix,
    select_order,
)
from pathcent.pathdata import END, START

import generators


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


class TestFitNetwork:
    def test_edge_counts_include_multiplicity(self):
        ds = PathDataset([Path(("a", "b", "c"), 2), Path(("b", "c"), 1)])
        model = fit_network(ds)
        assert model.edges == {("a", "b"): 2, ("b", "c"): 3}
        assert model.vocabulary == {"a", "b", "c"}
        assert model.kind == "network"


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
        i_a = model.index[("A",)]
        assert model.start_p[i_a] == pytest.approx(0.5)
        i_de = model.index[("D", "E")]
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
        i_b, i_c = model.index[("b",)], model.index[("c",)]
        assert model.trans_p[i_b, i_c] == pytest.approx(0.75)

    def test_expected_visits_on_toy(self):
        model = fit_mogen(generators.toy_dataset(), 2)
        sf = model.expected_visits()
        # every state lies on exactly one of two equiprobable paths,
        # except the shared (C, D) which lies on both  [DERIVED]
        for s in model.states:
            expected = 1.0 if s == ("C", "D") else 0.5
            assert sf[model.index[s]] == pytest.approx(expected)

    def test_invalid_order(self):
        with pytest.raises(DataError):
            fit_mogen(generators.toy_dataset(), 0)


class TestFundamentalMatrix:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_identity_and_diagonal(self, k):
        model = fit_mogen(generators.order2_families(seed=5, n_paths=300), k)
        f = fundamental_matrix(model)
        q = model.trans_p.toarray()
        assert np.max(np.abs(f - (np.eye(model.n_states) + q @ f))) < 1e-9
        assert np.all(np.diag(f) >= 1.0)

    def test_sparse_path_agrees_with_dense(self):
        model = fit_mogen(generators.order2_families(seed=5, n_paths=300), 2)
        dense = fundamental_matrix(model, dense_threshold=10**9)
        sparse = fundamental_matrix(model, dense_threshold=0)
        assert np.max(np.abs(dense - sparse)) < 1e-9

    def test_cyclic_paths_still_absorbing(self):
        ds = PathDataset([Path(("a", "b", "a", "b", "a"))])
        model = fit_mogen(ds, 1)
        f = fundamental_matrix(model)
        assert np.all(np.isfinite(f))


class TestLogLikelihoodAndOrderSelection:
    def test_loglik_single_path_is_zero(self):
        # one deterministic path: every probability is 1
        model = fit_mogen(PathDataset([Path(("a", "b", "c"))]), 2)
        assert model.log_likelihood() == pytest.approx(0.0)

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


class TestSerialization:
    def test_json_roundtrip(self):
        model = fit_mogen(generators.order2_families(seed=4, n_paths=200), 2)
        text = model.to_json()
        again = MOGenModel.from_json(text)
        assert again.states == model.states
        assert np.array_equal(again.start_p, model.start_p)
        assert np.array_equal(again.end_p, model.end_p)
        assert (again.trans_p != model.trans_p).nnz == 0
        assert again.to_json() == text

    @pytest.mark.parametrize("mangle", [
        lambda doc: {},
        lambda doc: {k: v for k, v in doc.items() if k != "trans_counts"},
        lambda doc: {**doc, "states": "AB"},
        lambda doc: {**doc, "states": ["A", "B"]},
        lambda doc: {**doc, "order": "2"},
        lambda doc: {**doc, "start_counts": doc["start_counts"][:-1]},
        lambda doc: {**doc, "trans_counts": [t[:2] for t in doc["trans_counts"]]},
        lambda doc: {**doc, "trans_counts": [[0, 10**6, 1.0]]},
        lambda doc: [doc],
    ], ids=["empty", "no_trans_counts", "states_string", "state_strings", "order_string",
            "short_start_counts", "short_triplets", "index_out_of_range", "not_object"])
    def test_malformed_json_is_data_error(self, mangle):
        doc = json.loads(fit_mogen(generators.toy_dataset(), 2).to_json())
        with pytest.raises(DataError):
            MOGenModel.from_json(json.dumps(mangle(doc)))

    def test_invalid_json_is_data_error(self):
        with pytest.raises(DataError):
            MOGenModel.from_json("{")

    def test_json_stream(self):
        model = fit_mogen(generators.toy_dataset(), 2)
        buf = io.StringIO()
        model.to_json(buf)
        doc = json.loads(buf.getvalue())
        assert doc["order"] == 2


class TestFitPath:
    def test_wraps_dataset(self):
        ds = generators.toy_dataset()
        model = fit_path(ds)
        assert model.dataset is ds
        assert model.kind == "path"
