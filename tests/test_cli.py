"""CLI pipeline: commands, exit codes, embedded metadata, determinism."""
import dataclasses
import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathcent
from pathcent import centrality as cent
from pathcent import cli
from pathcent import experiment as exp
from pathcent import smells
from pathcent.centrality import MEASURES
from pathcent.cli import (_chunks, _Column, _csv_header, _fmt, _write_json, load_dataset, main,
                          parse_duration)
from pathcent.errors import UnsupportedMeasureError
from pathcent.models import fit_mogen, fit_network, fit_path
from pathcent.pathdata import rolling_windows, write_paths

import generators
from ranking_oracles import scored_sequences
from vector_dicts import as_dict, edge_dicts


@pytest.fixture()
def paths_file(tmp_path):
    target = tmp_path / "toy.paths"
    with open(target, "w", encoding="utf-8") as fh:
        write_paths(generators.toy_dataset(multiplicity=5), fh)
    return str(target)


@pytest.fixture()
def order2_file(tmp_path):
    target = tmp_path / "order2.paths"
    with open(target, "w", encoding="utf-8") as fh:
        write_paths(generators.order2_families(seed=1, n_paths=300), fh)
    return str(target)


@pytest.fixture()
def smell_files(tmp_path):
    out = []
    for name, seed in (("p1", 0), ("p2", 1)):
        target = tmp_path / f"{name}.paths"
        with open(target, "w", encoding="utf-8") as fh:
            write_paths(generators.smell_corpus(seed=seed), fh)
        out.append(str(target))
    return out


class TestParseDuration:
    def test_units(self):
        assert parse_duration("800") == 800
        assert parse_duration("800s") == 800
        assert parse_duration("90d") == 90 * 86400
        assert parse_duration("3m") == 90 * 86400
        assert parse_duration("1y") == 365 * 86400

    def test_bad_duration(self):
        import click

        with pytest.raises(click.UsageError):
            parse_duration("3 weeks")

    @pytest.mark.parametrize("text", ["0", "0s", "00d", "0y"])
    def test_zero_duration_is_usage_error(self, text):
        import click

        with pytest.raises(click.UsageError, match="positive"):
            parse_duration(text)


class TestIngest:
    def test_paths_format(self, paths_file, tmp_path):
        out = tmp_path / "out"
        code = main([
            "ingest", "--input", paths_file, "--format", "paths",
            "--output-dir", str(out),
        ])
        assert code == 0
        assert (out / "dataset.paths").exists()
        stats = json.loads((out / "stats.json").read_text())
        assert stats["results"]["total_paths"] == 10
        assert stats["results"]["unique_paths"] == 2
        assert "input_sha256" in stats

    def test_temporal_edges(self, tmp_path):
        src = tmp_path / "edges.csv"
        src.write_text("source,target,time\na,b,0\nb,c,100\n")
        out = tmp_path / "out"
        code = main([
            "ingest", "--input", str(src), "--format", "temporal-edges",
            "--delta", "800s", "--output-dir", str(out),
        ])
        assert code == 0
        body = (out / "dataset.paths").read_text()
        assert "a,b,c;1;0" in body

    def test_actions(self, tmp_path):
        src = tmp_path / "actions.csv"
        src.write_text("key,actor,time\nT-1,ann,1\nT-1,bob,2\n")
        out = tmp_path / "out"
        code = main([
            "ingest", "--input", str(src), "--format", "actions",
            "--output-dir", str(out),
        ])
        assert code == 0
        assert "ann,bob;1;1" in (out / "dataset.paths").read_text()

    def test_missing_delta_is_usage_error(self, tmp_path):
        src = tmp_path / "edges.csv"
        src.write_text("a,b,0\n")
        code = main([
            "ingest", "--input", str(src), "--format", "temporal-edges",
            "--output-dir", str(tmp_path / "out"),
        ])
        assert code == 1

    def test_malformed_input_is_data_error(self, tmp_path):
        src = tmp_path / "bad.paths"
        src.write_text("a,b;NaN\n")
        code = main([
            "ingest", "--input", src.as_posix(), "--format", "paths",
            "--output-dir", str(tmp_path / "out"),
        ])
        assert code == 2

    def test_comma_in_label_under_other_delimiter_is_data_error(self, tmp_path, capsys):
        src = tmp_path / "colon.paths"
        src.write_text("a,b:c\n")
        code = main([
            "ingest", "--input", str(src), "--format", "paths", "--delimiter", ":",
            "--output-dir", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "node label 'a,b'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_label_starting_with_hash_is_data_error(self, tmp_path, capsys):
        # parse_paths skips '#' lines as headers, so such a label would be
        # written at the start of a line and silently dropped on reload
        src = tmp_path / "hash.paths"
        src.write_text("#general,bob;3\nbob,carol;2\ncarol,#general;1\n")
        code = main([
            "ingest", "--input", str(src), "--format", "paths",
            "--output-dir", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "node label '#general'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def _write_json_oracle(path, meta, results):
    doc = dict(meta)
    doc["results"] = results
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _meta_oracle(config, *input_paths):
    """The metadata of a run on its inputs, from its config written out by hand."""
    return {"config": config, "input_sha256": {
        p: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in sorted(input_paths)}}


def _centrality_oracle(input_path, model, k, measures, edge_report, min_visitation, out):
    """The writer that kept every value in a row list beside the JSON dicts,
    with the per-state rows of each measure in the model's row order."""
    ds = load_dataset(input_path)
    config = {
        "command": "centrality", "model": model, "k": k, "k_max": 5,
        "measures": list(measures), "edges": edge_report, "min_visitation": min_visitation,
    }
    if model == "network":
        fitted = fit_network(ds)
    elif model == "path":
        fitted = fit_path(ds)
    else:
        fitted = fit_mogen(ds, k)
        keys = ["|".join(s) for s in fitted.states]
    rows, json_results, skipped = [], {}, []
    for measure in measures:
        try:
            vec = cent.compute(fitted, measure)
        except UnsupportedMeasureError:
            skipped.append(measure)
            continue
        scores = as_dict(vec)
        for node in sorted(scores):
            rows.append((measure, model, node, scores[node]))
        json_results[measure] = {"first_order": {n: scores[n] for n in sorted(scores)}}
        if vec.state_scores is not None:
            vals = vec.state_scores.tolist()
            rows.extend((measure, model, key, v) for key, v in zip(keys, vals))
            json_results[measure]["states"] = dict(zip(keys, vals))
    if edge_report:
        report = cent.edge_centralities(fitted, measures=[m for m in measures if m not in skipped],
                                        min_visitation=min_visitation)
        shares, values = edge_dicts(fitted, report)
        json_results["edges"] = {
            "|".join(s): {"visitation_share": shares[s], **values[s]}
            for s in sorted(values)
        }
    out.mkdir(parents=True)
    meta = _meta_oracle(config, input_path)
    with open(out / "centrality.csv", "w", encoding="utf-8") as fh:
        _csv_header(fh, meta)
        fh.write("measure,model,state,score\n")
        for measure, mdl, state, score in rows:
            fh.write(f"{measure},{mdl},{state},{_fmt(score)}\n")
    _write_json_oracle(out / "centrality.json", meta, json_results)


def _experiment_oracle(input_path, model_labels, measures, spec, k_truth, out):
    """The writer that looked every cell up by (model, measure)."""
    config = {
        "command": "experiment", "models": model_labels, "measures": list(measures),
        "train_fraction": spec.train_fraction, "replicates": spec.replicates,
        "k_truth": k_truth, "seed": spec.seed,
    }
    results = exp.evaluate(load_dataset(input_path), spec, model_labels, measures, k_truth)
    by_key = {(r.model, r.measure): r for r in results}
    out.mkdir(parents=True)
    meta = _meta_oracle(config, input_path)
    with open(out / "auc.csv", "w", encoding="utf-8") as fh:
        _csv_header(fh, meta)
        pairs = [(label, m) for m in measures for label in model_labels if (label, m) in by_key]
        fh.write("dataset," + ",".join(f"{m}:{label}" for label, m in pairs) + "\n")
        cells = [f"{by_key[pair].mean:.3f}" for pair in pairs]
        fh.write(Path(input_path).name + "," + ",".join(cells) + "\n")
    _write_json_oracle(out / "auc.json", meta, [
        {"model": r.model, "measure": r.measure, "mean": r.mean, "replicates": list(r.aucs)}
        for r in results
    ])


def _smells_oracle(platforms, window, shift, k, theta_end, theta_role, out):
    """The writer that copied each result field by hand into ``smells.json`` and wrote
    one ``series_<member>.csv`` per ranked member. Returns the lines of each member's
    file, keyed by member, instead of writing them: members whose unsafe characters
    were replaced by the same ones wrote to one file name."""
    config = {
        "command": "smells", "platforms": list(platforms), "window": window, "shift": shift,
        "k": k, "k_max": 3, "top": 5, "theta_end": theta_end, "consecutive": 4,
        "theta_role": theta_role,
    }
    parsed = dict(spec.split("=", 1) for spec in platforms)
    series_list = [
        smells.windowed_centralities(
            rolling_windows(load_dataset(path), parse_duration(window), parse_duration(shift)),
            None if k == "auto" else k, k_max=3, platform=name)
        for name, path in parsed.items()
    ]
    scores = smells.deviation_scores(series_list)
    ranked = smells.rank_members(scores, 5)
    by_member = {d.member: d for d in scores}
    report = {
        "ranked_members": ranked,
        "scores": {
            m: {
                "total": by_member[m].total,
                "per_platform": by_member[m].per_platform,
                "skipped_terms": by_member[m].skipped_terms,
            }
            for m in ranked
        },
        "evidence": {},
        "note": "hypothesis validation (interviews) is out of scope",
    }
    for member in ranked:
        report["evidence"][member] = []
        for series in series_list:
            if member not in series.members:
                continue
            ev = smells.evidence(series, member, theta_end=theta_end, min_consecutive=4,
                                 theta_role=theta_role)
            report["evidence"][member].append({
                "platform": series.platform,
                "end_dominance": ev.end_dominance,
                "end_dominance_windows": [list(r) for r in ev.end_dominance_windows],
                "code_red_windows": list(ev.code_red_windows),
            })
    out.mkdir(parents=True)
    meta = _meta_oracle(config, *parsed.values())
    _write_json_oracle(out / "smells.json", meta, report)
    team_means = [{m: series.team_means(m).tolist() for m in sorted(series.values)}
                  for series in series_list]
    lines = {}
    for member in ranked:
        lines[member] = ["# " + json.dumps(meta, sort_keys=True), "platform,window_start,measure,value,team_mean"]
        for series, means in zip(series_list, team_means):
            if member not in series.members:
                continue
            j = series.members.index(member)
            active = series.active[:, j].tolist()
            for measure, mean in means.items():
                rows = zip(series.window_starts, active, series.values[measure][:, j].tolist(), mean)
                for w, on, val, mu in rows:
                    if on:
                        lines[member].append(f"{series.platform},{w},{measure},{_fmt(val)},{_fmt(mu)}")
    return lines


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class TestWritersMatchOracles:
    def test_write_json_matches_dumps(self, tmp_path):
        meta = {"config": {"label": "Zoë→b"}, "input_sha256": {"x": "0"}}
        results = {"b|Zoë": {"z": 1.5, "a": [1, 2.25e-300]}, "édge": None}
        _write_json(tmp_path / "doc.json", meta, results)
        doc = {**meta, "results": results}
        assert (tmp_path / "doc.json").read_bytes() == (
            json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()

    @pytest.mark.parametrize("model, k, edges", [
        ("network", 2, False), ("path", 2, False), ("mogen", 1, False), ("mogen", 2, False),
        ("mogen", 2, True), ("mogen", 3, True),
    ])
    def test_centrality(self, order2_file, tmp_path, model, k, edges):
        args = ["centrality", "--input", order2_file, "--model", model, "--k", str(k),
                "--min-visitation", "0", "--output-dir", str(tmp_path / "new")]
        assert main(args + (["--edges"] if edges else [])) == 0
        _centrality_oracle(order2_file, model, k, MEASURES, edges, 0.0, tmp_path / "old")
        assert _files(tmp_path / "new") == _files(tmp_path / "old")

    def test_experiment(self, order2_file, tmp_path):
        assert main([
            "experiment", "--input", order2_file, "--models", "P,N,M2,M1",
            "--replicates", "2", "--k-truth", "2", "--seed", "5",
            "--output-dir", str(tmp_path / "new"),
        ]) == 0
        spec = exp.SplitSpec(0.3, 5, 2)
        _experiment_oracle(order2_file, ["P", "N", "M2", "M1"], MEASURES, spec, 2, tmp_path / "old")
        assert _files(tmp_path / "new") == _files(tmp_path / "old")

    @pytest.mark.parametrize("names", [False, True], ids=["smell-corpus", "unsafe-names"])
    def test_smells(self, smell_files, tmp_path, names):
        if names:  # the old writer named all three members' files series_a_b.csv
            src = tmp_path / "names.paths"
            src.write_text("a b,a_b;2;0\na_b,a/b;1;50\na/b,c,a b;3;120\nc,a b;1;170\n")
            platforms, thetas = [f"names={src}"], ["--theta-end", "1", "--theta-role", "0"]
        else:
            platforms, thetas = [f"p1={smell_files[0]}", f"p2={smell_files[1]}"], []
        args = [arg for spec in platforms for arg in ("--platform", spec)]
        new = tmp_path / "new"
        assert main(["smells", *args, "--window", "100", "--shift", "100", "--k", "2", *thetas,
                     "--output-dir", str(new)]) == 0
        theta_end, theta_role = (1.0, 0.0) if names else (0.5, 0.05)
        per_member = _smells_oracle(platforms, "100", "100", 2, theta_end, theta_role, tmp_path / "old")
        assert (new / "smells.json").read_bytes() == (tmp_path / "old" / "smells.json").read_bytes()
        lines = (new / "series.csv").read_text(encoding="utf-8").splitlines()
        comment, header = next(iter(per_member.values()))[:2]
        assert lines[:2] == [comment, "member," + header]
        assert lines[2:] == [f"{m},{row}" for m, rows in per_member.items() for row in rows[2:]]
        assert sorted(p.name for p in new.iterdir()) == ["series.csv", "smells.json"]
        if names:
            assert {"a b", "a_b", "a/b"} <= {line.split(",")[0] for line in lines[2:]}



#: Floats whose JSON or CSV text is easy to get wrong, then any float.
_FLOATS = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, 1e-300, 1e16, 0.1, math.nan, math.inf, -math.inf]),
                    st.floats())
#: Keys with non-ASCII and control characters, quotes and backslashes, then any text.
_KEYS = st.one_of(st.text(alphabet='ab"\\\x00\x1f\x7f\n\té→Ω😀|'), st.text())
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), _FLOATS, _KEYS)
_DOCS = st.recursive(_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=3).map(tuple),
    st.dictionaries(_KEYS, inner, max_size=4),
    st.dictionaries(st.one_of(st.integers(), st.floats(allow_nan=False), st.booleans()), inner, max_size=3)),
    max_leaves=20)


def _dumped(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


class TestJsonWriter:
    """``_write_json`` writes the bytes of ``json.dumps(..., sort_keys=True, indent=2)``."""

    @settings(max_examples=300, deadline=None)
    @given(meta=st.dictionaries(_KEYS, _DOCS, max_size=3), results=_DOCS)
    def test_matches_dumps(self, tmp_path_factory, meta, results):
        path = tmp_path_factory.getbasetemp() / "doc.json"
        _write_json(path, meta, results)
        assert path.read_bytes() == _dumped({**meta, "results": results})

    @settings(max_examples=200, deadline=None)
    @given(pairs=st.dictionaries(_KEYS, _FLOATS, max_size=12), chunk=st.sampled_from([1, 2, 5, 4096]),
           first=st.dictionaries(_KEYS, _FLOATS, max_size=3))
    def test_column_matches_the_dict_of_its_pairs(self, tmp_path_factory, pairs, chunk, first):
        keys = sorted(pairs)
        column = _Column([cli._encode(k) for k in keys], np.array([pairs[k] for k in keys], dtype=float))
        path = tmp_path_factory.getbasetemp() / "column.json"
        with mock.patch.object(cli, "_CHUNK", chunk):
            _write_json(path, {}, {"m": {"first_order": first, "states": column}, "z": column})
        assert path.read_bytes() == _dumped({"results": {"m": {"first_order": first, "states": pairs},
                                                          "z": pairs}})

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(_FLOATS, max_size=20).map(lambda xs: [*xs, 0.0, -0.0, 0.0]),
           chunk=st.sampled_from([1, 2, 5, 4096]))
    def test_csv_values_match_format_9g(self, values, chunk):
        keys = [f"s{i}" for i in range(len(values))]
        with mock.patch.object(cli, "_CHUNK", chunk):
            pairs = [pair for chunk in _chunks(keys, np.array(values), _fmt) for pair in zip(*chunk)]
        assert pairs == [(k, f"{x:.9g}") for k, x in zip(keys, values)]
        assert [_fmt(x) for x in values] == [f"{x:.9g}" for x in values]


class TestPathModelOnePass:
    def test_centrality_counts_occurrences_once(self, order2_file, tmp_path, monkeypatch):
        passes = []
        keyed = cent._keyed_rows
        monkeypatch.setattr(cent, "_keyed_rows", lambda *args: passes.append(args) or keyed(*args))
        computed = []
        compute = cent.compute
        monkeypatch.setattr(cent, "compute", lambda *args: computed.append(args[1]) or compute(*args))
        args = ["centrality", "--input", order2_file, "--model", "path", "--output-dir", str(tmp_path / "out")]
        assert main(args) == 0
        assert computed == list(MEASURES)
        assert len(passes) == 1

    def test_every_measure_equals_its_sequence_scores(self, order2_file):
        ds = load_dataset(order2_file)
        model = fit_path(ds)
        for measure in reversed(MEASURES):
            expected = scored_sequences(ds, (measure,))[measure]
            assert as_dict(cent.compute(model, measure)) == {s[0]: v for s, v in expected.items()}


class TestNotUtf8:
    """A byte sequence that is not UTF-8 is a data error (exit 2) wherever a file is read."""

    @pytest.mark.parametrize("command, options", [
        ("ingest", ["--format", "paths"]),
        ("ingest", ["--format", "temporal-edges", "--delta", "10"]),
        ("ingest", ["--format", "actions"]),
        ("centrality", ["--model", "path"]),
        ("experiment", []),
        ("smells", []),
    ])
    def test_is_a_data_error(self, tmp_path, capsys, command, options):
        src = tmp_path / "bad.txt"
        src.write_bytes(b"a,b,0\nb,\xff,5\n")
        where = ["--platform", f"p={src}"] if command == "smells" else ["--input", str(src)]
        assert main([command, *where, *options, "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "not UTF-8" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_load_dataset_raises_data_error(self, tmp_path):
        src = tmp_path / "bad.paths"
        src.write_bytes(b"a,b;1;0\n\xffc,d;2;5\n")
        with pytest.raises(pathcent.DataError, match="not UTF-8"):
            load_dataset(str(src))


class TestCentralityCommand:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_state_rows_follow_model_rows(self, order2_file, tmp_path, k):
        args = ["centrality", "--input", order2_file, "--model", "mogen", "--k", str(k)]
        assert main(args + ["--output-dir", str(tmp_path)]) == 0
        model = fit_mogen(load_dataset(order2_file), k)
        nodes = model.node_index[0]
        written = {m: [] for m in MEASURES}
        for line in (tmp_path / "centrality.csv").read_text().splitlines()[2:]:
            measure, _, state, _ = line.split(",")
            written[measure].append(state)
        for measure, states in written.items():
            assert states[:len(nodes)] == nodes  # first-order rows, sorted
            per_state = [] if measure == "closeness" else ["|".join(s) for s in model.states]
            assert states[len(nodes):] == per_state

    def test_mogen_report(self, paths_file, tmp_path):
        out = tmp_path / "cent"
        code = main([
            "centrality", "--input", paths_file, "--model", "mogen",
            "--k", "2", "--edges", "--output-dir", str(out),
        ])
        assert code == 0
        doc = json.loads((out / "centrality.json").read_text())
        assert doc["results"]["betweenness"]["first_order"]["C"] == pytest.approx(10.0)
        assert "C|D" in doc["results"]["betweenness"]["states"]
        assert "C|D" in doc["results"]["edges"]
        csv_body = (out / "centrality.csv").read_text()
        assert csv_body.splitlines()[1] == "measure,model,state,score"

    def test_error_line_numbers_count_the_header(self, tmp_path, capsys):
        src = tmp_path / "header.paths"
        src.write_text("# header\na,b;1\na,c;x\n")
        code = main([
            "centrality", "--input", str(src), "--model", "path",
            "--output-dir", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "line 3: malformed count 'x'" in capsys.readouterr().err

    def test_colliding_state_keys_are_data_error(self, tmp_path):
        src = tmp_path / "collide.paths"
        src.write_text("a|b,c\na,b|c\na,b,c\n")
        code = main([
            "centrality", "--input", str(src), "--model", "mogen", "--k", "2",
            "--output-dir", str(tmp_path / "out"),
        ])
        assert code == 2
        assert not (tmp_path / "out").exists()

    def test_network_skips_path_measures(self, paths_file, tmp_path):
        out = tmp_path / "cent"
        code = main([
            "centrality", "--input", paths_file, "--model", "network",
            "--output-dir", str(out),
        ])
        assert code == 0
        doc = json.loads((out / "centrality.json").read_text())
        assert set(doc["results"]) == {"betweenness", "closeness"}

    def test_network_only_path_measure_is_data_error(self, paths_file, tmp_path):
        code = main([
            "centrality", "--input", paths_file, "--model", "network",
            "--measure", "path_end", "--output-dir", str(tmp_path / "x"),
        ])
        assert code == 2

    def test_edges_require_mogen(self, paths_file, tmp_path):
        code = main([
            "centrality", "--input", paths_file, "--model", "path",
            "--edges", "--output-dir", str(tmp_path / "x"),
        ])
        assert code == 1

    def test_edges_flag_checked_before_loading(self, tmp_path):
        src = tmp_path / "bad.paths"
        src.write_text("a,b;NaN\n")  # a data error (exit 2) once loaded
        code = main([
            "centrality", "--input", str(src), "--model", "network",
            "--edges", "--output-dir", str(tmp_path / "x"),
        ])
        assert code == 1

    def test_edges_with_auto_order_one_is_data_error(self, tmp_path, capsys):
        src = tmp_path / "one.paths"
        src.write_text("a,b;3\n")  # AIC ties every order, so K=1 is selected
        code = main([
            "centrality", "--input", str(src), "--model", "mogen", "--k", "auto",
            "--edges", "--output-dir", str(tmp_path / "x"),
        ])
        assert code == 2 and "selected order K=1" in capsys.readouterr().out

    def test_repeated_measure_counts_once(self, paths_file, tmp_path):
        base = ["centrality", "--input", paths_file, "--model", "mogen", "--k", "2"]
        assert main(base + ["--measure", "betweenness", "--measure", "path_end",
                            "--measure", "betweenness", "--output-dir", str(tmp_path / "a")]) == 0
        assert main(base + ["--measure", "betweenness", "--measure", "path_end",
                            "--output-dir", str(tmp_path / "b")]) == 0
        assert _files(tmp_path / "a") == _files(tmp_path / "b")
        doc = json.loads((tmp_path / "a" / "centrality.json").read_text())
        entries = sum(len(v) for r in doc["results"].values() for v in r.values())
        assert len((tmp_path / "a" / "centrality.csv").read_text().splitlines()) == entries + 2

    def test_auto_order(self, order2_file, tmp_path):
        args = ["centrality", "--input", order2_file, "--model", "mogen", "--k-max", "3"]
        import pathcent.models as models
        with mock.patch.object(models, "fit_mogen", wraps=models.fit_mogen) as fit:
            assert main(args + ["--k", "auto", "--output-dir", str(tmp_path / "auto")]) == 0
        assert [c.args[1] for c in fit.call_args_list] == [1, 2, 3]  # the chosen fit is kept
        doc = json.loads((tmp_path / "auto" / "centrality.json").read_text())
        k = doc["config"]["k"]  # the selected order is recorded
        assert k >= 2
        assert main(args + ["--k", str(k), "--output-dir", str(tmp_path / "fixed")]) == 0
        assert _files(tmp_path / "auto") == _files(tmp_path / "fixed")


class TestExperimentCommand:
    @pytest.mark.parametrize("count", [2**63, 2**64])
    def test_multiplicity_past_int64_is_data_error(self, tmp_path, capsys, count):
        src = tmp_path / "huge.paths"
        src.write_text(f"a,b,c;{count}\nb,c;2\n")
        code = main(["experiment", "--input", str(src), "--output-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2 and "data error" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_instances_past_memory_are_data_error(self, tmp_path, capsys):
        src = tmp_path / "unrolled.paths"  # 2**40 instances: an 8 TiB unroll
        src.write_text("a,b,c;1099511627776\nb,c;2\n")
        code = main(["experiment", "--input", str(src), "--output-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2 and "data error: 1099511627778 path instances" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_runs_and_reports(self, order2_file, tmp_path):
        out = tmp_path / "exp"
        code = main([
            "experiment", "--input", order2_file, "--models", "N,M2,P",
            "--measure", "betweenness", "--train-fraction", "0.3",
            "--replicates", "2", "--k-truth", "2", "--seed", "3",
            "--output-dir", str(out),
        ])
        assert code == 0
        doc = json.loads((out / "auc.json").read_text())
        models = {r["model"] for r in doc["results"]}
        assert models == {"N", "M2", "P"}
        assert all(len(r["replicates"]) == 2 for r in doc["results"])
        header = (out / "auc.csv").read_text().splitlines()[1]
        assert header.startswith("dataset,betweenness:N")

    def test_repeated_model_counts_once(self, order2_file, tmp_path):
        base = ["experiment", "--input", order2_file, "--replicates", "2", "--k-truth", "2",
                "--measure", "betweenness", "--measure", "betweenness"]
        assert main(base + ["--models", "M2,M2,N", "--output-dir", str(tmp_path / "a")]) == 0
        assert main(base[:-2] + ["--models", "M2,N", "--output-dir", str(tmp_path / "b")]) == 0
        assert _files(tmp_path / "a") == _files(tmp_path / "b")
        doc = json.loads((tmp_path / "a" / "auc.json").read_text())
        assert [(r["model"], len(r["replicates"])) for r in doc["results"]] == [("M2", 2), ("N", 2)]
        assert (tmp_path / "a" / "auc.csv").read_text().splitlines()[1] == (
            "dataset,betweenness:M2,betweenness:N")

    def test_bad_model_label(self, order2_file, tmp_path, capsys):
        code = main([
            "experiment", "--input", order2_file, "--models", "N,Q3",
            "--output-dir", str(tmp_path / "x"),
        ])
        assert code == 1
        assert "unknown model label 'Q3'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_nothing_to_score_is_data_error(self, order2_file, tmp_path, capsys):
        code = main([
            "experiment", "--input", order2_file, "--models", "N",
            "--measure", "path_end", "--output-dir", str(tmp_path / "x"),
        ])
        assert code == 2
        assert "no requested measure is supported" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_k_truth_below_one_is_usage_error(self, tmp_path):
        src = tmp_path / "bad.paths"
        src.write_text("a,b;NaN\n")  # a data error (exit 2) once loaded
        code = main(["experiment", "--input", str(src), "--k-truth", "0",
                     "--output-dir", str(tmp_path / "x")])
        assert code == 1
        assert not (tmp_path / "x").exists()


class TestSmellsCommand:
    def test_end_to_end(self, smell_files, tmp_path):
        out = tmp_path / "smells"
        code = main([
            "smells",
            "--platform", f"p1={smell_files[0]}",
            "--platform", f"p2={smell_files[1]}",
            "--window", "100", "--shift", "100", "--k", "2",
            "--output-dir", str(out),
        ])
        assert code == 0
        doc = json.loads((out / "smells.json").read_text())
        assert doc["results"]["ranked_members"][0] == "zed"
        flags = doc["results"]["evidence"]["zed"]
        assert any(entry["end_dominance"] for entry in flags)
        rows = (out / "series.csv").read_text().splitlines()[2:]
        assert any(row.startswith("zed,") for row in rows)

    def test_bad_platform_spec(self, tmp_path):
        code = main([
            "smells", "--platform", "no-equals-sign",
            "--output-dir", str(tmp_path / "x"),
        ])
        assert code == 1

    def test_missing_timestamps_is_data_error(self, paths_file, tmp_path):
        code = main([
            "smells", "--platform", f"p1={paths_file}",
            "--output-dir", str(tmp_path / "x"),
        ])
        assert code == 2

    def test_window_shorter_than_shift_is_usage_error(self, tmp_path, capsys):
        # a path starting between two windows would fall in neither
        src = tmp_path / "one.paths"
        src.write_text("a;1;-1\n")
        args = ["smells", "--platform", f"p={src}", "--shift", "6"]
        assert main(args + ["--window", "5", "--output-dir", str(tmp_path / "x")]) == 1
        assert "--window must be at least --shift" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()
        assert main(args + ["--window", "6", "--output-dir", str(tmp_path / "y")]) == 0

    def test_window_checked_before_loading(self, tmp_path):
        src = tmp_path / "bad.paths"
        src.write_text("a,b;NaN;0\n")  # a data error (exit 2) once loaded
        code = main(["smells", "--platform", f"p={src}", "--window", "5", "--shift", "6",
                     "--output-dir", str(tmp_path / "x")])
        assert code == 1

    def test_top_below_one_is_usage_error(self, tmp_path):
        src = tmp_path / "bad.paths"
        src.write_text("a,b;NaN;0\n")  # a data error (exit 2) once loaded
        code = main(["smells", "--platform", f"p={src}", "--top", "0",
                     "--output-dir", str(tmp_path / "x")])
        assert code == 1
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("k", ["abc", "2.5", ""])
    def test_non_integer_order_is_usage_error(self, smell_files, tmp_path, k):
        code = main([
            "smells", "--platform", f"p1={smell_files[0]}", "--k", k,
            "--output-dir", str(tmp_path / "x"),
        ])
        assert code == 1


class TestOptionBounds:
    @pytest.mark.parametrize("command, options", [
        ("centrality", ["--model", "network", "--k", "0"]),
        ("centrality", ["--model", "mogen", "--k", "auto", "--k-max", "0"]),
        ("smells", ["--k", "0"]),
        ("smells", ["--k", "-2"]),
        ("smells", ["--k-max", "0"]),
        ("smells", ["--consecutive", "0"]),
        ("experiment", ["--replicates", "0"]),
        ("experiment", ["--train-fraction", "0"]),
        ("experiment", ["--train-fraction", "1"]),
        ("smells", ["--shift", "0"]),
        ("smells", ["--window", "0", "--shift", "0"]),
        ("ingest", ["--format", "temporal-edges", "--delta", "0"]),
        ("ingest", ["--format", "temporal-edges", "--delta", "3 weeks"]),
        ("ingest", ["--format", "paths", "--delta", "10s"]),
        ("ingest", ["--format", "actions", "--delta", "10s"]),
        ("ingest", ["--format", "paths", "--delimiter", ""]),
        ("ingest", ["--format", "temporal-edges", "--delta", "10s", "--delimiter", ""]),
        ("ingest", ["--format", "actions", "--delimiter", ""]),
        ("centrality", ["--model", "mogen", "--k", "max"]),
        ("experiment", ["--seed", "-1"]),
        ("experiment", ["--models", "M0"]),
        ("experiment", ["--models", "N,M2,X"]),
        ("experiment", ["--models", " , "]),
        ("experiment", ["--train-fraction", "nan"]),
        ("centrality", ["--model", "mogen", "--edges", "--min-visitation", "nan"]),
        ("centrality", ["--model", "mogen", "--edges", "--min-visitation", "1.5"]),
        ("centrality", ["--model", "network", "--min-visitation", "-0.1"]),
        ("centrality", ["--model", "mogen", "--k", "1", "--edges"]),
        ("smells", ["--theta-end", "nan"]),
        ("smells", ["--theta-end", "1.01"]),
        ("smells", ["--theta-role", "NaN"]),
        ("smells", ["--theta-role", "-1"]),
    ])
    def test_value_out_of_range_is_usage_error_before_loading(self, tmp_path, command, options):
        src = tmp_path / "bad.paths"
        src.write_text("a,b;NaN;0\n")  # a data error (exit 2) once loaded, also as edges
        where = ["--platform", f"p={src}"] if command == "smells" else ["--input", str(src)]
        assert main([command, *where, *options, "--output-dir", str(tmp_path / "x")]) == 1
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command, option, value, message", [
        ("experiment", "--train-fraction", "nan", "'--train-fraction': nan is not a number"),
        ("experiment", "--train-fraction", "1", "1.0 is not in the range 0<x<1"),
        ("centrality", "--min-visitation", "nan", "'--min-visitation': nan is not a number"),
        ("centrality", "--min-visitation", "1.5", "1.5 is not in the range 0<=x<=1"),
        ("smells", "--theta-end", "-0.5", "-0.5 is not in the range 0<=x<=1"),
        ("smells", "--theta-role", "NaN", "'--theta-role': nan is not a number"),
    ])
    def test_float_option_message_names_its_interval(self, tmp_path, capsys, command, option, value, message):
        src = tmp_path / "in.paths"
        src.write_text("a,b;1;0\n")
        where = ["--platform", f"p={src}"] if command == "smells" else ["--input", str(src)]
        model = ["--model", "mogen"] if command == "centrality" else []
        assert main([command, *where, *model, option, value, "--output-dir", str(tmp_path / "x")]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("specs, named", [
        (["={src}"], "'={src}'"),
        (["jira={src}", "jira={src}"], "--platform jira "),
        (["mail={src}", "jira={src}", "jira={other}"], "--platform jira "),
        (["jira={tmp}/missing.paths"], "--platform jira: "),
        (["jira={tmp}"], "--platform jira: "),
        (["jira="], "--platform jira: "),
        (["ji,ra={src}"], "'ji,ra={src}'"),
    ], ids=["empty-name", "repeated-name", "repeated-later", "missing-file", "directory", "no-file",
            "comma-in-name"])
    def test_bad_platform_is_usage_error_before_loading(self, tmp_path, capsys, specs, named):
        src, other = tmp_path / "bad.paths", tmp_path / "other.paths"
        for path in (src, other):
            path.write_text("a,b;NaN;0\n")  # a data error (exit 2) once loaded
        fill = {"src": src, "other": other, "tmp": tmp_path}
        platforms = [arg for spec in specs for arg in ("--platform", spec.format(**fill))]
        assert main(["smells", *platforms, "--output-dir", str(tmp_path / "x")]) == 1
        assert named.format(**fill) in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["ingest", "centrality", "experiment", "smells"])
    @pytest.mark.parametrize("where", ["input-directory", "output-file", "output-under-file"])
    def test_bad_path_is_usage_error_before_loading(self, tmp_path, capsys, command, where):
        src = tmp_path / "bad.paths"
        src.write_text("a,b;NaN;0\n")  # a data error (exit 2) once loaded
        given = tmp_path if where == "input-directory" else src
        out = {"output-file": src, "output-under-file": src / "x"}.get(where, tmp_path / "x")
        options = {"ingest": ["--format", "paths"], "centrality": ["--model", "network"]}
        args = (["--platform", f"p={given}"] if command == "smells" else ["--input", str(given)])
        assert main([command, *args, *options.get(command, []), "--output-dir", str(out)]) == 1
        assert "usage error" in capsys.readouterr().err
        assert src.read_text() == "a,b;NaN;0\n" and sorted(tmp_path.iterdir()) == [src]


class TestDatasetsBuiltOnce:
    """Windows and split sides are row subsets of the loaded corpus, so a
    ``PathDataset`` is constructed only where a corpus is read."""

    @pytest.fixture()
    def built(self, monkeypatch):
        built = []
        init = pathcent.PathDataset.__init__

        def spy(ds, paths):
            built.append(ds)
            init(ds, paths)

        monkeypatch.setattr(pathcent.PathDataset, "__init__", spy)
        return built

    def test_smells_builds_one_dataset_per_platform(self, smell_files, tmp_path, built):
        args = ["smells", "--platform", f"p1={smell_files[0]}", "--platform", f"p2={smell_files[1]}",
                "--window", "200", "--shift", "100", "--output-dir", str(tmp_path / "out")]
        assert main(args) == 0
        assert len(built) == 2

    def test_experiment_builds_the_loaded_dataset_only(self, order2_file, tmp_path, built):
        args = ["experiment", "--input", order2_file, "--models", "N,M2,P", "--replicates", "3",
                "--k-truth", "2", "--output-dir", str(tmp_path / "out")]
        assert main(args) == 0
        assert len(built) == 1

    def test_commands_build_no_path(self, smell_files, order2_file, tmp_path, built, monkeypatch):
        """Ingest in every format and ``load_dataset`` merge lines into a dataset's
        columns: no ``Path`` is built, and no ``paths`` view either, also where
        ``smells`` and ``experiment`` window and split what they load."""
        made = []
        check = pathcent.Path.__post_init__
        monkeypatch.setattr(pathcent.Path, "__post_init__", lambda p: made.append(p) or check(p))
        del built[:]
        edges, actions = tmp_path / "edges.csv", tmp_path / "actions.csv"
        edges.write_text("source,target,time\na,b,0\nb,c,100\n")
        actions.write_text("key,actor,time\nT-1,ann,1\nT-1,bob,2\n")
        for fmt, src, extra in (("paths", order2_file, []), ("actions", actions, []),
                                ("temporal-edges", edges, ["--delta", "800s"])):
            assert main(["ingest", "--input", str(src), "--format", fmt, *extra,
                         "--output-dir", str(tmp_path / fmt)]) == 0
        load_dataset(order2_file)
        assert main(["smells", "--platform", f"p1={smell_files[0]}", "--window", "200",
                     "--shift", "100", "--output-dir", str(tmp_path / "smells")]) == 0
        assert main(["experiment", "--input", order2_file, "--models", "N,M2,P", "--replicates", "2",
                     "--k-truth", "2", "--output-dir", str(tmp_path / "experiment")]) == 0
        assert made == []
        assert len(built) == 6 and not any("paths" in ds.__dict__ for ds in built)
        assert not any(map(dataclasses.is_dataclass, (pathcent.TemporalEdge, pathcent.ActionRecord)))

    def test_windows_and_split_sides_gather_no_column(self, smell_files, order2_file, tmp_path,
                                                      monkeypatch):
        """``smells`` and ``experiment`` read their windows' and split sides'
        encoding and codes only: no node, time or count column is gathered."""
        gathered = []
        for name in ("_nodes", "_times", "_counts"):
            prop = pathcent.PathDataset.__dict__[name]
            monkeypatch.setattr(prop, "func", lambda ds, gather=prop.func, name=name:
                                gathered.append(name) or gather(ds))
        assert main(["smells", "--platform", f"p1={smell_files[0]}", "--platform", f"p2={smell_files[1]}",
                     "--window", "200", "--shift", "100", "--output-dir", str(tmp_path / "smells")]) == 0
        assert main(["experiment", "--input", order2_file, "--models", "N,M2,P", "--replicates", "2",
                     "--k-truth", "2", "--output-dir", str(tmp_path / "experiment")]) == 0
        assert gathered == []
        window = rolling_windows(load_dataset(smell_files[0]), 200, 100)[0].dataset
        assert window._nodes and gathered == ["_nodes"]  # the spy sees a gather

    def test_evaluate_builds_no_dataset(self, built):
        ds = generators.order2_families(seed=0, n_paths=200)
        del built[:]
        exp.evaluate(ds, exp.SplitSpec(0.3, replicates=2), models=("M1", "P"), k_truth=2)
        assert built == []


class TestDeterminism:
    def _run_twice(self, args, out_a, out_b):
        assert main(args + ["--output-dir", str(out_a)]) == 0
        assert main(args + ["--output-dir", str(out_b)]) == 0
        files_a = sorted(p.name for p in out_a.iterdir())
        files_b = sorted(p.name for p in out_b.iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_centrality_byte_identical(self, paths_file, tmp_path):
        args = ["centrality", "--input", paths_file, "--model", "mogen", "--k", "2"]
        self._run_twice(args, tmp_path / "a", tmp_path / "b")

    def test_experiment_byte_identical(self, order2_file, tmp_path):
        args = [
            "experiment", "--input", order2_file, "--models", "N,M2,P",
            "--measure", "path_end", "--replicates", "2",
            "--train-fraction", "0.3", "--k-truth", "2", "--seed", "11",
        ]
        self._run_twice(args, tmp_path / "a", tmp_path / "b")

    def test_smells_byte_identical(self, smell_files, tmp_path):
        args = [
            "smells", "--platform", f"p1={smell_files[0]}",
            "--window", "100", "--shift", "100", "--k", "2",
        ]
        self._run_twice(args, tmp_path / "a", tmp_path / "b")


def _run_python(args, hash_seed="0"):
    """Run a fresh interpreter on this checkout's package."""
    src = str(Path(pathcent.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, check=True)


#: Runs each argument list of argv[1] through main() in one interpreter and
#: prints, after the import and after each run, [exit code, numpy/scipy loaded].
_ARRAY_LIBRARIES_PROBE = """
import contextlib, io, json, sys

def loaded():
    return sorted({m.split(".")[0] for m in sys.modules} & {"numpy", "scipy"})

from pathcent.cli import main

seen = [[0, loaded()]]
for args in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        seen.append([main(args)])
    seen[-1].append(loaded())
print(json.dumps(seen))
"""


class TestFreshInterpreter:
    def test_smells_byte_identical_across_hash_seeds(self, smell_files, tmp_path):
        outputs = []
        for seed in ("1", "2", "3"):
            out = tmp_path / f"hash{seed}"
            _run_python([
                "-m", "pathcent.cli", "smells",
                "--platform", f"p1={smell_files[0]}", "--platform", f"p2={smell_files[1]}",
                "--window", "200", "--shift", "100", "--k", "auto",
                "--output-dir", str(out),
            ], hash_seed=seed)
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert len(outputs[0]) > 1
        assert outputs[0] == outputs[1] == outputs[2]

    def test_cli_import_leaves_out_scipy_stats(self):
        # nor the graph and dense/sparse linear-algebra modules, which are slow
        # to import and which no command needs up front
        modules = ["scipy.stats", "networkx", "scipy.sparse.csgraph", "scipy.sparse.linalg",
                   "scipy.linalg"]
        result = _run_python([
            "-c", f"import sys, pathcent.cli; print([m for m in {modules!r} if m in sys.modules])",
        ])
        assert result.stdout.strip() == "[]"

    def test_only_the_commands_that_need_them_load_numpy_and_scipy(self, tmp_path):
        inputs = {"paths": "a,b,c;3;0\nb,c;1;5\n", "temporal-edges": "a,b,0\nb,c,5\n",
                  "actions": "t1,ann,0\nt1,bob,10\n"}
        src = tmp_path / "paths"
        out = str(tmp_path / "usage")  # no step that is a usage error creates it
        steps = [["--help"], ["ingest", "--input", "x", "--format", "paths", "--output-dir", out],
                 ["centrality", "--input", str(src), "--model", "path", "--edges", "--output-dir", out],
                 ["centrality", "--input", str(tmp_path), "--model", "mogen", "--output-dir", out],
                 ["centrality", "--input", str(src), "--model", "mogen", "--output-dir", str(src / "y")],
                 ["experiment", "--input", str(src), "--seed", "-1", "--output-dir", out],
                 ["experiment", "--input", str(src), "--models", "M0", "--output-dir", out]]
        for fmt, text in inputs.items():
            (tmp_path / fmt).write_text(text)
            delta = ["--delta", "10s"] if fmt == "temporal-edges" else []
            steps.append(["ingest", "--input", str(tmp_path / fmt), "--format", fmt, *delta,
                          "--output-dir", str(tmp_path / f"ingest-{fmt}")])
        paths = str(tmp_path / "ingest-paths" / "dataset.paths")
        steps += [["centrality", "--input", paths, "--model", "mogen", "--k", "2",
                   "--output-dir", str(tmp_path / "mogen")],
                  ["smells", "--platform", f"p={paths}", "--window", "10", "--shift", "5",
                   "--output-dir", str(tmp_path / "smells")],
                  ["centrality", "--input", paths, "--model", "network", "--measure", "closeness",
                   "--output-dir", str(tmp_path / "network")],
                  ["centrality", "--input", paths, "--model", "mogen", "--k", "2", "--edges",
                   "--output-dir", str(tmp_path / "edges")]]
        seen = json.loads(_run_python(["-c", _ARRAY_LIBRARIES_PROBE, json.dumps(steps)]).stdout)
        # the import, --help, six usage errors, three ingests; then mogen centralities,
        # smells and network closeness, which load numpy only; then the edge report's
        # search, which loads scipy
        assert seen == [[0, []], [0, []], *[[1, []]] * 6, [0, []], [0, []], [0, []],
                        [0, ["numpy"]], [0, ["numpy"]], [0, ["numpy"]], [0, ["numpy", "scipy"]]]
        assert not os.path.exists(out)


class TestLazyExports:
    """``pathcent`` resolves its exports on first access; the names and objects
    are those it bound eagerly before."""

    ALL = [
        "AUCResult", "ActionRecord", "CentralityVector", "DataError", "DatasetStats",
        "DeviationScore", "END", "EdgeCentralityReport", "MEASURES", "MOGenModel", "NetworkModel",
        "NumericError", "Path", "PathDataset", "PathModel", "PlatformSeries", "START",
        "SmellEvidence", "SplitSpec", "TemporalEdge", "UnsupportedMeasureError", "WindowSlice",
        "auc_score", "centrality", "compute", "deviation_scores", "edge_centralities",
        "encode_path", "errors", "evaluate", "evidence", "experiment", "extract_paths",
        "fit_mogen", "fit_network", "fit_path", "ground_truth", "models",
        "parse_paths", "pathdata", "paths_from_actions", "project_up", "rank_members",
        "rolling_windows", "select_order", "smells", "split", "stats", "windowed_centralities",
    ]
    #: Exports without a ``__module__`` of their own.
    CONSTANTS = {"END": "pathdata", "START": "pathdata", "MEASURES": "pathdata"}

    def test_all_is_unchanged(self):
        assert pathcent.__all__ == self.ALL

    def test_each_export_is_its_defining_modules_object(self):
        for name in self.ALL:
            obj = getattr(pathcent, name)
            if isinstance(obj, types.ModuleType):
                assert obj is importlib.import_module(f"pathcent.{name}")
            else:
                where = f"pathcent.{self.CONSTANTS[name]}" if name in self.CONSTANTS else obj.__module__
                assert getattr(importlib.import_module(where), name) is obj, name
        assert cent.MEASURES is pathcent.MEASURES and cent.PATH_MEASURES is pathcent.pathdata.PATH_MEASURES

    def test_star_import_and_dir_list_every_name(self):
        probe = ("import json, pathcent; listed = dir(pathcent); from pathcent import *; "
                 "print(json.dumps([sorted(set(pathcent.__all__) - set(listed)), "
                 "[n for n in pathcent.__all__ if n not in globals()]]))")
        assert json.loads(_run_python(["-c", probe]).stdout) == [[], []]

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            pathcent.no_such_name
        assert not hasattr(pathcent, "no_such_name")


# --- exit codes: random small inputs and arguments through main() -----------

def _corpus(label, count, time):
    path_line = st.builds(
        lambda nodes, c, t: f"{','.join(nodes)};{c};{t}",
        st.lists(label, min_size=1, max_size=6), count, time,
    )
    triple_line = st.builds(lambda a, b, t: f"{a},{b},{t}", label, label, time)
    return st.one_of(st.lists(path_line, min_size=2, max_size=30),
                     st.lists(triple_line, min_size=2, max_size=30))


# mostly well-formed corpora, so that every command also runs to the end
_VALID = _corpus(st.sampled_from("abcd"), st.sampled_from(["", "1", "3"]),
                 st.sampled_from(["0", "40", "90", "130"]))
_CORPUS = st.one_of(
    _VALID, _VALID,
    _corpus(st.sampled_from(["a", "b", "#x", "a|b", "*", ""]),
            st.sampled_from(["1", "0", "x", ""]), st.sampled_from(["5", "-7", "t", ""])),
).map(lambda lines: "\n".join(lines) + "\n")


def _options(required=None, **choices):
    """Command-line options: ``required`` is always given, every other one is
    drawn from its choices or left out; ``True`` marks a flag."""
    draws = {name: st.sampled_from(values) for name, values in (required or {}).items()}
    draws.update({name: st.sampled_from([None, *values]) for name, values in choices.items()})
    return st.fixed_dictionaries(draws).map(
        lambda opts: [arg for name, value in opts.items() if value is not None
                      for arg in (("--" + name,) if value is True else ("--" + name, value))]
    )


_COMMANDS = st.one_of(
    st.tuples(st.just("ingest"), _options(
        {"format": ["paths", "temporal-edges", "actions"]},
        delta=["5", "1d", "0", "x"], delimiter=[",", ":"])),
    st.tuples(st.just("centrality"), _options(
        {"model": ["network", "path", "mogen"]}, k=["1", "2", "3", "0", "-1", "auto"],
        **{"k-max": ["1", "3", "0"], "measure": list(MEASURES),
           "edges": [True], "min-visitation": ["0", "0.5", "2"]})),
    st.tuples(st.just("experiment"), _options(
        models=["N", "P", "M1", "M2", "N,M1,P", "M0"], measure=list(MEASURES),
        **{"train-fraction": ["0.3", "0.5", "0", "1"], "replicates": ["1", "2", "0"],
           "k-truth": ["1", "2", "3", "0"]}, seed=["0", "1", "-1"])),
    st.tuples(st.just("smells"), _options(
        window=["100", "50", "0"], shift=["50", "100", "0"], k=["auto", "1", "2", "0"],
        top=["1", "3", "0"], consecutive=["1", "0"],
        **{"k-max": ["1", "2", "0"], "theta-end": ["0.5", "0"], "theta-role": ["0.05", "1"]})),
)


#: (input, output directory) in the run's directory: mostly the corpus and a new
#: directory; else a directory as input, or the corpus or a path under it as output.
_PATHS = st.sampled_from([("in.txt", "out")] * 3 + [(".", "out"), ("in.txt", "in.txt"),
                                                    ("in.txt", "in.txt/out")])


class TestExitCodes:
    @settings(max_examples=200, deadline=None)
    @given(corpus=_CORPUS, command=_COMMANDS, paths=_PATHS)
    def test_every_run_exits_with_a_documented_code(self, corpus, command, paths):
        name, options = command
        given_input, output = paths
        with tempfile.TemporaryDirectory() as tmp:
            src = os.path.join(tmp, given_input)
            with open(os.path.join(tmp, "in.txt"), "w", encoding="utf-8") as fh:
                fh.write(corpus)
            where = ["--platform", f"p={src}"] if name == "smells" else ["--input", src]
            args = [name, *where, *options, "--output-dir", os.path.join(tmp, output)]
            assert main(args) in (0, 1, 2, 3)
