"""CLI pipeline: commands, exit codes, embedded metadata, determinism."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pathcent
from pathcent.cli import main, parse_duration
from pathcent.pathdata import write_paths

import generators


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


class TestCentralityCommand:
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

    def test_auto_order(self, order2_file, tmp_path):
        out = tmp_path / "cent"
        code = main([
            "centrality", "--input", order2_file, "--model", "mogen",
            "--auto-order", "--k-max", "3", "--output-dir", str(out),
        ])
        assert code == 0
        doc = json.loads((out / "centrality.json").read_text())
        assert doc["config"]["k"] >= 2


class TestExperimentCommand:
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

    def test_bad_model_label(self, order2_file, tmp_path):
        code = main([
            "experiment", "--input", order2_file, "--models", "N,Q3",
            "--output-dir", str(tmp_path / "x"),
        ])
        assert code == 2


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
        assert (out / "series_zed.csv").exists()

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

    @pytest.mark.parametrize("k", ["abc", "2.5", ""])
    def test_non_integer_order_is_usage_error(self, smell_files, tmp_path, k):
        code = main([
            "smells", "--platform", f"p1={smell_files[0]}", "--k", k,
            "--output-dir", str(tmp_path / "x"),
        ])
        assert code == 1


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
        result = _run_python([
            "-c", "import sys, pathcent.cli; print('scipy.stats' in sys.modules)",
        ])
        assert result.stdout.strip() == "False"
