"""tools/bench_pairs.py: the summary of alternating benchmark pairs, on canned
result lines (no benchmark runs)."""
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [{"name": "job_s", "unit": "s", "better": "lower"},
           {"name": "ops", "unit": "count", "better": "higher"}]


def _result(job_s, ops, correct=True):
    """A result line as bench/run.py prints it last."""
    return {"correct": correct, "attempted": 1, "failed": int(not correct),
            "metrics": {"job_s": {"value": job_s, "unit": "s"}, "ops": {"value": ops, "unit": "count"}}}


def _runs(workload, pairs):
    return [{"workload": workload, "seed": seed, "side": side, "result": result}
            for seed, (parent, change) in enumerate(pairs, start=1)
            for side, result in (("parent", parent), ("change", change))]


class TestSummarize:
    def test_medians_quartiles_wins_and_gain(self):
        pairs = [(_result(2.0, 10), _result(1.5, 11)), (_result(2.4, 10), _result(1.6, 9)),
                 (_result(2.2, 12), _result(2.3, 12)), (_result(2.6, 8), _result(1.4, 10)),
                 (_result(1.8, 10), _result(1.2, 10))]
        summary = bench_pairs.summarize(_runs("w", pairs), METRICS)["w"]
        assert summary["pairs"] == 5 and summary["incorrect_runs"] == 0
        job = summary["job_s"]
        assert job["parent"] == pytest.approx({"median": 2.2, "q1": 2.0, "q3": 2.4})
        assert job["change"] == pytest.approx({"median": 1.5, "q1": 1.4, "q3": 1.6})
        assert job["wins"] == 4  # lower is better; pair 3 is a loss
        assert job["median_gain"] == pytest.approx(0.7)
        assert job["parent_iqr"] == pytest.approx(0.4)
        assert job["gain_exceeds_parent_iqr"] is True
        ops = summary["ops"]
        assert ops["wins"] == 2  # higher is better; ties are no win
        assert ops["median_gain"] == 0 and ops["gain_exceeds_parent_iqr"] is False

    def test_a_pair_with_a_failed_or_missing_run_is_left_out(self):
        pairs = [(_result(2.0, 1), _result(1.0, 1)), (_result(2.0, 1, correct=False), _result(1.0, 1)),
                 (_result(2.0, 1), None), (_result(3.0, 1), _result(1.0, 1))]
        summary = bench_pairs.summarize(_runs("w", pairs), METRICS)["w"]
        assert summary["pairs"] == 2 and summary["incorrect_runs"] == 2
        assert summary["job_s"]["parent"]["median"] == 2.5
        assert summary["job_s"]["wins"] == 2

    def test_workloads_apart_and_no_pair_gives_no_metric(self):
        runs = _runs("a", [(_result(1.0, 1), _result(2.0, 1))]) + _runs("b", [(None, None)])
        summary = bench_pairs.summarize(runs, METRICS)
        assert summary["a"]["job_s"]["wins"] == 0
        assert summary["a"]["job_s"]["parent"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}
        assert summary["b"] == {"pairs": 0, "incorrect_runs": 2}

    def test_command_is_the_untraced_benchmark_run(self):
        assert bench_pairs.bench_command("mogen-centrality", 3, 30.0) == [
            "bench/run.py", "--workload", "mogen-centrality", "--seed", "3", "--seconds", "30",
            "--trace", "0"]


class TestCliPairs:
    def test_a_command_run_records_times_rss_and_outputs(self, tmp_path):
        root = Path(__file__).resolve().parents[1]
        src = tmp_path / "in.paths"
        src.write_text("a,b;2\nb,c;1\n")
        result = bench_pairs.run_cli(root, ["ingest", "--input", str(src), "--format", "paths"],
                                     tmp_path / "out")
        assert result["correct"] is True
        assert set(result["metrics"]) == {m["name"] for m in bench_pairs.CLI_METRICS}
        assert all(result["metrics"][m]["value"] > 0 for m in ("job_s", "peak_rss_mb"))
        assert sorted(result["outputs"]) == ["dataset.paths", "stats.json"]
        again = bench_pairs.run_cli(root, ["ingest", "--input", str(src), "--format", "paths"],
                                    tmp_path / "again")
        assert again["outputs"] == result["outputs"]  # a rerun writes the same bytes

    def test_a_failed_command_is_not_correct(self, tmp_path):
        root = Path(__file__).resolve().parents[1]
        result = bench_pairs.run_cli(root, ["ingest", "--input", str(tmp_path / "missing"),
                                            "--format", "paths"], tmp_path / "out")
        assert result["correct"] is False and result["outputs"] == {}

    def test_the_generated_input_holds_the_asked_walks(self, tmp_path):
        bench_pairs.make_corpus(tmp_path / "input", 37)
        lines = (tmp_path / "input").read_text().splitlines()
        assert sum(int(line.rsplit(";", 1)[1]) for line in lines) == 37
