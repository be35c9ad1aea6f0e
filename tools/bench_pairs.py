"""Run the benchmark, or one CLI command, in alternating pairs, ``HEAD``
against the working tree, and write every result and their summary to
``BENCH_<n>.json``.

Usage, from the root of a checkout::

    python3 tools/bench_pairs.py --number N [--workload W ...] [--pairs 10] [--seconds 30]
    python3 tools/bench_pairs.py --number N [--pairs 10] [--paths 16000] -- <command>

for example ``-- experiment --input {input} --replicates 1``, which writes
``BENCH_<n>_experiment.json``.

Pair i (seed i, 1..pairs) runs, on each side and back to back,
``python3 bench/run.py --workload W --seed i --seconds S --trace 0``; the
side that goes first alternates from pair to pair. The parent side runs in
a ``git archive`` export of ``HEAD`` under a temporary directory, so it has
the committed files only; the change side runs in the working tree, whose
uncommitted edits are the change.

Given a command after ``--``, each pair instead runs ``python3 -m
pathcent.cli <command> --output-dir <fresh dir>`` on each side, with
``PYTHONHASHSEED=0``, ``{input}`` replaced by a file of ``--paths`` walks that
``bench/corpora.random_walks`` writes once for seed (0, 0), and the result
goes to ``BENCH_<n>_<command>.json``. A run's result
holds its wall time, its CPU time and peak RSS from ``os.wait4`` (this script
loads neither numpy nor scipy, so its own, smaller high-water mark does not
show in a command's), and the SHA-256 of each file it wrote.

The summary gives, per workload and end-to-end metric of ``BENCHMARK.json``,
the median and quartiles of each side, the number of pairs in which the
change is better, and whether its median gain exceeds the parent's
interquartile range.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


#: The end-to-end metrics of a CLI command's run.
CLI_METRICS = [{"name": "job_s", "unit": "s", "better": "lower"},
               {"name": "cpu_s", "unit": "s", "better": "lower"},
               {"name": "peak_rss_mb", "unit": "MB", "better": "lower"}]


def bench_command(workload: str, seed, seconds: float) -> list[str]:
    return ["bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", "0"]


def quartiles(values: list[float]) -> dict:
    """Median and inclusive quartiles; a single value is all three."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1
                      else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload: the pairs whose two runs both wrote a correct result line,
    the runs that did not, and per metric of ``metrics`` each side's quartiles,
    the pairs the change wins, and its median gain (positive when better)
    against the parent's interquartile range.

    ``runs`` holds ``{"workload", "seed", "side", "result"}``, where ``result``
    is ``bench/run.py``'s last line of output, or None if it wrote none."""
    out = {}
    for workload in sorted({r["workload"] for r in runs}):
        results = {side: {r["seed"]: r["result"] or {} for r in runs
                          if r["workload"] == workload and r["side"] == side} for side in SIDES}
        seeds = sorted(s for s in results["parent"].keys() & results["change"].keys()
                       if results["parent"][s].get("correct") and results["change"][s].get("correct"))
        failed = sum(not r.get("correct") for side in SIDES for r in results[side].values())
        summary = out[workload] = {"pairs": len(seeds), "incorrect_runs": failed}
        for metric in metrics if seeds else ():
            name, sign = metric["name"], -1.0 if metric["better"] == "lower" else 1.0
            values = {side: [results[side][s]["metrics"][name]["value"] for s in seeds] for side in SIDES}
            parent, change = (quartiles(values[side]) for side in SIDES)
            gain, iqr = sign * (change["median"] - parent["median"]), parent["q3"] - parent["q1"]
            summary[name] = {
                "unit": metric["unit"], "better": metric["better"], "parent": parent, "change": change,
                "wins": sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"])),
                "median_gain": gain, "parent_iqr": iqr, "gain_exceeds_parent_iqr": gain > iqr,
            }
    return out


def run_side(root: Path, argv: list[str]) -> dict | None:
    """``bench/run.py``'s result line (its last line of output), or None."""
    done = subprocess.run([sys.executable, *argv], cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def run_cli(root: Path, args: list[str], out: Path) -> dict:
    """Run ``python3 -m pathcent.cli <args> --output-dir <out>`` on the sources under
    ``root``; a result line as ``bench/run.py`` writes one, and the outputs' hashes."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONHASHSEED": "0"}
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "pathcent.cli", *args, "--output-dir", str(out)],
                            cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    values = {"job_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime, "peak_rss_mb": usage.ru_maxrss / 1024.0}
    return {"correct": os.waitstatus_to_exitcode(status) == 0,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in CLI_METRICS},
            "outputs": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in sorted(out.glob("*")) if p.is_file()}}


def make_corpus(path: Path, paths: int) -> None:
    """Write ``bench/corpora.random_walks((0, 0), path, paths)`` in a child, which loads numpy."""
    code = ("import sys; sys.path.insert(0, 'bench'); import corpora; "
            "corpora.random_walks((0, 0), sys.argv[1], int(sys.argv[2]))")
    subprocess.run([sys.executable, "-c", code, str(path), str(paths)], cwd=ROOT, check=True)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip("\n")


def export(rev: str, into: Path) -> None:
    """The committed files of ``rev`` under ``into``."""
    archive = into.with_suffix(".tar")
    git("archive", "--format=tar", "-o", str(archive), rev)
    into.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-f", str(archive), "-C", str(into)], check=True)
    archive.unlink()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--number", type=int, required=True, help="writes BENCH_<number>.json")
    parser.add_argument("--workload", action="append", dest="workloads",
                        help="repeatable; default: every workload in BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--paths", type=int, default=16000, help="walks in a command's {input}")
    parser.add_argument("cli", nargs="*", help="a pathcent command and its options, after --;"
                        " writes BENCH_<number>_<command>.json")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = ([" ".join(args.cli)] if args.cli else
                 args.workloads or [w["name"] for w in spec["workloads"]])
    base = git("rev-parse", "HEAD")
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        roots = {"parent": Path(tmp) / "parent", "change": ROOT}
        export(base, roots["parent"])
        if args.cli:
            make_corpus(Path(tmp) / "input", args.paths)
            command = [a.replace("{input}", str(Path(tmp) / "input")) for a in args.cli]
        for workload in workloads:
            for seed in range(1, args.pairs + 1):
                for order, side in enumerate(SIDES if seed % 2 else SIDES[::-1]):
                    if args.cli:
                        result = run_cli(roots[side], command, Path(tmp) / f"out-{seed}-{side}")
                    else:
                        result = run_side(roots[side], bench_command(workload, seed, args.seconds))
                    runs.append({"workload": workload, "seed": seed, "side": side, "order": order,
                                 "result": result})
                    print(json.dumps(runs[-1]), flush=True)
    doc = {
        "parent": {"commit": base},
        "change": {"base": base, "uncommitted": git("status", "--porcelain").splitlines()},
        "command": ("python3 -m pathcent.cli " + " ".join(args.cli) + " --output-dir <fresh dir>"
                    + f"; {{input}} = bench/corpora.random_walks((0, 0), ..., {args.paths})" if args.cli else
                    "python3 " + " ".join(bench_command("<workload>", "<pair>", args.seconds))),
        "invocation": " ".join(["python3", "tools/bench_pairs.py", *(sys.argv[1:] if argv is None else argv)]),
        "machine": {"nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0]},
        "runs": runs,
        "summary": summarize(runs, CLI_METRICS if args.cli else spec["end_to_end"]),
    }
    if args.cli:
        doc["identical_outputs"] = len({json.dumps(r["result"]["outputs"]) for r in runs}) == 1
    out = ROOT / f"BENCH_{args.number}{'_' + args.cli[0] if args.cli else ''}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(doc["summary"], indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
