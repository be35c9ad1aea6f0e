"""Run the benchmark in alternating pairs, ``HEAD`` against the working tree,
and write every result line and their summary to ``BENCH_<n>.json``.

Usage, from the root of a checkout::

    python3 tools/bench_pairs.py --number N [--workload W ...] [--pairs 10] [--seconds 30]

Pair i (seed i, 1..pairs) runs, on each side and back to back,
``python3 bench/run.py --workload W --seed i --seconds S --trace 0``; the
side that goes first alternates from pair to pair. The parent side runs in
a ``git archive`` export of ``HEAD`` under a temporary directory, so it has
the committed files only; the change side runs in the working tree, whose
uncommitted edits are the change.

The summary gives, per workload and end-to-end metric of ``BENCHMARK.json``,
the median and quartiles of each side, the number of pairs in which the
change is better, and whether its median gain exceeds the parent's
interquartile range.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


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
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    base = git("rev-parse", "HEAD")
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        roots = {"parent": Path(tmp) / "parent", "change": ROOT}
        export(base, roots["parent"])
        for workload in workloads:
            for seed in range(1, args.pairs + 1):
                for order, side in enumerate(SIDES if seed % 2 else SIDES[::-1]):
                    result = run_side(roots[side], bench_command(workload, seed, args.seconds))
                    runs.append({"workload": workload, "seed": seed, "side": side, "order": order,
                                 "result": result})
                    print(json.dumps(runs[-1]), flush=True)
    doc = {
        "parent": {"commit": base},
        "change": {"base": base, "uncommitted": git("status", "--porcelain").splitlines()},
        "command": "python3 " + " ".join(bench_command("<workload>", "<pair>", args.seconds)),
        "invocation": " ".join(["python3", "tools/bench_pairs.py", *(sys.argv[1:] if argv is None else argv)]),
        "machine": {"nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0]},
        "runs": runs,
        "summary": summarize(runs, spec["end_to_end"]),
    }
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(doc["summary"], indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
