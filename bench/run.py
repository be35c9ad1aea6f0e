"""pathcent benchmark: run one workload through the real CLI and print its metrics.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass of a workload runs on a corpus generated from ``--seed`` and the
pass index under ``.bench_work/``. Each CLI command runs as ``python -m pathcent.cli`` with ``PYTHONPATH=src``
in a fresh interpreter, one after another (a closed loop with one client).

``--trace 0`` makes passes until they have measured at least ``--seconds``
seconds and reports the end-to-end metrics named in ``BENCHMARK.json``: median
``job_s`` and ``cpu_s`` per pass, the median ``setup_s`` of several fresh
imports of ``pathcent.cli``, and ``peak_rss_mb``. ``--trace 1`` runs the
first pass once untraced and once under ``trace.py`` and reports the per-layer
metrics, the tracing overhead, and whether the two runs wrote identical
bytes. Every command's output is checked; a command that exits non-zero,
hits its time cap or fails its check counts as failed. The last line of
standard output is the JSON result; the line before it records problem
sizes, library versions and the per-pass figures.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_work"
REFERENCE = BENCH_DIR / "reference.json"
#: The seed whose outputs are stored in reference.json.
REFERENCE_SEED = 0
#: Fresh-interpreter imports timed per run for setup_s.
SETUP_REPEATS = 3
#: Per-command cap, and the point after which no command starts, so that a
#: run ends well within three minutes.
COMMAND_CAP_S = 120.0
RUN_DEADLINE_S = 165.0
NPROC = len(os.sched_getaffinity(0))
PLAIN_CLI = [sys.executable, "-m", "pathcent.cli"]

# Pin BLAS threads before numpy loads, here and in every child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import workloads  # noqa: E402  (needs the path set above)


@dataclass
class Pass:
    """One execution of a workload's commands."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    sizes: dict = field(default_factory=dict)
    commands: list[dict] = field(default_factory=list)  # per-command figures


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_timed(argv: list[str], cwd: Path, cap_s: float, log: Path):
    """Run ``argv`` to completion; return (wall s, cpu s, max RSS MB, exit code).

    The exit code is None when the process hit ``cap_s`` and was killed.
    """
    capped = threading.Event()
    with open(log, "ab") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT)

        def kill():
            capped.set()
            proc.kill()

        timer = threading.Timer(cap_s, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if capped.is_set() else proc.returncode
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, code


def run_pass(workload, seed: tuple[int, int], run_dir: Path, prefix: list[str],
             deadline: float, spans_dir: Path | None = None) -> Pass:
    """Generate the inputs for ``seed``, run every command of ``workload`` in a
    fresh ``run_dir``, and check what each wrote.

    With ``spans_dir`` each command runs under trace.py and leaves its spans
    there as ``<index>.json``.
    """
    inputs = WORK / "inputs"
    for path in (inputs, run_dir):
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
    result = Pass(sizes=workload.make_inputs(seed, inputs))
    for i, cmd in enumerate(workload.commands):
        result.attempted += 1
        cap = min(COMMAND_CAP_S, deadline - time.monotonic())
        if cap <= 0:
            result.failed += 1
            result.errors.append(f"{cmd.args[0]}: not started, run deadline reached")
            continue
        argv = prefix + ([str(spans_dir / f"{i}.json"), "--"] if spans_dir else []) + list(cmd.args)
        wall, cpu, rss, code = run_timed(argv, run_dir, cap, WORK / "commands.log")
        result.wall_s += wall
        result.cpu_s += cpu
        result.peak_rss_mb = max(result.peak_rss_mb, rss)
        result.commands.append({"command": cmd.args[0], "wall_s": wall, "cpu_s": cpu,
                                "rss_mb": rss})
        if code != 0:
            result.failed += 1
            result.errors.append(f"{cmd.args[0]}: " + ("time cap hit" if code is None
                                                       else f"exit code {code}"))
            continue
        try:
            errors = cmd.check(run_dir, inputs, result.sizes)
        except Exception as exc:  # malformed output fails the command, not the run
            errors = [f"{cmd.args[0]}: output check raised {exc!r}"]
        if errors:
            result.failed += 1
            result.errors.extend(errors)
    return result


def measure_setup() -> tuple[float, list[float]]:
    """Median wall time of ``import pathcent.cli`` in a fresh interpreter."""
    argv = [sys.executable, "-c", "import pathcent.cli"]
    times = []
    for _ in range(SETUP_REPEATS):
        wall, _, _, code = run_timed(argv, ROOT, COMMAND_CAP_S, WORK / "commands.log")
        if code != 0:
            raise RuntimeError(f"import pathcent.cli failed with exit code {code}")
        times.append(wall)
    return statistics.median(times), times


def reference_errors(workload, got: dict, traced: bool) -> list[str]:
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))["workloads"][workload.name]
    if not traced:
        ref.pop("window_orders", None)  # recorded only by the traced run
    return workloads.compare_reference(got, ref)


def merge_spans(spans_dir: Path, n: int) -> dict:
    """Sum the per-command span files of one traced pass."""
    layers: dict[str, dict] = {}
    counters: dict[str, float] = {}
    records: dict[str, list] = {}
    merged = {"spans": 0, "unwrapped": set()}
    for i in range(n):
        path = spans_dir / f"{i}.json"
        if not path.exists():
            continue
        doc = json.loads(path.read_text(encoding="utf-8"))
        merged["spans"] += doc["spans"]
        merged["unwrapped"].update(doc["unwrapped"])
        for name, agg in doc["layers"].items():
            acc = layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += agg[key]
        for name, value in doc["counters"].items():
            peak = name.endswith("_max")
            counters[name] = max(counters.get(name, value), value) if peak else counters.get(name, 0) + value
        for name, values in doc["records"].items():
            records.setdefault(name, []).extend(values)
    merged.update(layers=layers, counters=counters, records=records)
    return merged


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def layer_metrics(names: list[str], merged: dict, plain: Pass, traced: Pass,
                  run_dir: Path) -> dict:
    """Per-layer values by metric name; None where the layer never ran."""
    layers, counters = merged["layers"], merged["counters"]
    special = {
        "trace.overhead_s": traced.wall_s - plain.wall_s,
        "trace.job_s": traced.wall_s,
        "trace.spans": merged["spans"],
        "cli.output_bytes": sum(len(b) for b in tree_bytes(run_dir).values()),
    }
    out = {}
    for name in names:
        span, _, stat = name.rpartition(".")
        if name in special:
            out[name] = special[name]
        elif name in counters:
            out[name] = counters[name]
        elif stat in ("self_s", "calls") and span in layers:
            out[name] = layers[span][stat]
        else:
            out[name] = None
    return out


def measure_end_to_end(workload, seed: int, seconds: float, deadline: float,
                       info: dict) -> tuple[list[Pass], dict, list[str]]:
    """Untraced passes, each on its own corpus (seed, pass index), until they
    have measured at least ``seconds``; the seed-0 reference is checked on
    the first."""
    setup_s, info["setup_s"] = measure_setup()
    passes: list[Pass] = []
    errors: list[str] = []
    while True:
        p = run_pass(workload, (seed, len(passes)), WORK / "run", PLAIN_CLI, deadline)
        passes.append(p)
        errors += p.errors
        if len(passes) == 1 and seed == REFERENCE_SEED and not p.failed:
            ref = reference_errors(workload, workload.reference(WORK / "run", {}), traced=False)
            if ref:
                p.failed += 1
                errors += ref
        spent = sum(q.wall_s for q in passes)
        if p.failed or spent >= seconds or time.monotonic() + 1.5 * p.wall_s > deadline:
            break
    info["passes"] = [{"wall_s": p.wall_s, "cpu_s": p.cpu_s, "peak_rss_mb": p.peak_rss_mb,
                       "sizes": p.sizes, "commands": p.commands} for p in passes]
    metrics = {
        "job_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "setup_s": setup_s,
        "peak_rss_mb": max(p.peak_rss_mb for p in passes),
    }
    return passes, metrics, errors


def measure_layers(workload, seed: int, names: list[str], write_reference: bool,
                   deadline: float, info: dict) -> tuple[list[Pass], dict, list[str]]:
    """The first pass untraced and then traced: per-layer metrics, overhead,
    and the checks that tracing changed no output byte and filled every
    layer this workload exercises."""
    spans_dir = WORK / "spans"
    spans_dir.mkdir()
    plain = run_pass(workload, (seed, 0), WORK / "plain", PLAIN_CLI, deadline)
    traced = run_pass(workload, (seed, 0), WORK / "traced",
                      [sys.executable, str(BENCH_DIR / "trace.py")], deadline, spans_dir)
    errors = plain.errors + traced.errors
    merged = merge_spans(spans_dir, len(workload.commands))
    if merged["unwrapped"]:
        errors.append(f"trace: public functions left unwrapped: {sorted(merged['unwrapped'])}")
    if not (plain.failed or traced.failed):
        a, b = tree_bytes(WORK / "plain"), tree_bytes(WORK / "traced")
        differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        if differ:
            errors.append(f"trace: outputs differ with tracing: {differ}")
        got = workload.reference(WORK / "traced", merged["records"])
        if write_reference:
            doc = (json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists()
                   else {"seed": REFERENCE_SEED, "workloads": {}})
            doc["workloads"][workload.name] = got
            REFERENCE.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")
        elif seed == REFERENCE_SEED:
            errors += reference_errors(workload, got, traced=True)
    values = layer_metrics(names, merged, plain, traced, WORK / "traced")
    empty = sorted(n for n in workload.layers if values.get(n) is None)
    if empty:
        errors.append(f"trace: layer metrics left empty: {empty}")
    if errors and not (plain.failed or traced.failed):
        traced.failed += 1  # a failed trace check fails the traced pass
    traced.sizes.update({k[len("size."):]: v for k, v in merged["counters"].items()
                         if k.startswith("size.")})
    info.update(sizes=traced.sizes, layers=merged["layers"],
                window_orders=merged["records"].get("models.select_order.orders"))
    return [plain, traced], {n: 0.0 if v is None else v for n, v in values.items()}, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help=f"store this run's outputs as the seed-{REFERENCE_SEED} reference "
                             "(needs --trace 1)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pathcent" / "cli.py").is_file():
        print(f"error: no pathcent sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    covered = set().union(*(w.layers for w in workloads.WORKLOADS.values()))
    uncovered = {m["name"] for m in spec["per_layer"]} ^ covered
    if uncovered:
        print(f"error: per-layer metrics and workload layers disagree on {sorted(uncovered)}",
              file=sys.stderr)
        return 2
    if args.write_reference and (args.trace != 1 or args.seed != REFERENCE_SEED):
        parser.error(f"--write-reference needs --trace 1 and --seed {REFERENCE_SEED}")

    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    workload = workloads.WORKLOADS[args.workload]
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    # smells.json sums floats in set order, so its last bits follow the hash
    # seed; pinning it per seed keeps traced and untraced outputs comparable.
    os.environ["PYTHONHASHSEED"] = str(args.seed % 2**32)
    info = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "nproc": NPROC, "blas_threads": NPROC, "hash_seed": os.environ["PYTHONHASHSEED"],
        "versions": {"python": sys.version.split()[0],
                     **{m: metadata.version(m) for m in ("numpy", "scipy", "networkx", "click")}},
    }
    # Untimed: writes the bytecode caches a fresh checkout lacks.
    compileall.compile_dir(ROOT / "src" / "pathcent", quiet=1)
    if args.trace == 0:
        wanted = spec["end_to_end"]
        passes, metrics, errors = measure_end_to_end(workload, args.seed, args.seconds,
                                                     deadline, info)
    else:
        wanted = spec["per_layer"]
        passes, metrics, errors = measure_layers(workload, args.seed, [m["name"] for m in wanted],
                                                 args.write_reference, deadline, info)

    info["elapsed_s"] = time.monotonic() - started
    info["errors"] = errors
    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)
    failed = sum(p.failed for p in passes)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": sum(p.attempted for p in passes),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
