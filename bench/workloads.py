"""The benchmark's workloads: inputs, CLI commands, output checks and the
layers each one is expected to exercise.

Every command runs from a run directory with the generated inputs in the
sibling ``inputs`` directory, so traced and untraced runs see identical
relative paths and their outputs can be compared byte for byte. See
``README.md`` in this directory for why each workload exists.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import corpora

MEASURES = ("betweenness", "closeness", "path_end", "path_continuation",
            "path_reach", "visitation")
PATH_MEASURES = frozenset(MEASURES) - {"betweenness", "closeness"}
EXPERIMENT_MODELS = ("N", "M1", "M2", "M3", "M4", "M5", "P")

#: Relative tolerance of reference scores; the solver may change last bits.
SCORE_RTOL = 1e-6
#: Absolute tolerance of reference AUCs; a broken tie moves an AUC slightly.
AUC_ATOL = 1e-3
#: Largest accepted ||(I-Q)^T v - c S||_inf / ||c S||_inf for the written
#: visitation vector v.
RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the check of what it wrote."""

    args: tuple[str, ...]
    #: (run_dir, inputs_dir, sizes) -> errors; may record problem sizes.
    check: Callable[[Path, Path, dict], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[tuple[int, ...], Path], dict]  # (seed, inputs_dir) -> sizes
    commands: tuple[Command, ...]
    reference: Callable[[Path, dict], dict]  # (run_dir, trace records) -> values
    layers: frozenset[str]  # per-layer metrics this workload must fill


def _results(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))["results"]


def _read_paths(path: Path) -> list[tuple[tuple[str, ...], int | None, int]]:
    """(nodes, start time, count) per line of a canonical path file."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            fields = line.rstrip("\n").split(";")
            start = int(fields[2]) if len(fields) > 2 else None
            out.append((tuple(fields[0].split(",")), start, int(fields[1])))
    return out


# --- mogen-centrality ------------------------------------------------------

def _walk_inputs(seed: tuple[int, ...], inputs: Path) -> dict:
    return corpora.random_walks(seed, inputs / "walks.paths")


def _check_centrality(run: Path, inputs: Path, sizes: dict) -> list[str]:
    res = _results(run / "centrality" / "centrality.json")
    errors = []
    missing = set(MEASURES) - set(res)
    if missing:
        return [f"centrality: measures missing {sorted(missing)}"]
    for measure in ("path_end", "visitation"):
        total = math.fsum(res[measure]["first_order"].values())
        if abs(total - 1.0) > 1e-9:
            errors.append(f"centrality: first-order {measure} sums to {total!r}")
    errors += _visitation_residual(res["visitation"]["states"], inputs / "walks.paths", sizes)
    return errors


def _visitation_residual(states: dict, corpus: Path, sizes: dict) -> list[str]:
    """The written visitation vector v must solve (I-Q)^T v = c S for the
    model refitted here, with c = 1 / sum(S.F)."""
    import numpy as np
    from pathcent.cli import load_dataset
    from pathcent.models import fit_mogen

    model = fit_mogen(load_dataset(str(corpus)), 3)
    sizes.update(states=model.n_states, nnz=model.trans_p.nnz)
    if len(states) != model.n_states:
        return [f"centrality: {len(states)} visitation states, model has {model.n_states}"]
    v = np.array([states["|".join(s)] for s in model.states])
    lhs = v - model.trans_p.T @ v
    c = lhs.sum()
    residual = float(abs(lhs - c * model.start_p).max() / abs(c * model.start_p).max())
    if not residual <= RESIDUAL_TOL:
        return [f"centrality: visitation residual {residual:.3g} > {RESIDUAL_TOL}"]
    return []


def _centrality_reference(run: Path, records: dict) -> dict:
    res = _results(run / "centrality" / "centrality.json")
    return {"first_order": {m: res[m]["first_order"] for m in MEASURES}}


# --- pipelines: ingest and smells, then the prediction experiment ------------

def _pipeline_inputs(seed: tuple[int, ...], inputs: Path) -> dict:
    sizes = corpora.temporal_contacts(seed, inputs / "contacts.csv")
    sizes.update(corpora.ticket_actions(seed, inputs / "tickets.csv"))
    families = corpora.order2_families(seed, inputs / "families.paths")
    sizes.update(family_paths=families["paths"], family_unique_paths=families["unique_paths"])
    return sizes


def _check_experiment(run: Path, inputs: Path, sizes: dict) -> list[str]:
    cells = _results(run / "experiment" / "auc.json")
    errors = []
    seen = set()
    for cell in cells:
        key = (cell["model"], cell["measure"])
        seen.add(key)
        values = [cell["mean"], *cell["replicates"]]
        if not all(0.0 <= v <= 1.0 for v in values):
            errors.append(f"experiment: AUC outside [0, 1] for {key}")
        if cell["model"] == "N" and cell["measure"] in PATH_MEASURES:
            errors.append(f"experiment: network model has path-measure cell {key}")
    expected = {(m, s) for m in EXPERIMENT_MODELS for s in MEASURES
                if not (m == "N" and s in PATH_MEASURES)}
    if seen != expected:
        errors.append(f"experiment: cells missing {sorted(expected - seen)}")
    return errors


def _check_ingest_edges(run: Path, inputs: Path, sizes: dict) -> list[str]:
    with open(inputs / "contacts.csv", encoding="utf-8") as fh:
        n_edges = sum(1 for _ in fh) - 1
    paths = _read_paths(run / "chat" / "dataset.paths")
    covered = sum((len(nodes) - 1) * mult for nodes, _, mult in paths)
    sizes.update(contact_paths=sum(mult for _, _, mult in paths),
                 contact_unique_paths=len({nodes for nodes, _, _ in paths}))
    if covered != n_edges:
        return [f"ingest: paths cover {covered} edges of {n_edges}"]
    return []


def _check_ingest_actions(run: Path, inputs: Path, sizes: dict) -> list[str]:
    with open(inputs / "tickets.csv", encoding="utf-8") as fh:
        rows = [line.split(",")[0] for line in fh][1:]
    paths = _read_paths(run / "tickets" / "dataset.paths")
    n_paths = sum(mult for _, _, mult in paths)
    n_actions = sum(len(nodes) * mult for nodes, _, mult in paths)
    sizes.update(ticket_paths=n_paths, ticket_unique_paths=len({nodes for nodes, _, _ in paths}))
    if n_paths != len(set(rows)) or n_actions != len(rows):
        return [f"ingest: {n_paths} paths / {n_actions} actions for "
                f"{len(set(rows))} tickets / {len(rows)} actions"]
    return []


def _check_smells(run: Path, inputs: Path, sizes: dict) -> list[str]:
    sizes["windows"] = sum(_window_count(run / platform / "dataset.paths")
                           for platform in ("chat", "tickets"))
    res = _results(run / "smells" / "smells.json")
    if not res["ranked_members"]:
        return ["smells: empty ranking"]
    return []


def _window_count(path: Path) -> int:
    """Windows that ``smells`` defaults (1y window, 3m shift) make over a file."""
    shift = 90 * 86400
    times = [t for _, t, _ in _read_paths(path)]
    return (max(times) - min(times) // shift * shift) // shift + 1


def _pipeline_reference(run: Path, records: dict) -> dict:
    res = _results(run / "smells" / "smells.json")
    cells = _results(run / "experiment" / "auc.json")
    ref = {
        "ranked_members": res["ranked_members"],
        "scores": {m: res["scores"][m]["total"] for m in res["ranked_members"]},
        "auc": {f"{c['model']}:{c['measure']}": c["mean"] for c in cells},
    }
    if "models.select_order.orders" in records:
        ref["window_orders"] = records["models.select_order.orders"]
    return ref


# --- layers ----------------------------------------------------------------

_COMMON = {"pathdata.parse_paths.self_s", "pathdata.parse_paths.paths",
           "pathdata.PathDataset.self_s", "pathdata.PathDataset.calls",
           "models.fit_mogen.self_s", "models.fit_mogen.calls",
           "models.fit_mogen.states", "models.fit_mogen.nnz",
           "models.expected_visits.self_s", "models.reach_totals.self_s",
           "models.solve.calls", "models.solve.residual_max",
           "centrality.mogen_state_scores.self_s", "cli.load_dataset.self_s",
           "cli.output_bytes", "trace.overhead_s", "trace.job_s", "trace.spans"}
_COMPUTE = {f"centrality.compute.{m}.self_s" for m in MEASURES}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mogen-centrality",
            make_inputs=_walk_inputs,
            commands=(
                Command(("centrality", "--input", "../inputs/walks.paths", "--model", "mogen",
                         "--k", "3", "--output-dir", "centrality"), _check_centrality),
            ),
            reference=_centrality_reference,
            layers=frozenset(_COMMON | _COMPUTE | {"cli.centrality.self_s"}),
        ),
        Workload(
            name="pipelines",
            make_inputs=_pipeline_inputs,
            commands=(
                Command(("ingest", "--input", "../inputs/contacts.csv", "--format",
                         "temporal-edges", "--delta", "3600s", "--output-dir", "chat"),
                        _check_ingest_edges),
                Command(("ingest", "--input", "../inputs/tickets.csv", "--format", "actions",
                         "--output-dir", "tickets"), _check_ingest_actions),
                Command(("smells", "--platform", "chat=chat/dataset.paths",
                         "--platform", "tickets=tickets/dataset.paths",
                         "--output-dir", "smells"), _check_smells),
                Command(("experiment", "--input", "../inputs/families.paths",
                         "--output-dir", "experiment"), _check_experiment),
            ),
            reference=_pipeline_reference,
            layers=frozenset(_COMMON | _COMPUTE | {
                "pathdata.read_temporal_edges.self_s", "pathdata.read_actions.self_s",
                "pathdata.extract_paths.self_s", "pathdata.extract_paths.edges",
                "pathdata.paths_from_actions.self_s", "pathdata.rolling_windows.self_s",
                "pathdata.rolling_windows.windows", "pathdata.write_paths.self_s",
                "pathdata.stats.self_s", "models.select_order.self_s",
                "models.select_order.fits", "smells.windowed_centralities.self_s",
                "smells.windows", "smells.deviation_scores.self_s", "smells.evidence.self_s",
                "cli.ingest.self_s", "cli.smells.self_s",
                "models.fit_network.self_s", "centrality.sequence_scores.self_s",
                "experiment.evaluate.self_s", "experiment.split.self_s",
                "experiment.ground_truth.self_s", "experiment.project_up.self_s",
                "experiment.project_up.targets", "experiment.auc_score.self_s",
                "cli.experiment.self_s"}),
        ),
    )
}


def compare_reference(got, ref, path: str = "") -> list[str]:
    """Differences between extracted values and the stored reference."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{path}: keys differ from the reference"]
        return [e for k in ref for e in compare_reference(got[k], ref[k], f"{path}.{k}")]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: length differs from the reference"]
        return [e for i, (g, r) in enumerate(zip(got, ref))
                for e in compare_reference(g, r, f"{path}[{i}]")]
    if isinstance(ref, float):
        rtol, atol = (0.0, AUC_ATOL) if path.startswith(".auc") else (SCORE_RTOL, 1e-12)
        if not math.isclose(got, ref, rel_tol=rtol, abs_tol=atol):
            return [f"{path}: {got!r} != reference {ref!r}"]
        return []
    return [] if got == ref else [f"{path}: {got!r} != reference {ref!r}"]
