"""Command-line pipeline: ingest, centrality, experiment, smells.

Outputs are file-based and reproducible: every output embeds the run
configuration and a content hash of its inputs, and reruns with identical
config, inputs, and seed produce byte-identical files.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""
from __future__ import annotations

import hashlib
import json
import re
import sys
from pathlib import Path as FsPath

import click

from . import centrality as cent
from . import experiment as exp
from . import pathdata, smells
from .errors import DataError, NumericError, UnsupportedMeasureError
from .models import fit_mogen, fit_network, fit_path, select_order

_DURATION_UNITS = {"s": 1, "d": 86400, "m": 30 * 86400, "y": 365 * 86400}


def parse_duration(text: str) -> int:
    """'800', '800s', '90d', '3m' (30-day months), '1y' (365-day years)."""
    match = re.fullmatch(r"(\d+)([sdmy]?)", text.strip())
    if not match:
        raise click.UsageError(f"bad duration {text!r}")
    value, unit = match.groups()
    return int(value) * _DURATION_UNITS[unit or "s"]


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _meta(config: dict, inputs: list[str]) -> dict:
    return {
        "config": config,
        "input_sha256": {p: _sha256(p) for p in sorted(inputs)},
    }


def _write_json(path: FsPath, meta: dict, results) -> None:
    doc = dict(meta)
    doc["results"] = results
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _csv_header(out, meta: dict) -> None:
    out.write("# " + json.dumps(meta, sort_keys=True) + "\n")


def _fmt(x: float) -> str:
    return f"{x:.9g}"


@click.group()
def cli():
    """Path models, centralities, prediction experiments, and smell detection."""


@cli.command()
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--format", "fmt", required=True,
              type=click.Choice(["paths", "temporal-edges", "actions"]))
@click.option("--delta", default=None, help="chaining window for temporal-edges")
@click.option("--delimiter", default=",", show_default=True)
@click.option("--output-dir", required=True, type=click.Path())
def ingest(input_path, fmt, delta, delimiter, output_dir):
    """Normalize raw input into the canonical path format plus stats JSON."""
    if fmt == "temporal-edges" and delta is None:
        raise click.UsageError("--delta is required with --format temporal-edges")
    config = {
        "command": "ingest", "format": fmt, "delta": delta,
        "delimiter": delimiter,
    }
    with open(input_path, encoding="utf-8") as fh:
        if fmt == "paths":
            ds = pathdata.parse_paths(fh, delimiter)
        elif fmt == "temporal-edges":
            edges = pathdata.read_temporal_edges(fh, delimiter)
            ds = pathdata.extract_paths(edges, parse_duration(delta))
        else:
            ds = pathdata.paths_from_actions(pathdata.read_actions(fh, delimiter))
    out = FsPath(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta = _meta(config, [input_path])
    with open(out / "dataset.paths", "w", encoding="utf-8") as fh:
        _csv_header(fh, meta)
        pathdata.write_paths(ds, fh)
    _write_json(out / "stats.json", meta, pathdata.stats(ds).as_dict())
    click.echo(f"ingested {ds.total} paths ({ds.unique} unique)")


def load_dataset(path: str) -> pathdata.PathDataset:
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return pathdata.parse_paths(lines)


@cli.command("centrality")
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--model", required=True, type=click.Choice(["network", "path", "mogen"]))
@click.option("--k", default=2, show_default=True, type=int)
@click.option("--auto-order", is_flag=True, help="select K by AIC up to --k-max")
@click.option("--k-max", default=5, show_default=True, type=int)
@click.option("--measure", "measures", multiple=True,
              type=click.Choice(cent.MEASURES), help="default: all measures")
@click.option("--edges", "edge_report", is_flag=True,
              help="also report order-2 state centralities (mogen, K>=2)")
@click.option("--min-visitation", default=0.02, show_default=True, type=float)
@click.option("--output-dir", required=True, type=click.Path())
def centrality_cmd(input_path, model, k, auto_order, k_max, measures,
                   edge_report, min_visitation, output_dir):
    """Compute centrality reports for one model family."""
    measures = measures or cent.MEASURES
    ds = load_dataset(input_path)
    config = {
        "command": "centrality", "model": model, "k": k,
        "auto_order": auto_order, "k_max": k_max, "measures": list(measures),
        "edges": edge_report, "min_visitation": min_visitation,
    }
    if model == "network":
        fitted = fit_network(ds)
    elif model == "path":
        fitted = fit_path(ds)
    else:
        if auto_order:
            k = select_order(ds, k_max)
            click.echo(f"selected order K={k}")
        fitted = fit_mogen(ds, k)
        config["k"] = k

    rows = []
    json_results: dict = {}
    skipped = []
    for measure in measures:
        try:
            vec = cent.compute(fitted, measure)
        except UnsupportedMeasureError as err:
            click.echo(f"warning: {err}", err=True)
            skipped.append(measure)
            continue
        for node in sorted(vec.scores):
            rows.append((measure, model, node, vec.scores[node]))
        json_results[measure] = {
            "first_order": {n: vec.scores[n] for n in sorted(vec.scores)},
        }
        if vec.state_scores:
            rows.extend(
                (measure, model, "|".join(s), vec.state_scores[s])
                for s in sorted(vec.state_scores)
            )
            json_results[measure]["states"] = {
                "|".join(s): vec.state_scores[s] for s in sorted(vec.state_scores)
            }
    if len(skipped) == len(measures):
        raise DataError("no requested measure is supported by this model")

    if edge_report:
        if model != "mogen":
            raise click.UsageError("--edges requires --model mogen")
        report = cent.edge_centralities(fitted, measures=[m for m in measures if m not in skipped],
                                        min_visitation=min_visitation)
        json_results["edges"] = {
            "|".join(s): {"visitation_share": report.shares[s], **report.values[s]}
            for s in sorted(report.values)
        }

    out = FsPath(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta = _meta(config, [input_path])
    with open(out / "centrality.csv", "w", encoding="utf-8") as fh:
        _csv_header(fh, meta)
        fh.write("measure,model,state,score\n")
        for measure, mdl, state, score in rows:
            fh.write(f"{measure},{mdl},{state},{_fmt(score)}\n")
    _write_json(out / "centrality.json", meta, json_results)


@cli.command("experiment")
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--models", default="N,M1,M2,M3,M4,M5,P", show_default=True)
@click.option("--measure", "measures", multiple=True, type=click.Choice(cent.MEASURES))
@click.option("--train-fraction", default=0.3, show_default=True, type=float)
@click.option("--replicates", default=5, show_default=True, type=int)
@click.option("--k-truth", default=5, show_default=True, type=int)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--output-dir", required=True, type=click.Path())
def experiment_cmd(input_path, models, measures, train_fraction, replicates,
                   k_truth, seed, output_dir):
    """Top-decile AUC prediction experiment across model families."""
    measures = measures or cent.MEASURES
    model_labels = [m.strip() for m in models.split(",") if m.strip()]
    for label in model_labels:
        exp.parse_model_label(label)
    ds = load_dataset(input_path)
    config = {
        "command": "experiment", "models": model_labels,
        "measures": list(measures), "train_fraction": train_fraction,
        "replicates": replicates, "k_truth": k_truth, "seed": seed,
    }
    spec = exp.SplitSpec(train_fraction, seed, replicates)
    results = exp.evaluate(ds, spec, model_labels, measures, k_truth)
    by_key = {(r.model, r.measure): r for r in results}

    out = FsPath(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta = _meta(config, [input_path])
    with open(out / "auc.csv", "w", encoding="utf-8") as fh:
        _csv_header(fh, meta)
        cols = [
            f"{measure}:{label}"
            for measure in measures
            for label in model_labels
            if (label, measure) in by_key
        ]
        fh.write("dataset," + ",".join(cols) + "\n")
        cells = [
            f"{by_key[(label, measure)].mean:.3f}"
            for measure in measures
            for label in model_labels
            if (label, measure) in by_key
        ]
        fh.write(FsPath(input_path).name + "," + ",".join(cells) + "\n")
    _write_json(
        out / "auc.json",
        meta,
        [
            {"model": r.model, "measure": r.measure, "mean": r.mean,
             "replicates": list(r.aucs)}
            for r in results
        ],
    )


@cli.command("smells")
@click.option("--platform", "platforms", multiple=True, required=True,
              help="NAME=PATHFILE, repeatable")
@click.option("--window", default="1y", show_default=True)
@click.option("--shift", default="3m", show_default=True)
@click.option("--k", default="auto", show_default=True,
              help="maximum order, or 'auto' for per-window AIC selection")
@click.option("--k-max", default=3, show_default=True, type=int)
@click.option("--top", default=5, show_default=True, type=int)
@click.option("--theta-end", default=0.5, show_default=True, type=float)
@click.option("--consecutive", default=4, show_default=True, type=int)
@click.option("--theta-role", default=0.05, show_default=True, type=float)
@click.option("--output-dir", required=True, type=click.Path())
def smells_cmd(platforms, window, shift, k, k_max, top, theta_end, consecutive,
               theta_role, output_dir):
    """Windowed centralities, deviation scores, ranking, and evidence flags."""
    length = parse_duration(window)
    step = parse_duration(shift)
    if k != "auto" and not re.fullmatch(r"-?\d+", k):
        raise click.UsageError(f"--k expects an integer or 'auto', got {k!r}")
    order = None if k == "auto" else int(k)
    parsed = []
    for spec_text in platforms:
        if "=" not in spec_text:
            raise click.UsageError("--platform expects NAME=PATHFILE")
        name, _, path = spec_text.partition("=")
        parsed.append((name, path))
    config = {
        "command": "smells", "platforms": [f"{n}={p}" for n, p in parsed],
        "window": window, "shift": shift, "k": k, "k_max": k_max, "top": top,
        "theta_end": theta_end, "consecutive": consecutive,
        "theta_role": theta_role,
    }
    series_list = []
    for name, path in parsed:
        ds = load_dataset(path)
        if not ds.has_timestamps:
            raise DataError(f"platform {name}: paths are missing timestamps")
        windows = pathdata.rolling_windows(ds, length, step)
        series_list.append(
            smells.windowed_centralities(windows, order, k_max=k_max, platform=name)
        )
    scores = smells.deviation_scores(series_list)
    ranked = smells.rank_members(scores, top)
    by_member = {d.member: d for d in scores}

    out = FsPath(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta = _meta(config, [p for _, p in parsed])
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
            if member not in series.members():
                continue
            ev = smells.evidence(
                series, member, theta_end=theta_end,
                min_consecutive=consecutive, theta_role=theta_role,
            )
            report["evidence"][member].append({
                "platform": series.platform,
                "end_dominance": ev.end_dominance,
                "end_dominance_windows": [list(r) for r in ev.end_dominance_windows],
                "code_red_windows": list(ev.code_red_windows),
            })
    _write_json(out / "smells.json", meta, report)
    for member in ranked:
        safe = re.sub(r"[^A-Za-z0-9_.-]", "_", member)
        with open(out / f"series_{safe}.csv", "w", encoding="utf-8") as fh:
            _csv_header(fh, meta)
            fh.write("platform,window_start,measure,value,team_mean\n")
            for series in series_list:
                for measure in sorted(series.values):
                    for w in series.window_starts:
                        if member not in series.active[w]:
                            continue
                        val = series.values[measure][w].get(member, 0.0)
                        mean = series.team_mean(measure, w)
                        fh.write(
                            f"{series.platform},{w},{measure},"
                            f"{_fmt(val)},{_fmt(mean)}\n"
                        )
    click.echo("ranked: " + ", ".join(ranked))


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.UsageError as err:
        click.echo(f"usage error: {err.format_message()}", err=True)
        return 1
    except click.ClickException as err:
        err.show()
        return 1
    except click.exceptions.Abort:
        return 1
    except DataError as err:
        click.echo(f"data error: {err}", err=True)
        return 2
    except NumericError as err:
        click.echo(f"numeric error: {err}", err=True)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
