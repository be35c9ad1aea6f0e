"""Command-line pipeline: ingest, centrality, experiment, smells.

Outputs are file-based and reproducible: every output embeds the run
configuration (the parsed options, minus the input and output paths) and a
content hash of its inputs, and reruns with identical config, inputs, and seed
produce byte-identical files.

Each option is declared once, with its check, so a bad value is a usage error
before any input is read. Each command imports the layers it runs in its own
body, so ``--help``, usage errors and ``ingest`` load neither numpy nor scipy.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import re
import sys
from json.encoder import encode_basestring_ascii as _encode
from pathlib import Path as FsPath

import click

from . import pathdata
from .errors import DataError, NumericError, UnsupportedMeasureError

_DURATION_UNITS = {"s": 1, "d": 86400, "m": 30 * 86400, "y": 365 * 86400}


def parse_duration(text: str) -> int:
    """'800', '800s', '90d', '3m' (30-day months), '1y' (365-day years); never 0."""
    match = re.fullmatch(r"(\d+)([sdmy]?)", text.strip())
    if not match or int(match[1]) == 0:
        raise click.UsageError(f"bad duration {text!r}: expected a positive count of s, d, m or y")
    return int(match[1]) * _DURATION_UNITS[match[2] or "s"]


def _order(ctx, param, value: str):
    """``--k``: an integer >= 1, or 'auto' to select the order by AIC up to ``--k-max``."""
    if value != "auto" and not (value.isascii() and value.isdigit() and int(value) >= 1):
        raise click.BadParameter(f"expected an integer >= 1 or 'auto', got {value!r}")
    return value if value == "auto" else int(value)


def _not_nan(ctx, param, value: float) -> float:
    """A float option's NaN, which ``click.FloatRange`` lets through, is a usage error."""
    if math.isnan(value):
        raise click.BadParameter(f"{value!r} is not a number")
    return value


def _output_dir(ctx, param, value: str) -> FsPath:
    """Reject a path that is, or lies under, an existing non-directory; create nothing."""
    path = FsPath(value)
    if any(p.exists() and not p.is_dir() for p in (path, *path.parents)):
        raise click.BadParameter(f"{value!r} is, or lies under, a file that is not a directory")
    return path


def _model_labels(ctx, param, value: str) -> list[str]:
    """``--models``: the distinct comma-separated labels, at least one, each checked."""
    labels = list(dict.fromkeys(m.strip() for m in value.split(",") if m.strip()))
    if not labels:
        raise click.BadParameter(f"expected at least one model label, got {value!r}")
    try:
        for label in labels:
            pathdata.parse_model_label(label)
    except DataError as err:
        raise click.BadParameter(str(err)) from None
    return labels


_INPUT = click.option("--input", "input_path", required=True,
                      type=click.Path(exists=True, dir_okay=False))
_OUTPUT_DIR = click.option("--output-dir", "out", metavar="DIR", required=True,
                           callback=_output_dir, help="created if missing; not a file or under one")
_MEASURES = click.option(
    "--measure", "measures", multiple=True, type=click.Choice(pathdata.MEASURES),
    callback=lambda ctx, param, value: tuple(dict.fromkeys(value or pathdata.MEASURES)),
    help="repeatable; default: all measures")


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _meta(inputs: list[str], **resolved) -> dict:
    """The run config, i.e. the command and its parsed options minus the input and
    output paths, updated by the ``resolved`` values (the selected order); and the
    SHA-256 of each input."""
    ctx = click.get_current_context()
    params = {k: v for k, v in ctx.params.items() if k not in ("input_path", "out")}
    return {"config": {"command": ctx.command.name, **params, **resolved},
            "input_sha256": {p: _sha256(p) for p in sorted(inputs)}}


#: Rows of a per-state column formatted and joined at a time; 2**10 to 2**16 rows
#: wrote a 57k-state model alike, and fewer rows hold fewer strings at once.
_CHUNK = 1 << 12
#: Per-state values, written as the JSON object of their pairs: ``keys`` sorted
#: and already JSON-encoded, and ``values`` a float64 array aligned with them.
_Column = dataclasses.make_dataclass("_Column", ["keys", "values"], frozen=True)


def _json_float(x: float) -> str:
    return float.__repr__(x) if math.isfinite(x) else json.dumps(x)  # = json.dumps(x), faster


def _chunks(keys: list, values, fmt):
    """``keys`` and ``fmt`` of their float64 ``values``, ``_CHUNK`` of each at a time;
    ``fmt`` runs once per distinct bit pattern in a chunk, so -0.0 stays apart, and that
    pays: a chunk of the bench walks' k = 3 fit holds at most 2 % distinct values (path
    reach 68-88 %), so its five per-state columns format 2.7x faster than value by value."""
    import numpy as np

    for at in range(0, len(keys), _CHUNK):
        bits, inverse = np.unique(values[at:at + _CHUNK].view(np.uint64), return_inverse=True)
        texts = list(map(fmt, bits.view(np.float64).tolist()))
        yield keys[at:at + _CHUNK], map(texts.__getitem__, inverse.tolist())


def _write_value(fh, obj, newline: str) -> None:
    """``obj`` as ``json.dumps(obj, sort_keys=True, indent=2)`` writes it at the indent of
    ``newline``: a dict key by key, a :class:`_Column` in chunks of ``_CHUNK`` pairs."""
    inner = newline + "  "
    if isinstance(obj, _Column):
        for i, (keys, texts) in enumerate(_chunks(obj.keys, obj.values, _json_float)):
            rows = map(": ".join, zip(keys, texts))
            fh.write(("," if i else "{") + inner + ("," + inner).join(rows))
        fh.write(newline + "}" if obj.keys else "{}")
    elif isinstance(obj, dict) and obj:
        for i, (key, value) in enumerate(sorted(obj.items())):
            key = key if isinstance(key, str) else json.dumps(key)  # as json.dumps converts keys
            fh.write(("," if i else "{") + inner + _encode(key) + ": ")
            _write_value(fh, value, inner)
        fh.write(newline + "}")
    else:  # the text holds no newline but its indent: strings escape theirs
        fh.write(json.dumps(obj, sort_keys=True, indent=2).replace("\n", newline))


def _write_json(path: FsPath, meta: dict, results) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        _write_value(fh, {**meta, "results": results}, "\n")
        fh.write("\n")


def _lines(path: str):
    """The lines of ``path`` as UTF-8 text; a byte sequence that is not UTF-8 is a data error."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield from fh
    except UnicodeDecodeError as err:
        raise DataError(f"{path}: not UTF-8 text ({err.reason})") from None


def _csv_header(out, meta: dict) -> None:
    out.write("# " + json.dumps(meta, sort_keys=True) + "\n")


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _unkeyed(result) -> dict:
    """The fields of a per-member result (a dataclass), less the ``member`` that keys it."""
    return {k: v for k, v in dataclasses.asdict(result).items() if k != "member"}


@click.group()
def cli():
    """Path models, centralities, prediction experiments, and smell detection."""


@cli.command()
@_INPUT
@click.option("--format", required=True, type=click.Choice(["paths", "temporal-edges", "actions"]))
@click.option("--delta", default=None, help="chaining window for temporal-edges")
@click.option("--delimiter", default=",", show_default=True)
@_OUTPUT_DIR
def ingest(input_path, format, delta, delimiter, out):
    """Normalize raw input into the canonical path format plus stats JSON."""
    if (format == "temporal-edges") != (delta is not None):
        raise click.UsageError("--delta is required with, and applies only to, --format temporal-edges")
    if not delimiter:
        raise click.UsageError("--delimiter must not be empty")
    window = parse_duration(delta) if format == "temporal-edges" else None
    lines = _lines(input_path)
    if format == "paths":
        ds = pathdata.parse_paths(lines, delimiter)
    elif format == "temporal-edges":
        ds = pathdata.extract_paths(pathdata.read_temporal_edges(lines, delimiter), window)
    else:
        ds = pathdata.paths_from_actions(pathdata.read_actions(lines, delimiter))
    out.mkdir(parents=True, exist_ok=True)
    meta = _meta([input_path])
    with open(out / "dataset.paths", "w", encoding="utf-8") as fh:
        _csv_header(fh, meta)
        pathdata.write_paths(ds, fh)
    _write_json(out / "stats.json", meta, dataclasses.asdict(pathdata.stats(ds)))
    click.echo(f"ingested {ds.total} paths ({ds.unique} unique)")


def load_dataset(path: str) -> pathdata.PathDataset:
    return pathdata.parse_paths(_lines(path))


@cli.command("centrality")
@_INPUT
@click.option("--model", required=True, type=click.Choice(["network", "path", "mogen"]))
@click.option("--k", default="2", show_default=True, callback=_order, metavar="N|auto",
              help="maximum order K, or 'auto' to select K by AIC up to --k-max")
@click.option("--k-max", default=5, show_default=True, type=click.IntRange(min=1))
@_MEASURES
@click.option("--edges", is_flag=True, help="also report order-2 state centralities (mogen, K>=2)")
@click.option("--min-visitation", default=0.02, show_default=True,
              type=click.FloatRange(0, 1), callback=_not_nan)
@_OUTPUT_DIR
def centrality_cmd(input_path, model, k, k_max, measures, edges, min_visitation, out):
    """Compute centrality reports for one model family."""
    if edges and (model != "mogen" or k == 1):
        raise click.UsageError("--edges requires --model mogen and --k auto or at least 2")
    from . import centrality as cent
    from .models import fit_mogen, fit_network, fit_path, select_order

    ds = load_dataset(input_path)
    if model == "network":
        fitted = fit_network(ds)
    elif model == "path":
        fitted = fit_path(ds)
    else:
        fits: dict = {}
        if k == "auto":
            k = select_order(ds, k_max, fits)
            click.echo(f"selected order K={k}")
        fitted = fits.get(k) or fit_mogen(ds, k)
        keys = fitted.state_keys  # in row order, as the CSV writes them
        order = sorted(range(len(keys)), key=keys.__getitem__)  # shared by every JSON column
        sorted_keys = [_encode(keys[i]) for i in order]

    results: dict = {}
    csv_rows: dict = {}  # measure -> (keys, values) of its CSV blocks: first order, then states
    for measure in measures:
        try:
            vec = cent.compute(fitted, measure)
        except UnsupportedMeasureError as err:
            click.echo(f"warning: {err}", err=True)
            continue
        results[measure] = {"first_order": _Column(list(map(_encode, vec.nodes)), vec.values)}
        csv_rows[measure] = [(vec.nodes, vec.values)]
        if vec.state_scores is not None:
            csv_rows[measure].append((keys, vec.state_scores))
            results[measure]["states"] = _Column(sorted_keys, vec.state_scores[order])
    if not results:
        raise DataError("no requested measure is supported by this model")

    if edges:
        report = cent.edge_centralities(fitted, measures=list(csv_rows), min_visitation=min_visitation)
        names = ["visitation_share", *report.values]
        columns = zip(report.rows.tolist(), *(c.tolist() for c in (report.shares, *report.values.values())))
        results["edges"] = {keys[r]: dict(zip(names, row)) for r, *row in columns}

    out.mkdir(parents=True, exist_ok=True)
    meta = _meta([input_path], k=k)
    with open(out / "centrality.csv", "w", encoding="utf-8") as fh:
        _csv_header(fh, meta)
        fh.write("measure,model,state,score\n")
        for measure, blocks in csv_rows.items():
            head = f"{measure},{model},"
            for chunk in (chunk for block in blocks for chunk in _chunks(*block, _fmt)):
                fh.write(head + ("\n" + head).join(map(",".join, zip(*chunk))) + "\n")
    _write_json(out / "centrality.json", meta, results)


@cli.command("experiment")
@_INPUT
@click.option("--models", default="N,M1,M2,M3,M4,M5,P", show_default=True, callback=_model_labels,
              help="comma-separated: N (network), P (path), M<k> (multi-order, k >= 1)")
@_MEASURES
@click.option("--train-fraction", default=0.3, show_default=True,
              type=click.FloatRange(0, 1, min_open=True, max_open=True), callback=_not_nan)
@click.option("--replicates", default=5, show_default=True, type=click.IntRange(min=1))
@click.option("--k-truth", default=5, show_default=True, type=click.IntRange(min=1))
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
@_OUTPUT_DIR
def experiment_cmd(input_path, models, measures, train_fraction, replicates, k_truth,
                   seed, out):
    """Top-decile AUC prediction experiment across model families."""
    from . import experiment as exp

    spec = exp.SplitSpec(train_fraction, seed, replicates)
    results = exp.evaluate(load_dataset(input_path), spec, models, measures, k_truth)

    out.mkdir(parents=True, exist_ok=True)
    meta = _meta([input_path])
    with open(out / "auc.csv", "w", encoding="utf-8") as fh:
        _csv_header(fh, meta)
        fh.write(",".join(["dataset", *(f"{r.measure}:{r.model}" for r in results)]) + "\n")
        fh.write(",".join([FsPath(input_path).name, *(f"{r.mean:.3f}" for r in results)]) + "\n")
    _write_json(out / "auc.json", meta, [
        {"model": r.model, "measure": r.measure, "mean": r.mean, "replicates": list(r.aucs)}
        for r in results])


@cli.command("smells")
@click.option("--platform", "platforms", multiple=True, required=True,
              help="NAME=PATHFILE, repeatable")
@click.option("--window", default="1y", show_default=True)
@click.option("--shift", default="3m", show_default=True)
@click.option("--k", default="auto", show_default=True, callback=_order, metavar="N|auto",
              help="maximum order, or 'auto' for per-window AIC selection")
@click.option("--k-max", default=3, show_default=True, type=click.IntRange(min=1))
@click.option("--top", default=5, show_default=True, type=click.IntRange(min=1))
@click.option("--theta-end", default=0.5, show_default=True, type=click.FloatRange(0, 1), callback=_not_nan)
@click.option("--consecutive", default=4, show_default=True, type=click.IntRange(min=1))
@click.option("--theta-role", default=0.05, show_default=True, type=click.FloatRange(0, 1), callback=_not_nan)
@_OUTPUT_DIR
def smells_cmd(platforms, window, shift, k, k_max, top, theta_end, consecutive, theta_role, out):
    """Windowed centralities, deviation scores, ranking, and evidence flags."""
    length = parse_duration(window)
    step = parse_duration(shift)
    if length < step:  # a path starting between two windows would be in neither
        raise click.UsageError("--window must be at least --shift")
    order = None if k == "auto" else k
    parsed: dict[str, str] = {}
    for spec_text in platforms:
        name, eq, path = spec_text.partition("=")
        if not (eq and name) or "," in name:  # series.csv has a platform column
            raise click.UsageError(f"--platform expects NAME=PATHFILE, NAME without ',', got {spec_text!r}")
        if name in parsed:  # deviation scores key platforms by name
            raise click.UsageError(f"--platform {name} is given more than once")
        if not FsPath(path).is_file():
            raise click.UsageError(f"--platform {name}: {path!r} is not a file")
        parsed[name] = path
    from . import smells

    series_list = []
    for name, path in parsed.items():
        ds = load_dataset(path)
        if not ds.has_timestamps:
            raise DataError(f"platform {name}: paths are missing timestamps")
        series_list.append(smells.windowed_centralities(
            pathdata.rolling_windows(ds, length, step), order, k_max=k_max, platform=name))
        del ds  # the next platform loads once this corpus, its windows and encoding are freed
    scores = smells.deviation_scores(series_list)
    ranked = smells.rank_members(scores, top)

    out.mkdir(parents=True, exist_ok=True)
    meta = _meta(list(parsed.values()))
    evidence: dict[str, list] = {}
    with open(out / "series.csv", "w", encoding="utf-8") as fh:  # and each member's evidence
        _csv_header(fh, meta)
        fh.write("member,platform,window_start,measure,value,team_mean\n")
        for member in ranked:
            evidence[member] = []
            for series in series_list:
                if member not in series.members:
                    continue
                ev = smells.evidence(series, member, theta_end=theta_end,
                                     min_consecutive=consecutive, theta_role=theta_role)
                evidence[member].append({"platform": series.platform, **_unkeyed(ev)})
                j = series.members.index(member)
                active = series.active[:, j].tolist()
                for measure in sorted(series.values):
                    means = series.team_means(measure).tolist()
                    rows = zip(series.window_starts, active, series.values[measure][:, j].tolist(), means)
                    for w, on, val, mu in rows:
                        if on:
                            fh.write(f"{member},{series.platform},{w},{measure},{_fmt(val)},{_fmt(mu)}\n")
    _write_json(out / "smells.json", meta, {
        "ranked_members": ranked,
        "scores": {d.member: _unkeyed(d) for d in scores if d.member in ranked},
        "evidence": evidence,
        "note": "hypothesis validation (interviews) is out of scope",
    })
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
