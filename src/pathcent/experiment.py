"""Prediction experiment: can a model fitted on training paths identify the
most influential nodes and node sequences in held-out test paths?

Pipeline per replicate: instance-level train/test split, ground-truth ranking
from the test paths, model predictions projected upward onto the ground-truth
states, and top-decile AUC scoring with midrank tie handling. Results are
averaged over replicates.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from . import centrality
from .errors import DataError
from .models import fit_mogen, fit_network
from .pathdata import Path, PathDataset

State = tuple[str, ...]

#: Measures a plain network model can predict.
NETWORK_MEASURES = frozenset({"betweenness", "closeness"})


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float
    seed: int = 0
    replicates: int = 5

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise DataError("train_fraction must be in (0, 1)")
        if self.replicates < 1:
            raise DataError("replicates must be >= 1")


@dataclass(frozen=True)
class AUCResult:
    model: str
    measure: str
    aucs: tuple[float, ...]

    @property
    def mean(self) -> float:
        return float(np.mean(self.aucs))


def split(ds: PathDataset, fraction: float, seed, max_attempts: int = 100):
    """Assign each path instance independently to train with ``fraction``.

    Multiplicities are unrolled so a repeated path can straddle the split.
    Degenerate draws (either side empty) retry with the next sub-seed.
    """
    instances = []
    for p in ds.paths:
        instances.extend([(p.nodes, p.start_time)] * p.multiplicity)
    if len(instances) < 2:
        raise DataError("need at least 2 path instances to split")
    base = seed if isinstance(seed, (list, tuple)) else [seed]
    for attempt in range(max_attempts):
        rng = np.random.default_rng(list(base) + [attempt])
        mask = rng.random(len(instances)) < fraction
        if mask.any() and not mask.all():
            train = [Path(n, 1, t) for (n, t), m in zip(instances, mask) if m]
            test = [Path(n, 1, t) for (n, t), m in zip(instances, mask) if not m]
            return PathDataset(train), PathDataset(test)
    raise DataError("could not produce a non-degenerate split")


def ground_truth(test: PathDataset, measure: str, k_truth: int) -> list:
    """Rank all sequences up to length ``k_truth`` in the test set, descending.

    Ties break lexicographically on the state tuple.
    """
    if measure not in centrality.MEASURES:
        raise DataError(f"unknown measure {measure!r}")
    scores = centrality.sequence_scores(test, measure, max_len=k_truth)
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))


def project_up(scores: dict, targets, fallback: str = "min") -> dict:
    """Score each target state by its longest scored suffix.

    Each target receives the score of the highest-order scored state that is
    a suffix of it. Targets with no scored suffix get the minimum observed
    score (default) or are dropped with ``fallback='exclude'``.
    """
    floor = min(scores.values()) if scores else 0.0
    out = {}
    for h in targets:
        found = None
        for m in range(len(h), 0, -1):
            if h[-m:] in scores:
                found = scores[h[-m:]]
                break
        if found is None:
            if fallback == "exclude":
                continue
            found = floor
        out[h] = found
    return out


def auc_score(labels, scores) -> float:
    """Rank-based (Mann-Whitney) AUC with midrank tie handling."""
    labels = np.asarray(labels, dtype=bool)
    scores = np.asarray(scores, dtype=float)
    n_pos = int(labels.sum())
    n_neg = int(len(labels) - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUC needs both positive and negative labels")
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def parse_model_label(label: str):
    """'N' -> network, 'P' -> path, 'M<k>' -> multi-order with max order k."""
    if label == "N":
        return ("network", None)
    if label == "P":
        return ("path", None)
    match = re.fullmatch(r"M(\d+)", label)
    if match:
        k = int(match.group(1))
        if k < 1:
            raise DataError(f"bad model label {label!r}")
        return ("mogen", k)
    raise DataError(f"unknown model label {label!r}")


def _mogen_predictions(model, measure: str) -> dict:
    """Prediction scores: first-order projections for single nodes, analytic
    state values for higher-order states."""
    vec = centrality.compute(model, measure)
    # closeness reports no per-state values from compute
    states = vec.state_scores or centrality.mogen_state_scores(model, measure)
    scores = {(v,): s for v, s in vec.scores.items()}
    scores.update((s, val) for s, val in states.items() if len(s) >= 2)
    return scores


def evaluate(
    ds: PathDataset,
    spec: SplitSpec,
    models=("N", "M1", "M2", "P"),
    measures=centrality.MEASURES,
    k_truth: int = 5,
    fallback: str = "min",
) -> list[AUCResult]:
    """Run the full prediction experiment; returns one result per
    (model, measure) pair, skipping pairs the model cannot predict."""
    parsed = [(label, *parse_model_label(label)) for label in models]
    collected: dict = {}
    for rep in range(spec.replicates):
        train, test = split(ds, spec.train_fraction, [spec.seed, rep])
        truths = {m: ground_truth(test, m, k_truth) for m in measures}
        fitted = {}
        for label, kind, k in parsed:
            if kind == "network":
                fitted[label] = fit_network(train)
            elif kind == "mogen":
                fitted[label] = fit_mogen(train, k)
            else:
                fitted[label] = train
        for measure in measures:
            gt = truths[measure]
            targets = [s for s, _ in gt]
            if len(targets) < 10:
                raise DataError("target set too small for decile labeling")
            n_pos = math.ceil(0.1 * len(targets))
            labels = np.zeros(len(targets), dtype=bool)
            labels[:n_pos] = True  # gt is sorted descending with tie rule
            for label, kind, _k in parsed:
                if kind == "network":
                    if measure not in NETWORK_MEASURES:
                        continue
                    vec = centrality.compute(fitted[label], measure)
                    preds = {(v,): s for v, s in vec.scores.items()}
                elif kind == "mogen":
                    preds = _mogen_predictions(fitted[label], measure)
                else:
                    preds = centrality.sequence_scores(fitted[label], measure, k_truth)
                proj = project_up(preds, targets, fallback)
                if fallback == "exclude":
                    keep = [i for i, t in enumerate(targets) if t in proj]
                    lab = labels[keep]
                    vals = [proj[targets[i]] for i in keep]
                else:
                    lab = labels
                    vals = [proj[t] for t in targets]
                collected.setdefault((label, measure), []).append(auc_score(lab, vals))
    return [
        AUCResult(label, measure, tuple(aucs))
        for (label, measure), aucs in collected.items()
    ]
