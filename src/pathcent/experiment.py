"""Prediction experiment: can a model fitted on training paths identify the
most influential nodes and node sequences in held-out test paths?

Pipeline per replicate: instance-level train/test split, ground-truth ranking
from the test paths, model predictions projected upward onto the ground-truth
states, and top-decile AUC scoring with midrank tie handling. Results are
averaged over replicates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import centrality
from .errors import DataError
from .models import MOGenModel, fit_mogen, fit_network
from .pathdata import PathDataset, parse_model_label

#: Draws :func:`split` makes before it gives up on a non-degenerate split.
MAX_SPLIT_ATTEMPTS = 100


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
        if self.seed < 0:  # numpy seeds only with non-negative integers
            raise DataError("seed must be >= 0")


@dataclass(frozen=True)
class AUCResult:
    model: str
    measure: str
    aucs: tuple[float, ...]

    @property
    def mean(self) -> float:
        return float(np.mean(self.aucs))


def split(ds: PathDataset, fraction: float, seed):
    """Assign each path instance independently to train with ``fraction``.

    Multiplicities are unrolled so a repeated path can straddle the split; each
    side is a row subset of ``ds`` that keeps a path's object when all of its
    instances fall on that side. Degenerate draws (either side empty) retry
    with the next sub-seed, ``MAX_SPLIT_ATTEMPTS`` times.
    """
    counts = np.array([p.multiplicity for p in ds.paths])
    owner = np.repeat(np.arange(len(counts)), counts)  # the path of each instance
    if len(owner) < 2:
        raise DataError("need at least 2 path instances to split")
    base = seed if isinstance(seed, (list, tuple)) else [seed]
    for attempt in range(MAX_SPLIT_ATTEMPTS):
        rng = np.random.default_rng(list(base) + [attempt])
        mask = rng.random(len(owner)) < fraction
        if mask.any() and not mask.all():
            train = np.bincount(owner[mask], minlength=len(counts))
            return tuple(ds._subset(np.flatnonzero(side), side[side > 0])
                         for side in (train, counts - train))
    raise DataError("could not produce a non-degenerate split")


def ground_truth(test: PathDataset, measures, k_truth: int) -> dict:
    """Rank all sequences up to length ``k_truth`` in the test set by each of
    ``measures``, descending: ``{measure: [(sequence, value), ...]}``.

    Ties break lexicographically on the state tuple.
    """
    scores = centrality.sequence_scores(test, measures, max_len=k_truth)
    return {m: sorted(v.items(), key=lambda kv: (-kv[1], kv[0])) for m, v in scores.items()}


def project_up(keys, targets) -> list:
    """For each target state, its longest suffix in ``keys``, or None."""
    out = []
    for h in targets:
        for i in range(len(h)):
            if h[i:] in keys:
                out.append(h[i:])
                break
        else:
            out.append(None)
    return out


def _scored(values: dict, suffixes) -> list:
    """The value of each suffix; a target with no scored suffix (None) gets
    the minimum score."""
    floor = min(values.values(), default=0.0)
    return [floor if s is None else values[s] for s in suffixes]


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


def _predictions(model, measure: str) -> dict:
    """First-order scores for single nodes; for a multi-order model also the
    analytic state values of higher-order states."""
    vec = centrality.compute(model, measure)
    scores = {(v,): s for v, s in vec.scores.items()}
    if isinstance(model, MOGenModel):
        values = vec.state_scores
        if values is None:  # closeness reports no per-state values from compute
            values = centrality.mogen_state_scores(model, measure)
        scores.update((s, v) for s, v, n in zip(model.states, values.tolist(), model.node_index[2]) if n >= 2)
    return scores


def evaluate(
    ds: PathDataset,
    spec: SplitSpec,
    models=("N", "M1", "M2", "P"),
    measures=centrality.MEASURES,
    k_truth: int = 5,
) -> list[AUCResult]:
    """Run the full prediction experiment; returns one result per
    (model, measure) pair, measure-major, skipping pairs the model cannot
    predict. A repeated model label or measure counts once."""
    measures = list(dict.fromkeys(measures))
    parsed = []  # (label, kind, order, measures the model can predict)
    for label in dict.fromkeys(models):
        kind, k = parse_model_label(label)
        wanted = [m for m in measures if kind != "network" or m not in centrality.PATH_MEASURES]
        parsed.append((label, kind, k, wanted))
    collected = {(label, m): [] for m in measures for label, *_, wanted in parsed if m in wanted}
    if not collected:
        raise DataError("no requested measure is supported by the requested models")
    for rep in range(spec.replicates):
        train, test = split(ds, spec.train_fraction, [spec.seed, rep])
        truths = ground_truth(test, measures, k_truth)
        # every ranking holds the same sequences; label each on one order
        targets = [s for s, _ in next(iter(truths.values()))]
        if len(targets) < 10:
            raise DataError("target set too small for decile labeling")
        n_pos = math.ceil(0.1 * len(targets))
        index = {s: i for i, s in enumerate(targets)}
        labels = {}
        for m, ranking in truths.items():
            labels[m] = np.zeros(len(targets), dtype=bool)
            labels[m][[index[s] for s, _ in ranking[:n_pos]]] = True
        for label, kind, k, wanted in parsed:
            if not wanted:
                continue
            if kind == "path":
                preds = centrality.sequence_scores(train, wanted, k_truth)
            else:
                model = fit_network(train) if kind == "network" else fit_mogen(train, k)
                preds = {m: _predictions(model, m) for m in wanted}
            # a model scores the same keys under every measure
            suffixes = project_up(preds[wanted[0]], targets)
            for m in wanted:
                collected[label, m].append(auc_score(labels[m], _scored(preds[m], suffixes)))
    return [AUCResult(label, m, tuple(aucs)) for (label, m), aucs in collected.items()]
