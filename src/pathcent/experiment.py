"""Prediction experiment: can a model fitted on training paths identify the
most influential nodes and node sequences in held-out test paths?

Pipeline per replicate: instance-level train/test split, ground-truth ranking
from the test paths, model predictions projected upward onto the ground-truth
states, and top-decile AUC scoring with midrank tie handling. Results are
averaged over replicates. Targets and a model's keys are codes of the split corpus's
sequences, and labels, suffixes and scores are arrays over the targets in
lexicographic order; the truth and the path model read them from
:func:`~pathcent.centrality.sequence_scores`. The truth breaks ties lexicographically;
the AUC ties predicted scores within :data:`~pathcent.models.TIE_TOL` of the largest.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import centrality
from .errors import DataError
from .models import TIE_TOL, MOGenModel, fit_mogen, fit_network
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
    side is a row subset of ``ds`` with the multiplicities drawn for it. Degenerate
    draws (either side empty) retry with the next sub-seed, ``MAX_SPLIT_ATTEMPTS`` times.
    """
    if max(ds._counts, default=0) >= 2**63:  # numpy would hold it as uint64, float64 or object
        raise DataError("a multiplicity must be below 2**63 to be split")
    counts = np.array(ds._counts, np.int64)
    try:
        owner = np.repeat(np.arange(len(counts)), counts)  # the path of each instance
    except MemoryError:
        raise DataError(f"{sum(ds._counts)} path instances are too many to split one by one") from None
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


def ground_truth(test: PathDataset, measures, k_truth: int) -> tuple[np.ndarray, dict]:
    """All sequences up to length ``k_truth`` in the test set, in lexicographic order,
    as rows of their suffix codes (:func:`project_up`), and per measure their indices
    ranked by value, descending, ties broken lexicographically."""
    _, rows, at, value = centrality.sequence_scores(test, measures, k_truth)
    order = np.lexsort(rows.T[::-1])  # a -1 pad sorts a prefix first
    at, size = at[order], (rows[order] >= 0).sum(axis=1)
    targets = np.stack([np.where(size >= m, test._codes(m)[0][at], -1)
                        for m in range(1, rows.shape[1] + 1)], axis=1)
    return targets, {m: np.argsort(-value[m]()[order], kind="stable") for m in measures}


def project_up(keys: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """For each target, the index of its longest suffix in ``keys``, or -1.

    ``keys`` are distinct sequence codes of one corpus ranking, and a target's
    row holds the codes of its suffixes of length 1, 2, ..., padded with -1. The
    walk goes down the lengths, from the longest, over a membership array of
    the codes."""
    index = np.full(int(max(keys.max(initial=-1), targets.max(initial=-1))) + 2, -1)
    index[keys] = np.arange(len(keys))  # a pad reads the last slot: -1
    out = np.full(len(targets), -1)
    for suffix in targets.T[::-1]:
        out = np.where(out < 0, index[suffix], out)
    return out


def _scored(values: np.ndarray, suffixes: np.ndarray) -> np.ndarray:
    """The value of each suffix index; a target with no scored suffix (-1) gets
    the minimum score."""
    return np.append(values, values.min() if len(values) else 0.0)[suffixes]


def auc_score(labels, scores) -> float:
    """Rank-based (Mann-Whitney) AUC with midrank ties: sorted neighbours at
    most ``TIE_TOL`` times the largest |score| apart share one rank group."""
    labels = np.asarray(labels, dtype=bool)
    scores = np.asarray(scores, dtype=float)
    n_pos = int(labels.sum())
    n_neg = int(len(labels) - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUC needs both positive and negative labels")
    order = np.argsort(scores, kind="stable")
    group = np.cumsum(np.r_[True, np.diff(scores[order]) > TIE_TOL * np.abs(scores).max()]) - 1
    ranks = np.empty(len(scores))  # a group's midrank: the mean of its 1-based places
    ranks[order] = (np.bincount(group, np.arange(1.0, len(scores) + 1)) / np.bincount(group))[group]
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def _predictions(model, measures, nodes: np.ndarray) -> tuple[np.ndarray, dict]:
    """The codes of a fit's keys: its ``nodes``, the sorted node ids of the side it was
    fitted on, and a MOGen fit's ``codes`` of its states of length 2 or more; and per
    measure an array of their scores."""
    mogen = isinstance(model, MOGenModel)
    higher = np.flatnonzero(model.node_index[2] >= 2) if mogen else []
    keys = np.concatenate([nodes, model.codes[higher]]) if mogen else nodes
    scores = {}
    for m in measures:
        vec = centrality.compute(model, m)
        state = vec.state_scores
        if mogen and state is None:  # closeness: compute searches by node only
            state = centrality.mogen_state_scores(model, m)
        scores[m] = np.concatenate([vec.values, state[higher]]) if mogen else vec.values
    return keys, scores


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
        nodes = np.unique(train.encoded[1])  # every model's nodes, by label id (level-1 code)
        targets, rankings = ground_truth(test, measures, k_truth)
        if len(targets) < 10:
            raise DataError("target set too small for decile labeling")
        n_pos = math.ceil(0.1 * len(targets))
        labels = {m: np.argsort(r) < n_pos for m, r in rankings.items()}  # by place in the ranking
        for label, kind, k, wanted in parsed:
            if not wanted:
                continue
            if kind == "path":
                keys, _, _, value = centrality.sequence_scores(train, wanted, k_truth)
                preds = {m: value[m]() for m in wanted}
            else:
                model = fit_network(train) if kind == "network" else fit_mogen(train, k)
                keys, preds = _predictions(model, wanted, nodes)
            # a model scores the same keys under every measure
            suffixes = project_up(keys, targets)
            for m in wanted:
                collected[label, m].append(auc_score(labels[m], _scored(preds[m], suffixes)))
    return [AUCResult(label, m, tuple(aucs)) for (label, m), aucs in collected.items()]
