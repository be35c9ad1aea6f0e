"""Model families fitted to path data.

Three representations of the same path dataset:

* :class:`NetworkModel` -- first-order weighted adjacency, all observed
  transitions in any order.
* :class:`PathModel` -- the path multiset itself (lossless).
* :class:`MOGenModel` -- multi-order transition structure over states that
  remember up to K previous nodes, with an explicit start distribution and an
  absorbing end state. Interpreted as an absorbing Markov chain, its
  fundamental matrix gives expected state visits analytically.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.linalg import LinAlgError

from .errors import DataError, NumericError
from .pathdata import END, START, PathDataset

#: Row-stochasticity tolerance after normalisation.
STOCHASTIC_TOL = 1e-12
#: Above this state count, fundamental-matrix solves go through sparse LU.
DENSE_THRESHOLD = 500

State = tuple[str, ...]


def encode_path(nodes: Sequence[str], k: int) -> list:
    """Encode a node sequence as its multi-order state walk.

    Returns ``[START, (v1,), (v1,v2), ..., sliding K-tuples ..., END]``;
    tuples grow to length ``k`` and then slide.
    """
    if k < 1:
        raise DataError("order must be >= 1")
    walk: list = [START]
    for i in range(len(nodes)):
        lo = max(0, i - k + 1)
        walk.append(tuple(nodes[lo : i + 1]))
    walk.append(END)
    return walk


@dataclass(frozen=True)
class NetworkModel:
    """First-order topology: transition counts over ordered node pairs."""

    vocabulary: frozenset[str]
    edges: dict  # (source, target) -> observed count

    @property
    def kind(self) -> str:
        return "network"


@dataclass(frozen=True)
class PathModel:
    """Lossless model: the training multiset itself."""

    dataset: PathDataset

    @property
    def kind(self) -> str:
        return "path"


class MOGenModel:
    """Multi-order model with start distribution S, transient block Q and
    absorption column R, fitted by counting encoded transitions."""

    def __init__(
        self,
        order: int,
        states: Sequence[State],
        start_counts: np.ndarray,
        trans_counts: sp.csr_matrix,
        end_counts: np.ndarray,
        n_paths: float,
    ):
        self.order = order
        self.states = tuple(states)
        self.index = {s: i for i, s in enumerate(self.states)}
        self.start_counts = start_counts
        self.trans_counts = trans_counts
        self.end_counts = end_counts
        self.n_paths = n_paths

        self.start_p = start_counts / start_counts.sum()
        row_tot = np.asarray(trans_counts.sum(axis=1)).ravel() + end_counts
        if np.any(row_tot <= 0):
            raise NumericError("state with no outgoing transitions")
        inv = sp.diags(1.0 / row_tot)
        self.trans_p = (inv @ trans_counts).tocsr()
        self.end_p = end_counts / row_tot
        self._validate()
        self._sf: np.ndarray | None = None
        self._reach: np.ndarray | None = None

    def _validate(self):
        rows = np.asarray(self.trans_p.sum(axis=1)).ravel() + self.end_p
        if np.max(np.abs(rows - 1.0)) > STOCHASTIC_TOL:
            raise NumericError("transition rows are not stochastic")
        if abs(self.start_p.sum() - 1.0) > STOCHASTIC_TOL:
            raise NumericError("start distribution does not sum to 1")

    @property
    def kind(self) -> str:
        return "mogen"

    @property
    def n_states(self) -> int:
        return len(self.states)

    def expected_visits(self) -> np.ndarray:
        """S . F -- expected number of visits to each state on a random path."""
        if self._sf is None:
            self._sf = _solve(self, self.start_p, transpose=True)
        return self._sf

    def reach_totals(self) -> np.ndarray:
        """Row sums of F: expected visits to any state before absorption."""
        if self._reach is None:
            self._reach = _solve(self, np.ones(self.n_states), transpose=False)
        return self._reach

    def log_likelihood(self) -> float:
        """Log-likelihood of the training paths under the fitted probabilities."""
        ll = float(np.sum(self.start_counts * np.log(self.start_p, where=self.start_counts > 0, out=np.zeros_like(self.start_p))))
        coo = self.trans_counts.tocoo()
        probs = np.asarray(self.trans_p[coo.row, coo.col]).ravel()
        ll += float(np.sum(coo.data * np.log(probs)))
        mask = self.end_counts > 0
        ll += float(np.sum(self.end_counts[mask] * np.log(self.end_p[mask])))
        return ll

    def dof(self) -> int:
        """Free transition probabilities: nonzero entries minus row constraints."""
        nnz = (
            int(np.count_nonzero(self.start_counts))
            + self.trans_counts.nnz
            + int(np.count_nonzero(self.end_counts))
        )
        return nnz - (self.n_states + 1)

    def to_json(self, out: TextIO | None = None) -> str | None:
        """Serialize to JSON; probabilities round-trip exactly."""
        coo = self.trans_counts.tocoo()
        doc = {
            "order": self.order,
            "states": [list(s) for s in self.states],
            "start_counts": self.start_counts.tolist(),
            "end_counts": self.end_counts.tolist(),
            "trans_counts": [
                [int(r), int(c), float(v)]
                for r, c, v in zip(coo.row, coo.col, coo.data)
            ],
            "n_paths": self.n_paths,
        }
        text = json.dumps(doc, sort_keys=True)
        if out is None:
            return text
        out.write(text)
        return None

    @classmethod
    def from_json(cls, source: str | TextIO) -> "MOGenModel":
        """Load a model written by :meth:`to_json`; a missing key or a
        mis-typed field raises :class:`DataError`."""
        try:
            doc = json.loads(source if isinstance(source, str) else source.read())
            states, triplets = doc["states"], doc["trans_counts"]
            if not (isinstance(states, list) and all(
                isinstance(s, list) and all(isinstance(v, str) for v in s) for s in states
            )):
                raise TypeError("states must be lists of node labels")
            if not isinstance(doc["order"], int) or not isinstance(doc["n_paths"], (int, float)):
                raise TypeError("order and n_paths must be numbers")
            n = len(states)
            t = np.asarray(triplets, dtype=float).reshape(len(triplets), 3)
            return cls(
                doc["order"],
                [tuple(s) for s in states],
                np.asarray(doc["start_counts"], dtype=float).reshape(n),
                sp.csr_matrix((t[:, 2], (t[:, 0].astype(int), t[:, 1].astype(int))), shape=(n, n)),
                np.asarray(doc["end_counts"], dtype=float).reshape(n),
                doc["n_paths"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed model JSON: {type(exc).__name__}: {exc}") from exc


def fit_network(ds: PathDataset) -> NetworkModel:
    """Count all consecutive node pairs over all paths."""
    edges: Counter = Counter()
    for p in ds.paths:
        for a, b in zip(p.nodes, p.nodes[1:]):
            edges[(a, b)] += p.multiplicity
    return NetworkModel(ds.vocabulary, dict(edges))


def fit_path(ds: PathDataset) -> PathModel:
    return PathModel(ds)


def fit_mogen(ds: PathDataset, k: int) -> MOGenModel:
    """Fit a multi-order model of maximum order ``k`` by transition counting.

    Only observed states and transitions are materialized.
    """
    if k < 1:
        raise DataError("order must be >= 1")
    start_c: Counter = Counter()
    trans_c: Counter = Counter()
    end_c: Counter = Counter()
    for p in ds.paths:
        walk = encode_path(p.nodes, k)
        w = p.multiplicity
        start_c[walk[1]] += w
        end_c[walk[-2]] += w
        for a, b in zip(walk[1:-2], walk[2:-1]):
            trans_c[(a, b)] += w
    states = sorted(set(start_c) | set(end_c) | {s for pair in trans_c for s in pair},
                    key=lambda s: (len(s), s))
    index = {s: i for i, s in enumerate(states)}
    n = len(states)
    start = np.zeros(n)
    for s, c in start_c.items():
        start[index[s]] = c
    end = np.zeros(n)
    for s, c in end_c.items():
        end[index[s]] = c
    rows, cols, vals = [], [], []
    for (a, b), c in trans_c.items():
        rows.append(index[a])
        cols.append(index[b])
        vals.append(float(c))
    trans = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    return MOGenModel(k, states, start, trans, end, float(ds.total))


def _system(model: MOGenModel) -> sp.csc_matrix:
    n = model.n_states
    return (sp.identity(n, format="csr") - model.trans_p).tocsc()


def _solve(model: MOGenModel, rhs: np.ndarray, transpose: bool) -> np.ndarray:
    a = _system(model)
    if transpose:
        a = a.T.tocsc()
    try:
        if model.n_states <= DENSE_THRESHOLD:
            x = np.linalg.solve(a.toarray(), rhs)
        else:
            x = spla.splu(a).solve(rhs)
    except (LinAlgError, RuntimeError) as exc:
        raise NumericError(f"non-absorbing chain: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise NumericError("non-absorbing chain: singular system")
    return x


def fundamental_matrix(model: MOGenModel, dense_threshold: int = DENSE_THRESHOLD) -> np.ndarray:
    """Expected visits between transient states: the inverse of (I - Q).

    Computed by linear solves; dense factorization is only used below
    ``dense_threshold`` states.
    """
    n = model.n_states
    a = _system(model)
    eye = np.eye(n)
    try:
        if n <= dense_threshold:
            f = np.linalg.solve(a.toarray(), eye)
        else:
            lu = spla.splu(a)
            f = np.column_stack([lu.solve(eye[:, j]) for j in range(n)])
    except (LinAlgError, RuntimeError) as exc:
        raise NumericError(f"non-absorbing chain: {exc}") from exc
    if not np.all(np.isfinite(f)):
        raise NumericError("non-absorbing chain: singular system")
    return f


def select_order(ds: PathDataset, k_max: int) -> int:
    """Pick the maximum order minimizing AIC over nested multi-order fits.

    AIC = 2 * dof - 2 * logL; dof counts observed nonzero transition
    probabilities minus one constraint per row. Ties go to the smaller order.
    """
    if k_max < 1:
        raise DataError("k_max must be >= 1")
    best_k, best_aic = 1, math.inf
    for k in range(1, k_max + 1):
        m = fit_mogen(ds, k)
        aic = 2.0 * m.dof() - 2.0 * m.log_likelihood()
        if aic < best_aic - 1e-9:
            best_k, best_aic = k, aic
    return best_k
