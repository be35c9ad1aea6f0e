"""The absorbing-chain solve as it ran on scipy matrices: an oracle for
``models._solve`` and for the S.F that ``MOGenModel.expected_visits`` reads off
counts that conserve flow.

``solve`` is the fixed point x <- b + A x over scipy CSR products, with A = Q^T
(a transposed CSR copy) for "S.F" and A = Q for "F.1", stepping x -= residual and
handing over to sparse LU at ``MAX_ITER`` iterations; the end search is a plain
reachability sweep over the nonzero pattern of Q.
"""
import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from pathcent import NumericError
from pathcent import models

#: Fixed-point iterations before the oracle hands over to sparse LU.
MAX_ITER = 1000


def reaches_end(model) -> np.ndarray:
    """Per state, whether it is, or reaches along Q's transitions, a state with ``end_p > 0``."""
    adj = (model.trans_p != 0).astype(np.int64)
    reached = model.end_p > 0
    while True:
        grown = reached | (adj @ reached.astype(np.int64) > 0)
        if np.array_equal(grown, reached):
            return reached
        reached = grown


def solve(model, system: str, b: np.ndarray) -> np.ndarray:
    """x = b + A x, with A = Q^T for ``system`` "S.F" and A = Q for "F.1"."""
    if not reaches_end(model).all():
        raise NumericError("non-absorbing chain: a state never reaches the end")
    n = model.n_states
    a = model.trans_p.T.tocsr() if system == "S.F" else model.trans_p
    x = np.zeros_like(b)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(MAX_ITER):
            r = x - a @ x - b
            residual = np.abs(r).max()
            if residual <= models._TOL * np.abs(x).max():
                break
            x -= r
        else:
            x = spla.splu((sp.identity(n, format="csc") - a).tocsc()).solve(b)
            residual = np.abs(x - a @ x - b).max()
    if not residual <= models._TOL * np.abs(x).max():
        raise NumericError(f"non-absorbing chain: {system} residual {residual:.3g}")
    return x
