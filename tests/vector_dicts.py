"""Centrality results read back as label-keyed dicts, so tests compare them with
hand-derived values and dict oracles: a vector's first-order values by node, and
an edge report's shares and values by state tuple."""
from __future__ import annotations


def as_dict(vec) -> dict:
    """``{node: value}`` of a :class:`~pathcent.centrality.CentralityVector`, in node order."""
    return dict(zip(vec.nodes, vec.values.tolist()))


def edge_dicts(model, report) -> tuple[dict, dict]:
    """``({state: share}, {state: {measure: value}})`` of an edge report on ``model``,
    each state the label tuple of its row (``model.states``), in row order."""
    states = [model.states[r] for r in report.rows.tolist()]
    columns = (v.tolist() for v in report.values.values())
    values = {s: dict(zip(report.values, row)) for s, *row in zip(states, *columns)}
    return dict(zip(states, report.shares.tolist())), values
