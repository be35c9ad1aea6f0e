"""The per-call ranking of node sequences that ``PathDataset._codes`` replaced
with one ranking per corpus, kept as test oracles, the label tuple of each
code of a corpus ranking, read back from the corpus's own node sequences, and
``sequence_scores`` viewed as label-tuple dicts."""
from __future__ import annotations

import numpy as np

from pathcent import DataError
from pathcent.centrality import MEASURES, _sequence_closeness, sequence_scores


def sequence_levels(ds, k):
    """Each path's first node, each node's path and position, and per length
    m = 1..k the nodes of ``ds.encoded`` where a length-m sequence ends with its
    key, in (length, labels) order, ranked on ``ds`` alone: level m ranks (level
    m-1 rank of the node before * number of labels + node id) by one ``np.unique``."""
    if k < 1:
        raise DataError("order must be >= 1")
    labels, ids, lengths, _ = ds.encoded
    first = np.cumsum(lengths) - lengths
    path = np.repeat(np.arange(len(lengths)), lengths)
    pos = np.arange(len(ids)) - first[path]
    at, rank, offset = np.arange(len(ids)), ids.astype(np.int64), len(labels)
    levels = [(at, ids)]
    for m in range(2, min(k, int(lengths.max())) + 1):
        at = at[pos[at] >= m - 1]
        codes, rank_at = np.unique(rank[at - 1] * len(labels) + ids[at], return_inverse=True)
        rank[at] = rank_at
        levels.append((at, offset + rank_at))
        offset += len(codes)
    return first, path, pos, levels


def keyed_rows(ids, key, at, size):
    """Each entry's index into the distinct ``key``s, and per distinct key the
    ids of the ``size`` nodes of ``ids`` ending at ``at``, padded with -1."""
    _, seen, index = np.unique(key, return_index=True, return_inverse=True)
    back = size[seen, None] - 1 - np.arange(int(size.max()))
    return index, np.where(back >= 0, ids[at[seen, None] - back.clip(0)], -1).astype(np.int32)


def sequence_values(ds, max_len, measures=MEASURES):
    """The sequences up to ``max_len`` as label tuples, in (len, labels) order,
    their rows of label ids, and per measure their values: the occurrence pass
    that keyed sequences with ``np.unique`` over a per-call ranking."""
    labels, ids, lengths, weights = ds.encoded
    _, path, pos, levels = sequence_levels(ds, max_len)
    at = np.concatenate([a for a, _ in levels])
    size = np.repeat(np.arange(1, len(levels) + 1), [len(a) for a, _ in levels])
    sid, rows = keyed_rows(ids, np.concatenate([key for _, key in levels]), at, size)
    n, j, last, w = len(rows), pos[at], lengths[path[at]] - 1, weights[path[at]]
    occ = np.bincount(sid, w, n)
    end_occ = np.bincount(sid, w * (j == last), n)
    value = {
        "betweenness": lambda: np.bincount(sid, w * ((j >= size) & (j < last)), n),
        "closeness": lambda: _sequence_closeness(sid, at, at + last - j, n),
        "path_end": lambda: end_occ / ds.total,
        "path_continuation": lambda: 1.0 - end_occ / occ,
        "path_reach": lambda: np.bincount(sid, w * (last - j), n) / occ,
        "visitation": lambda: occ / occ.sum(),
    }
    named = [tuple(labels[i] for i in r if i >= 0) for r in rows.tolist()]
    return named, rows, {m: value[m]() for m in measures}


def code_names(ds, max_len) -> dict:
    """``{code: label tuple}`` for every code of length up to ``max_len`` in the
    ranking of the corpus of ``ds``, read at each node of each of the corpus's
    paths; a code that names two sequences fails."""
    root = ds if ds._corpus is None else ds._corpus
    ends = np.cumsum(root.encoded[2]).tolist()
    out = {}
    for m in range(1, max_len + 1):
        codes = root._codes(m)[0].tolist()
        for nodes, end in zip(root._nodes, ends):
            for j in range(m - 1, len(nodes)):
                seq = nodes[j - m + 1 : j + 1]
                assert out.setdefault(codes[end - len(nodes) + j], seq) == seq
    return out


def scored_sequences(ds, measures, max_len=1) -> dict:
    """``sequence_scores`` as ``{measure: {label tuple: value}}``, each dict in the
    order of the sequences' codes."""
    _, rows, _, value = sequence_scores(ds, measures, max_len)
    labels = ds.encoded[0]
    seqs = [tuple(labels[i] for i in row if i >= 0) for row in rows.tolist()]
    return {m: dict(zip(seqs, value[m]().tolist())) for m in measures}
