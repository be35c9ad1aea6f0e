"""Path datasets: parsing, temporal path extraction, rolling windows, statistics.

A path is an ordered node sequence with a multiplicity and an optional start
timestamp. Datasets are immutable and merge identical (sequence, start_time)
entries by summing multiplicities. A dataset keeps its distinct paths as
parallel columns (node tuples, multiplicities, start times), sorted once;
``PathDataset.paths`` is a view of :class:`Path` objects built on first use.
The readers merge their lines straight into those columns and check each
distinct label once, naming the first line that holds a bad one. A corpus
ranks its node sequences once; its windows and split sides hold it and read
its codes. Only the encoding, the ranking and the windows import numpy.
"""
from __future__ import annotations

import logging
import re
from bisect import bisect_right
from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence, TextIO

from .errors import DataError

log = logging.getLogger(__name__)

#: Reserved marker for the synthetic start state of every encoded path.
START = "*"
#: Reserved marker for the absorbing end state of every encoded path.
END = "†"

RESERVED = frozenset({START, END})
#: Separators of state keys (``|``), labels (``,``) and fields (``;``) in
#: outputs, and a leading ``#``, which marks a header line in a path file.
BAD_LABEL = re.compile(r"[|,;]|^#", re.MULTILINE)

#: :func:`_ranked` sorts its keys, rather than mask the key space, when they are fewer
#: than the space / this (timed on 127k and 2M keys, the two cross near 8).
_SORT_BELOW = 8

#: The centrality measures (:mod:`pathcent.centrality`), here so that the CLI needs no numpy.
MEASURES = ("betweenness", "closeness", "path_end", "path_continuation", "path_reach", "visitation")
#: Measures that require path start/end information.
PATH_MEASURES = frozenset(MEASURES) - {"betweenness", "closeness"}


def parse_model_label(label: str):
    """'N' -> network, 'P' -> path, 'M<k>' -> multi-order with max order k
    (:mod:`pathcent.experiment`), here so that the CLI checks labels without numpy."""
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


def _check_labels(labels: Iterable[str], where: str = "") -> None:
    """Raise :class:`DataError`, its message prefixed by ``where``, naming the
    least of ``labels`` that is empty, reserved, starts with '#' or contains
    one of '|,;'."""
    labels = tuple(labels)
    # joined by newlines, so that ^# tests the first character of every label
    if "" in labels or not RESERVED.isdisjoint(labels) or BAD_LABEL.search("\n".join(labels)):
        bad = min(v for v in labels if not v or v in RESERVED or BAD_LABEL.search(v))
        raise DataError(f"{where}node label {bad!r} is empty, reserved, starts with '#', "
                        "or contains one of '|,;'")


def _check_columns(nodes: Sequence[tuple], counts: Sequence, times: Sequence,
                   labels: Iterable[str]) -> None:
    """Raise :class:`DataError` unless every path has a node, every count is an
    ``int`` (not a ``bool``) >= 1, every start time an ``int`` or None, and
    every one of ``labels`` is a valid node label."""
    if not all(nodes):
        raise DataError("a path needs at least one node")
    if set(map(type, counts)) != {int}:
        raise DataError("path multiplicity must be an int")
    if min(counts) < 1:
        raise DataError("path multiplicity must be >= 1")
    if not set(map(type, times)) <= {int, type(None)}:
        raise DataError("path start time must be an int or None")
    _check_labels(labels)


@dataclass(frozen=True)
class Path:
    """An ordered node sequence observed ``multiplicity`` times."""

    nodes: tuple[str, ...]
    multiplicity: int = 1
    start_time: int | None = None

    def __post_init__(self):
        _check_columns((self.nodes,), (self.multiplicity,), (self.start_time,), self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)


def _ranked(keys: np.ndarray, space: int) -> tuple[np.ndarray, np.ndarray]:
    """Each of the non-negative ``keys``' index into its distinct values, ascending, and
    those values: by a presence mask over the ``space`` keys and its cumulative sum, or
    by a sort where the keys are far fewer (a small window of a large corpus)."""
    import numpy as np

    if len(keys) * _SORT_BELOW < space:
        distinct, index = np.unique(keys, return_inverse=True)
        return index, distinct
    present = np.zeros(space, bool)
    present[keys] = True
    rank = np.cumsum(present, dtype=np.int32 if len(keys) < 2**31 else np.int64)  # at most len(keys)
    return np.subtract(rank[keys], 1, dtype=np.int64), np.flatnonzero(present)


class PathDataset:
    """An immutable multiset of paths over a shared vocabulary, sorted by key.

    Built from a mapping ``{(nodes, start_time): multiplicity}``, or from
    :class:`Path` objects, which are summed into one. The mapping is checked as
    a ``Path`` is, each distinct label once, and its distinct paths are kept as
    parallel columns; ``paths`` views them as ``Path`` objects.
    """

    _corpus = _rows = _at = None  # a subset's corpus, and its rows and node positions there

    def __init__(self, paths: Iterable[Path] | dict[tuple[tuple[str, ...], int | None], int]):
        merged = paths
        if not isinstance(paths, dict):
            merged = Counter()
            for p in paths:
                merged[p.nodes, p.start_time] += p.multiplicity
        if not merged:
            raise DataError("empty dataset")
        try:  # no key tuple per path: 1.5 MB less peak RSS on a 20k-path ingest
            keys = sorted(merged)
        except TypeError:  # equal nodes with and without a start time: untimed first
            keys = sorted(merged, key=lambda k: (k[0], k[1] is not None, k[1] or 0))
        self._nodes = tuple(map(itemgetter(0), keys))
        self._times = tuple(map(itemgetter(1), keys))
        self._counts = tuple(map(merged.__getitem__, keys))
        self._vocabulary = frozenset(chain.from_iterable(self._nodes))
        _check_columns(self._nodes, self._counts, self._times, self._vocabulary)

    # a subset gathers these columns from its corpus's on first use; a corpus sets its own
    _nodes, _times, _counts = (
        cached_property(lambda ds, c=c: tuple(map(getattr(ds._corpus, c).__getitem__, ds._rows.tolist())))
        for c in ("_nodes", "_times", "_counts"))

    @cached_property
    def paths(self) -> tuple[Path, ...]:
        """The distinct paths as :class:`Path` objects in key order, built from the columns."""
        return tuple(map(Path, self._nodes, self._counts, self._times))

    @property
    def vocabulary(self) -> frozenset[str]:
        return self._vocabulary

    @cached_property
    def total(self) -> int:
        """Number of path instances, multiplicities included."""
        return sum(self._counts)

    @cached_property
    def encoded(self) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
        """The sorted labels (a derived dataset's are its parent's), node ids into them
        over the paths, each path's length and its multiplicity as a float; on first use."""
        import numpy as np

        labels = sorted(self._vocabulary)
        ids = {v: i for i, v in enumerate(labels)}
        nodes = np.fromiter(map(ids.__getitem__, chain.from_iterable(self._nodes)), np.int32)
        lengths = np.fromiter(map(len, self._nodes), np.int64, len(self._nodes))
        return labels, nodes, lengths, np.array(self._counts, float)

    def _codes(self, k: int) -> tuple[np.ndarray, int]:
        """Per node of ``encoded``, the code of its order-``k`` state (its last ``k`` nodes,
        or fewer at a path's start), and the number of codes up to length ``k``. Codes
        number the corpus's sequences in ``(len, labels)`` order, level 1 by label id.
        The corpus ranks level m, when first asked, by (level m-1 code of the node
        before * number of labels + node id); int32 while the codes fit."""
        import numpy as np

        if k < 1:
            raise DataError("order must be >= 1")
        root = self if self._corpus is None else self._corpus
        labels, ids, lengths, _ = root.encoded
        levels, ends = root.__dict__.setdefault("_ranking", ([ids], [len(labels)]))
        if len(levels) < min(k, root.max_length):  # each node's position in its path, once
            dtype = np.int32 if len(ids) < 2**31 else np.int64
            pos = np.arange(len(ids), dtype=dtype) - np.repeat((np.cumsum(lengths) - lengths).astype(dtype), lengths)
        for m in range(len(levels) + 1, min(k, root.max_length) + 1):
            at = pos >= m - 1  # the nodes with at least m - 1 nodes before them
            rank, codes = _ranked(levels[-1][:-1][at[1:]] * np.int64(len(labels)) + ids[at], ends[-1] * len(labels))
            ends.append(ends[-1] + len(codes))
            # a copy, so a node with fewer than m nodes up to it keeps its state
            levels.append(levels[-1].astype(np.int32 if ends[-1] < 2**31 else np.int64))
            levels[-1][at] = ends[-2] + rank
        m = min(k, len(levels))
        return levels[m - 1] if self._at is None else levels[m - 1][self._at], ends[m - 1]

    def _subset(self, rows: np.ndarray, counts: np.ndarray | None = None) -> PathDataset:
        """The ascending, non-empty ``rows`` with multiplicities ``counts`` (>= 1) or
        those they have here: nothing is merged, sorted or checked again, the encoding
        is gathered with its ids, and the subset holds its corpus and reads its codes."""
        import numpy as np

        labels, nodes, lengths, weights = self.encoded
        out = PathDataset.__new__(PathDataset)
        at = np.flatnonzero(np.repeat(np.bincount(rows, minlength=len(lengths)) > 0, lengths))
        at = at.astype(np.int32) if len(nodes) < 2**31 else at
        out._corpus, out._rows, out._at = ((self, rows, at) if self._corpus is None
                                           else (self._corpus, self._rows[rows], self._at[at]))
        out.encoded = (labels, nodes[at], lengths[rows],
                       weights[rows] if counts is None else counts.astype(float))
        out._vocabulary = frozenset(labels[i] for i in np.unique(out.encoded[1]).tolist())
        if counts is not None:
            out._counts = tuple(counts.tolist())
        elif self._corpus is not None:  # a split side's counts are its own, not the corpus's
            out._counts = tuple(map(self._counts.__getitem__, rows.tolist()))
        return out

    @cached_property
    def unique(self) -> int:
        """Number of distinct node sequences."""
        return len(set(self._nodes))

    @cached_property
    def max_length(self) -> int:
        return max(map(len, self._nodes)) if self._corpus is None else int(self.encoded[2].max())

    @property
    def has_timestamps(self) -> bool:
        return None not in self._times

    def __len__(self) -> int:
        return len(self._nodes) if self._corpus is None else len(self._rows)


class TemporalEdge(NamedTuple):
    """A contact from ``source`` to ``target`` at ``time``."""

    source: str
    target: str
    time: int


class ActionRecord(NamedTuple):
    """A time-stamped action by ``actor`` on the work item ``key``."""

    key: str
    actor: str
    time: int


@dataclass(frozen=True)
class DatasetStats:
    total_paths: int
    unique_paths: int
    mean_len: float
    median_len: float
    n_nodes: int
    n_links: int


@dataclass(frozen=True)
class WindowSlice:
    """One rolling window; ``dataset`` is None when the window is empty."""

    start: int
    dataset: PathDataset | None

    @property
    def empty(self) -> bool:
        return self.dataset is None


def parse_paths(source: TextIO | Iterable[str], delimiter: str = ",") -> PathDataset:
    """Parse a path file: one path per line, ``;count`` / ``;timestamp`` suffixes optional.

    Identical lines are merged with summed multiplicities. Lines starting
    with ``#`` are headers and skipped; blank lines are skipped with a
    warning; a line without nodes, an empty or otherwise bad label, and
    malformed count or timestamp fields raise :class:`DataError` with the
    line number in the source, as does an empty ``delimiter``.
    """
    if not delimiter:
        raise DataError("empty delimiter")
    merged: dict[tuple, int] = {}
    checked: set[str] = set()
    for lineno, raw in enumerate(source, start=1):
        if raw.startswith("#"):
            continue
        line = raw.strip()
        if not line:
            log.warning("skipping empty line %d", lineno)
            continue
        fields = line.split(";")
        if not fields[0]:  # the line is stripped, so a blank node field is empty
            raise DataError(f"line {lineno}: no nodes")
        mult = 1
        start_time = None
        if len(fields) >= 2 and fields[1].strip():
            try:
                mult = int(fields[1])
            except ValueError:
                raise DataError(f"line {lineno}: malformed count {fields[1]!r}") from None
            if mult < 1:
                raise DataError(f"line {lineno}: count must be >= 1")
        if len(fields) >= 3 and fields[2].strip():
            try:
                start_time = int(fields[2])
            except ValueError:
                raise DataError(f"line {lineno}: malformed timestamp {fields[2]!r}") from None
        if len(fields) > 3:
            raise DataError(f"line {lineno}: too many fields")
        nodes = tuple(map(str.strip, fields[0].split(delimiter)))
        if not checked.issuperset(nodes):  # so each distinct label is checked once
            _check_labels(set(nodes) - checked, f"line {lineno}: ")
            checked.update(nodes)
        key = (nodes, start_time)
        merged[key] = merged.get(key, 0) + mult
    return PathDataset(merged)  # which raises "empty dataset" when no line holds a path


def write_paths(ds: PathDataset, out: TextIO, delimiter: str = ",") -> None:
    """Write a dataset in the canonical path-file format."""
    join = delimiter.join
    out.writelines(f"{join(nodes)};{count}" + ("\n" if time is None else f";{time}\n")
                   for nodes, count, time in zip(ds._nodes, ds._counts, ds._times))


def paths_from_actions(records: Sequence[ActionRecord]) -> PathDataset:
    """Build one path per key: actors ordered by timestamp, stable on ties.

    The path's start_time is the first action's timestamp.
    """
    actors: dict[str, list[str]] = {}
    starts: dict[str, int] = {}
    # the sort is stable, so it orders each key's actions
    for key, actor, time in sorted(records, key=itemgetter(2)):
        if key in actors:
            actors[key].append(actor)
        else:
            actors[key], starts[key] = [actor], time
    if not actors:
        raise DataError("no action records")
    if "" in actors:
        raise DataError("action record with empty key")
    return PathDataset(Counter((tuple(seq), starts[key]) for key, seq in actors.items()))


def extract_paths(edges: Sequence[TemporalEdge], delta: int) -> PathDataset:
    """Extract time-respecting paths from a temporal edge list.

    Two edges (u,v;t1), (v,w;t2) chain iff t1 < t2 and t2 - t1 <= delta.
    Chaining is greedy and single-consumption: edges are processed in
    ascending time, stable on ties; each edge extends the oldest open chain
    ending at its source that it can continue, or opens a new chain. Every
    input edge appears on exactly one path.

    Chains join a node's queue in end-time order, so chains that ended more
    than ``delta`` ago form its front and are dropped for good, and only the
    front chain can be extended. The pass is linear after the sort.
    """
    if delta <= 0:
        raise DataError("delta must be > 0")
    if not edges:
        raise DataError("empty edge list")
    chains: list[list] = []  # [nodes, end_time, start_time]
    open_by_node: dict[str, deque[list]] = defaultdict(deque)
    for source, target, time in sorted(edges, key=itemgetter(2)):  # stable on ties
        queue = open_by_node[source]
        while queue and time - queue[0][1] > delta:
            queue.popleft()
        if queue and queue[0][1] < time:
            walk = queue.popleft()
            walk[0].append(target)
            walk[1] = time
        else:  # no open chain, or the front one (and so every one) ends at this time
            walk = [[source, target], time, time]
            chains.append(walk)
        open_by_node[target].append(walk)
    return PathDataset(Counter((tuple(nodes), start_time) for nodes, _, start_time in chains))


def rolling_windows(ds: PathDataset, length: int, shift: int) -> list[WindowSlice]:
    """Slice a timestamped dataset into rolling half-open windows.

    The first window starts at the minimum start_time rounded down to the
    shift granularity; windows advance by ``shift`` up to the maximum
    start_time. A path belongs to a window iff start <= t < start + length,
    so with ``length < shift`` a path may fall between two windows. Empty
    windows are kept, with ``dataset`` set to None. Each window is the row
    subset of ``ds`` in a ``searchsorted`` range of one stable start-time order.
    """
    if length <= 0 or shift <= 0:
        raise DataError("window length and shift must be > 0")
    if not ds.has_timestamps:
        raise DataError("rolling windows require timestamps on every path")
    import numpy as np

    times = np.array(ds._times)
    order = np.argsort(times, kind="stable")
    times = times[order]
    out = []
    for start in range(int(times[0]) // shift * shift, int(times[-1]) + 1, shift):
        lo, hi = np.searchsorted(times, [start, start + length])
        out.append(WindowSlice(start, ds._subset(np.sort(order[lo:hi])) if hi > lo else None))
    return out


def stats(ds: PathDataset) -> DatasetStats:
    """Summary statistics; totals and length statistics include multiplicity.

    Lengths are counted, never expanded per instance; the mean and median
    equal those of ``statistics`` on the expanded list.
    """
    counts: Counter[int] = Counter()
    for n, count in zip(map(len, ds._nodes), ds._counts):
        counts[n] += count
    links = set()
    for nodes in set(ds._nodes):
        links.update(zip(nodes, nodes[1:]))
    lengths = sorted(counts)
    cumulative = list(accumulate(counts[n] for n in lengths))
    total, half = cumulative[-1], cumulative[-1] // 2

    def nth(i: int) -> int:  # the i-th smallest length, from 0
        return lengths[bisect_right(cumulative, i)]

    return DatasetStats(
        total_paths=total,
        unique_paths=ds.unique,
        mean_len=sum(n * counts[n] for n in lengths) / total,
        median_len=nth(half) if total % 2 else (nth(half - 1) + nth(half)) / 2,
        n_nodes=len(ds.vocabulary),
        n_links=len(links),
    )


def read_temporal_edges(source: TextIO | Iterable[str], delimiter: str = ",") -> list[TemporalEdge]:
    """Read a ``source,target,time`` edge list (header optional)."""
    return _read_triples(source, delimiter, TemporalEdge, "empty edge list")


def read_actions(source: TextIO | Iterable[str], delimiter: str = ",") -> list[ActionRecord]:
    """Read a ``key,actor,time`` action log (header optional)."""
    return _read_triples(source, delimiter, ActionRecord, "no action records")


def _read_triples(source: TextIO | Iterable[str], delimiter: str, record: type,
                  empty_message: str) -> list:
    """``record(a, b, time)`` per line of ``record._fields`` columns. Blank lines
    and a header on line 1 are skipped; a bad line, no line at all, or an empty
    ``delimiter`` raises :class:`DataError`. Node labels (both ends of an edge,
    an action's actor) are checked once each and an action's key must not be
    empty; a bad one raises naming the first line that holds it."""
    if not delimiter:
        raise DataError("empty delimiter")
    columns = ",".join(record._fields)
    keyed = record is ActionRecord
    out = []
    checked: set[str] = set()
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(delimiter)
        if len(parts) != 3:
            raise DataError(f"line {lineno}: expected {columns}")
        a, b, stamp = map(str.strip, parts)
        try:
            time = int(stamp)
        except ValueError:
            if lineno == 1:
                continue  # header row
            raise DataError(f"line {lineno}: malformed timestamp {stamp!r}") from None
        if keyed and not a:
            raise DataError(f"line {lineno}: action record with empty key")
        labels = (b,) if keyed else (a, b)
        if not checked.issuperset(labels):
            _check_labels(set(labels) - checked, f"line {lineno}: ")
            checked.update(labels)
        out.append(record(a, b, time))
    if not out:
        raise DataError(empty_message)
    return out
