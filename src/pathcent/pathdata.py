"""Path datasets: parsing, temporal path extraction, rolling windows, statistics.

A path is an ordered node sequence with a multiplicity and an optional start
timestamp. Datasets are immutable and merge identical (sequence, start_time)
entries by summing multiplicities; a path is validated once, when it is built.
Windows and split sides are row subsets that keep a dataset's paths and encoding.
Only the encoding and the windows import numpy, so ingest runs without it.
"""
from __future__ import annotations

import logging
import re
from bisect import bisect_right
from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Iterator, Sequence, TextIO

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


@dataclass(frozen=True)
class Path:
    """An ordered node sequence observed ``multiplicity`` times."""

    nodes: tuple[str, ...]
    multiplicity: int = 1
    start_time: int | None = None

    def __post_init__(self):
        if len(self.nodes) < 1:
            raise DataError("a path needs at least one node")
        if self.multiplicity < 1:
            raise DataError("path multiplicity must be >= 1")
        # joined by newlines, so that ^# tests the first character of every label
        if not all(self.nodes) or RESERVED.intersection(self.nodes) or BAD_LABEL.search("\n".join(self.nodes)):
            bad = next(v for v in self.nodes if not v or v in RESERVED or BAD_LABEL.search(v))
            raise DataError(
                f"node label {bad!r} is empty, reserved, starts with '#', or contains one of '|,;'"
            )

    def __len__(self) -> int:
        return len(self.nodes)


class PathDataset:
    """An immutable multiset of paths over a shared vocabulary, sorted by key.

    An input :class:`Path` whose ``(nodes, start_time)`` key occurs once is kept
    as it is; a key that merges gets one new ``Path`` with the summed multiplicity.
    """

    def __init__(self, paths: Iterable[Path]):
        merged: dict[tuple[tuple[str, ...], int | None], list] = {}
        for p in paths:
            merged.setdefault((p.nodes, p.start_time), [p, 0])[1] += p.multiplicity
        if not merged:
            raise DataError("empty dataset")
        self._paths = tuple(sorted(
            (p if p.multiplicity == total else Path(p.nodes, total, p.start_time)
             for p, total in merged.values()),
            key=lambda p: (p.nodes, p.start_time is not None, p.start_time or 0),
        ))
        self._vocabulary = frozenset(v for p in self._paths for v in p.nodes)
        self._total = sum(p.multiplicity for p in self._paths)

    @property
    def paths(self) -> tuple[Path, ...]:
        return self._paths

    @property
    def vocabulary(self) -> frozenset[str]:
        return self._vocabulary

    @property
    def total(self) -> int:
        """Number of path instances, multiplicities included."""
        return self._total

    @cached_property
    def encoded(self) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
        """The sorted labels (a derived dataset's are its parent's), node ids into them
        over ``paths``, each path's length and its multiplicity as a float; on first use."""
        import numpy as np

        labels = sorted(self._vocabulary)
        ids = {v: i for i, v in enumerate(labels)}
        nodes = np.fromiter((ids[v] for p in self._paths for v in p.nodes), np.int64)
        lengths = np.fromiter(map(len, self._paths), np.int64, len(self._paths))
        weights = np.fromiter((p.multiplicity for p in self._paths), float, len(self._paths))
        return labels, nodes, lengths, weights

    def _subset(self, rows: np.ndarray, counts: np.ndarray | None = None) -> PathDataset:
        """The ascending, non-empty ``rows`` with multiplicities ``counts`` (>= 1) or
        their own: nothing is merged, sorted or validated again, a path is rebuilt
        only if its count changes, and the encoding is gathered with its ids."""
        import numpy as np

        labels, nodes, lengths, weights = self.encoded
        paths = [self._paths[i] for i in rows.tolist()]
        if counts is not None:
            paths = [p if c == p.multiplicity else Path(p.nodes, c, p.start_time)
                     for p, c in zip(paths, counts.tolist())]
        out = PathDataset.__new__(PathDataset)
        out._paths, out._total = tuple(paths), sum(p.multiplicity for p in paths)
        kept = np.repeat(np.bincount(rows, minlength=len(lengths)) > 0, lengths)
        out.encoded = (labels, nodes[kept], lengths[rows],
                       weights[rows] if counts is None else counts.astype(float))
        out._vocabulary = frozenset(labels[i] for i in np.unique(out.encoded[1]).tolist())
        return out

    @property
    def unique(self) -> int:
        """Number of distinct node sequences."""
        return len({p.nodes for p in self._paths})

    @property
    def max_length(self) -> int:
        return max(len(p) for p in self._paths)

    @property
    def has_timestamps(self) -> bool:
        return all(p.start_time is not None for p in self._paths)

    def __len__(self) -> int:
        return len(self._paths)


@dataclass(frozen=True)
class TemporalEdge:
    source: str
    target: str
    time: int


@dataclass(frozen=True)
class ActionRecord:
    """A time-stamped action by ``actor`` on the work item ``key``."""

    key: str
    actor: str
    time: int

    def __post_init__(self):
        if not self.key:
            raise DataError("action record with empty key")


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
    warning; malformed count or timestamp fields raise :class:`DataError`
    with the line number in the source, as does an empty ``delimiter``.
    """
    if not delimiter:
        raise DataError("empty delimiter")
    paths = []
    for lineno, raw in enumerate(source, start=1):
        if raw.startswith("#"):
            continue
        line = raw.strip()
        if not line:
            log.warning("skipping empty line %d", lineno)
            continue
        fields = line.split(";")
        nodes = tuple(n.strip() for n in fields[0].split(delimiter) if n.strip())
        if not nodes:
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
        paths.append(Path(nodes, mult, start_time))
    return PathDataset(paths)  # which raises "empty dataset" when no line holds a path


def write_paths(ds: PathDataset, out: TextIO, delimiter: str = ",") -> None:
    """Write a dataset in the canonical path-file format."""
    for p in ds.paths:
        line = delimiter.join(p.nodes) + f";{p.multiplicity}"
        if p.start_time is not None:
            line += f";{p.start_time}"
        out.write(line + "\n")


def paths_from_actions(records: Sequence[ActionRecord]) -> PathDataset:
    """Build one path per key: actors ordered by timestamp, stable on ties.

    The path's start_time is the first action's timestamp.
    """
    groups: dict[str, list[ActionRecord]] = defaultdict(list)
    for rec in sorted(records, key=lambda r: r.time):  # stable, so it orders each key's actions
        groups[rec.key].append(rec)
    if not groups:
        raise DataError("no action records")
    return PathDataset(Path(tuple(r.actor for r in recs), 1, recs[0].time) for recs in groups.values())


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
    order = sorted(range(len(edges)), key=lambda i: (edges[i].time, i))
    chains: list[list] = []  # [nodes, end_time, start_time]
    open_by_node: dict[str, deque[int]] = defaultdict(deque)
    for i in order:
        e = edges[i]
        queue = open_by_node[e.source]
        while queue and e.time - chains[queue[0]][1] > delta:
            queue.popleft()
        if queue and chains[queue[0]][1] < e.time:
            ci = queue.popleft()
            chains[ci][0].append(e.target)
            chains[ci][1] = e.time
        else:  # no open chain, or the front one (and so every one) ends at e.time
            ci = len(chains)
            chains.append([[e.source, e.target], e.time, e.time])
        open_by_node[e.target].append(ci)
    return PathDataset(Path(tuple(nodes), 1, start_t) for nodes, _, start_t in chains)


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

    times = np.array([p.start_time for p in ds.paths])
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
    links = set()
    for p in ds.paths:
        counts[len(p)] += p.multiplicity
        links.update(zip(p.nodes, p.nodes[1:]))
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
    return [TemporalEdge(*r) for r in _read_triples(source, delimiter, "source,target,time",
                                                   "empty edge list")]


def read_actions(source: TextIO | Iterable[str], delimiter: str = ",") -> list[ActionRecord]:
    """Read a ``key,actor,time`` action log (header optional)."""
    return [ActionRecord(*r) for r in _read_triples(source, delimiter, "key,actor,time",
                                                   "no action records")]


def _read_triples(source: TextIO | Iterable[str], delimiter: str, columns: str,
                  empty_message: str) -> Iterator[tuple[str, str, int]]:
    """Yield ``(a, b, time)`` per ``columns`` line. Blank lines and a header on
    line 1 are skipped; a bad line, no line at all, or an empty ``delimiter``
    raises :class:`DataError`."""
    if not delimiter:
        raise DataError("empty delimiter")
    empty = True
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line:
            continue
        parts = [f.strip() for f in line.split(delimiter)]
        if len(parts) != 3:
            raise DataError(f"line {lineno}: expected {columns}")
        try:
            time = int(parts[2])
        except ValueError:
            if lineno == 1:
                continue  # header row
            raise DataError(f"line {lineno}: malformed timestamp {parts[2]!r}") from None
        empty = False
        yield parts[0], parts[1], time
    if empty:
        raise DataError(empty_message)
