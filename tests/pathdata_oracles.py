"""The object-based readers, writer and statistics that ``pathcent.pathdata``
replaced with code over a dataset's columns, kept as test oracles.

Each builds one ``Path`` per line, chain or key and hands them to
``PathDataset``, or reads ``ds.paths``. ``parse_paths`` keeps its old
handling of empty labels, which it dropped, so compare it only on files
without them.
"""
from __future__ import annotations

from bisect import bisect_right
from collections import Counter, defaultdict, deque
from itertools import accumulate

from pathcent import DataError, Path, PathDataset
from pathcent.pathdata import DatasetStats


def parse_paths(source, delimiter=","):
    if not delimiter:
        raise DataError("empty delimiter")
    paths = []
    for lineno, raw in enumerate(source, start=1):
        if raw.startswith("#"):
            continue
        line = raw.strip()
        if not line:
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
    return PathDataset(paths)


def write_paths(ds, out, delimiter=","):
    for p in ds.paths:
        line = delimiter.join(p.nodes) + f";{p.multiplicity}"
        if p.start_time is not None:
            line += f";{p.start_time}"
        out.write(line + "\n")


def paths_from_actions(records):
    groups = defaultdict(list)
    for rec in sorted(records, key=lambda r: r.time):
        groups[rec.key].append(rec)
    if not groups:
        raise DataError("no action records")
    return PathDataset(Path(tuple(r.actor for r in recs), 1, recs[0].time) for recs in groups.values())


def extract_paths(edges, delta):
    if delta <= 0:
        raise DataError("delta must be > 0")
    if not edges:
        raise DataError("empty edge list")
    order = sorted(range(len(edges)), key=lambda i: (edges[i].time, i))
    chains = []  # [nodes, end_time, start_time]
    open_by_node = defaultdict(deque)
    for i in order:
        e = edges[i]
        queue = open_by_node[e.source]
        while queue and e.time - chains[queue[0]][1] > delta:
            queue.popleft()
        if queue and chains[queue[0]][1] < e.time:
            ci = queue.popleft()
            chains[ci][0].append(e.target)
            chains[ci][1] = e.time
        else:
            ci = len(chains)
            chains.append([[e.source, e.target], e.time, e.time])
        open_by_node[e.target].append(ci)
    return PathDataset(Path(tuple(nodes), 1, start_t) for nodes, _, start_t in chains)


def stats(ds):
    counts = Counter()
    links = set()
    for p in ds.paths:
        counts[len(p)] += p.multiplicity
        links.update(zip(p.nodes, p.nodes[1:]))
    lengths = sorted(counts)
    cumulative = list(accumulate(counts[n] for n in lengths))
    total, half = cumulative[-1], cumulative[-1] // 2

    def nth(i):
        return lengths[bisect_right(cumulative, i)]

    return DatasetStats(
        total_paths=total,
        unique_paths=len({p.nodes for p in ds.paths}),
        mean_len=sum(n * counts[n] for n in lengths) / total,
        median_len=nth(half) if total % 2 else (nth(half - 1) + nth(half)) / 2,
        n_nodes=len(ds.vocabulary),
        n_links=len(links),
    )
