"""Deterministic corpus generators for the benchmark workloads.

Each generator is a pure function of its seed, a tuple of integers, and
writes one input file in a format the ``pathcent`` CLI reads. The program under test only ever sees these
files. The generators are kept here, apart from the test suite's own, so that
a change to the tests cannot change what the benchmark measures.
"""
from __future__ import annotations

from collections import Counter

import numpy as np

#: Five years of seconds; the temporal corpora span this range.
SPAN_S = 5 * 365 * 86400


def _write_counted(paths, out_path) -> int:
    """Write paths as ``a,b,c;count`` lines, one per distinct sequence."""
    counts = Counter(paths)
    with open(out_path, "w", encoding="utf-8") as fh:
        for nodes in sorted(counts):
            fh.write(",".join(nodes) + f";{counts[nodes]}\n")
    return len(counts)


def random_walks(seed: tuple[int, ...], out_path, n_paths: int = 16000, n_nodes: int = 50,
                 stop_p: float = 0.15, max_len: int = 20) -> dict:
    """Memoryless walks: uniform start and next node, constant stop probability."""
    rng = np.random.default_rng([*seed, 1])
    labels = [f"v{i}" for i in range(n_nodes)]
    steps = rng.integers(n_nodes, size=(n_paths, max_len))
    # A path continues past node j while every stop draw before it failed.
    stops = rng.random((n_paths, max_len - 1)) < stop_p
    first_stop = np.where(stops.any(axis=1), stops.argmax(axis=1), max_len - 1)
    lengths = first_stop + 1
    paths = [
        tuple(labels[j] for j in steps[i, : lengths[i]]) for i in range(n_paths)
    ]
    unique = _write_counted(paths, out_path)
    return {"paths": n_paths, "unique_paths": unique}


def order2_families(seed: tuple[int, ...], out_path, n_paths: int = 5000, n_entry: int = 24,
                    n_channels: int = 12, n_exit: int = 2, alpha: float = 1.4,
                    q_low: float = 0.15, q_high: float = 0.85) -> dict:
    """Two path families sharing a middle node, with channel-dependent stopping.

    Every path runs entry -> entry -> channel -> M and then stops at M or goes
    on to a family exit node. The stop probability depends on the channel two
    steps back, a second-order signal that a first-order model loses at M.
    """
    rng = np.random.default_rng([*seed, 2])
    weights = np.arange(1, n_channels + 1, dtype=float) ** -alpha
    weights /= weights.sum()
    channels = rng.choice(n_channels, size=n_paths, p=weights)
    entries = rng.integers(n_entry, size=(n_paths, 2))
    stop_draw = rng.random(n_paths)
    exits = rng.integers(n_exit, size=n_paths)
    paths = []
    for i in range(n_paths):
        ci = int(channels[i])
        family = "AB"[ci % 2]
        q_stop = q_low if ci % 2 == 0 else q_high
        nodes = [f"x{entries[i, 0]}", f"x{entries[i, 1]}", f"c{family}{ci // 2}", "M"]
        if stop_draw[i] >= q_stop:
            nodes.append(f"d{family}{exits[i]}")
        paths.append(tuple(nodes))
    unique = _write_counted(paths, out_path)
    return {"paths": n_paths, "unique_paths": unique}


def _zipf_members(n_members: int, skew: float) -> np.ndarray:
    weights = np.arange(1, n_members + 1, dtype=float) ** -skew
    return weights / weights.sum()


def temporal_contacts(seed: tuple[int, ...], out_path, n_edges: int = 50000,
                      n_members: int = 60, skew: float = 1.1,
                      continue_p: float = 0.6, max_gap_s: int = 3000) -> dict:
    """Conversation bursts among Zipf-skewed members over five years.

    A burst starts at a uniform time and hops from member to member; each hop
    follows the previous one by 1..``max_gap_s`` seconds, so consecutive hops
    chain under a one-hour delta. A burst goes on with ``continue_p``.
    """
    rng = np.random.default_rng([*seed, 3])
    members = rng.choice(n_members, size=2 * n_edges, p=_zipf_members(n_members, skew))
    goes_on = rng.random(n_edges) < continue_p
    gaps = rng.integers(1, max_gap_s + 1, size=n_edges)
    starts = rng.integers(SPAN_S, size=n_edges)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("source,target,time\n")
        m = 0
        src, t = int(members[m]), int(starts[0])
        for i in range(n_edges):
            dst = int(members[m + 1])
            m += 1
            if dst == src:
                dst = (dst + 1) % n_members
            fh.write(f"u{src},u{dst},{t}\n")
            if goes_on[i]:
                src, t = dst, t + int(gaps[i])
            elif i + 1 < n_edges:
                m += 1
                src, t = int(members[m]), int(starts[i])
    return {"edges": n_edges}


def ticket_actions(seed: tuple[int, ...], out_path, n_tickets: int = 20000,
                   n_members: int = 60, skew: float = 1.1,
                   more_p: float = 0.74, max_gap_s: int = 3 * 86400) -> dict:
    """Ticket hand-offs: each ticket is touched by a geometric number of actors.

    Tickets open at uniform times over five years; each further action
    follows the previous one by up to ``max_gap_s`` seconds.
    """
    rng = np.random.default_rng([*seed, 4])
    n_actions = 0
    lengths = rng.geometric(1.0 - more_p, size=n_tickets)
    actors = rng.choice(n_members, size=int(lengths.sum()), p=_zipf_members(n_members, skew))
    gaps = rng.integers(1, max_gap_s + 1, size=int(lengths.sum()))
    starts = rng.integers(SPAN_S, size=n_tickets)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("key,actor,time\n")
        for ticket in range(n_tickets):
            t = int(starts[ticket])
            for _ in range(lengths[ticket]):
                fh.write(f"T{ticket},u{actors[n_actions]},{t}\n")
                t += int(gaps[n_actions])
                n_actions += 1
    return {"tickets": n_tickets, "actions": n_actions}
