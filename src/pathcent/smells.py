"""Longitudinal role analysis: per-window centralities, deviation from team
means, member ranking, and evidence flags for community-smell candidates.

The deviation score of a member aggregates, over windows and measures, the
absolute relative deviation of their centrality from the team mean. Members
with consistently extreme deviations are candidates for bottleneck, silo,
lone-wolf, or code-red situations; the flags produced here are candidates for
human review, not verdicts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby

from .centrality import MEASURES, compute
from .errors import DataError
from .models import fit_mogen, select_order
from .pathdata import WindowSlice

#: Team-mean magnitudes below this are skipped in deviation terms.
MEAN_EPS = 1e-9
#: A window is a code-red candidate when at most this many members hold a role.
MAX_ROLE_MEMBERS = 3


@dataclass(frozen=True)
class PlatformSeries:
    """Per-window first-order centralities for one development platform."""

    platform: str
    window_starts: tuple[int, ...]  # non-empty windows only, ascending
    values: dict  # measure -> {window_start: {member: value}}
    active: dict  # window_start -> frozenset of members
    orders: dict  # window_start -> fitted maximum order

    def members(self) -> set:
        out: set = set()
        for members in self.active.values():
            out.update(members)
        return out

    def team_mean(self, measure: str, window: int) -> float:
        vals = self.values[measure][window]
        members = self.active[window]
        # fsum is exact, so the set's hash-seeded iteration order cannot matter
        return math.fsum(vals.get(m, 0.0) for m in members) / len(members)


@dataclass(frozen=True)
class DeviationScore:
    member: str
    per_platform: dict  # platform -> S_{p,i}
    total: float  # S_i
    skipped_terms: int


@dataclass(frozen=True)
class SmellEvidence:
    member: str
    end_dominance: bool
    end_dominance_windows: tuple  # (first, last) window start of each dominant run
    code_red_windows: tuple  # windows where few members end paths


def windowed_centralities(
    windows: list[WindowSlice],
    k: int | None = None,
    measures=MEASURES,
    k_max: int = 3,
    platform: str = "",
) -> PlatformSeries:
    """Fit a multi-order model per non-empty window and collect first-order
    centralities. With ``k=None`` the order is selected per window by AIC.
    Empty windows are gaps, not zeros."""
    non_empty = [w for w in windows if not w.empty]
    if not non_empty:
        raise DataError("all windows are empty")
    values: dict = {m: {} for m in measures}
    active: dict = {}
    orders: dict = {}
    for w in non_empty:
        order = k if k is not None else select_order(w.dataset, k_max)
        model = fit_mogen(w.dataset, order)
        orders[w.start] = order
        active[w.start] = frozenset(w.dataset.vocabulary)
        for m in measures:
            vec = compute(model, m)
            values[m][w.start] = dict(vec.scores)
    return PlatformSeries(
        platform,
        tuple(w.start for w in non_empty),
        values,
        active,
        orders,
    )


def deviation_scores(series_list: list[PlatformSeries]) -> list[DeviationScore]:
    """Aggregate absolute relative deviations from team means.

    Per platform, a member's score sums |v - mean| / mean over all windows
    where the member is active and all measures; terms with |mean| <
    ``MEAN_EPS`` are skipped. The final score averages platform scores over
    all platforms, with members absent from a platform contributing zero
    there.
    """
    if not series_list:
        raise DataError("need at least one platform series")
    members: set = set()
    for series in series_list:
        members.update(series.members())
    out = []
    n_platforms = len(series_list)
    for member in sorted(members):
        per_platform = {}
        skipped = 0
        for series in series_list:
            s = 0.0
            for window in series.window_starts:
                if member not in series.active[window]:
                    continue
                for measure in series.values:
                    mean = series.team_mean(measure, window)
                    if abs(mean) < MEAN_EPS:
                        skipped += 1
                        continue
                    v = series.values[measure][window].get(member, 0.0)
                    s += abs((v - mean) / mean)
            per_platform[series.platform] = s
        total = sum(per_platform.values()) / n_platforms
        out.append(DeviationScore(member, per_platform, total, skipped))
    return out


def rank_members(scores: list[DeviationScore], top_n: int = 5) -> list[str]:
    """Members with the highest aggregate deviation, lexicographic tie-break."""
    if top_n < 1:
        raise DataError("top_n must be >= 1")
    ordered = sorted(scores, key=lambda d: (-d.total, d.member))
    return [d.member for d in ordered[:top_n]]


def evidence(
    series: PlatformSeries,
    member: str,
    theta_end: float = 0.5,
    min_consecutive: int = 4,
    theta_role: float = 0.05,
) -> SmellEvidence:
    """Extract smell-candidate evidence for one member.

    Flags raised: end-dominance when the member's path-end share stays at or
    above ``theta_end`` for at least ``min_consecutive`` consecutive non-empty
    windows; code-red candidate windows when at most ``MAX_ROLE_MEMBERS``
    members reach a path-end share of ``theta_role``.
    """
    if member not in series.members():
        raise DataError(f"unknown member {member!r}")
    if "path_end" not in series.values:
        raise DataError("evidence extraction requires the path_end measure")
    path_end = series.values["path_end"]
    # runs of consecutive non-empty windows at or above theta_end
    runs = (list(run) for hit, run in groupby(
        series.window_starts, key=lambda w: path_end[w].get(member, 0.0) >= theta_end) if hit)
    dominant = tuple((run[0], run[-1]) for run in runs if len(run) >= min_consecutive)
    code_red = tuple(
        window
        for window in series.window_starts
        if sum(
            1
            for m in series.active[window]
            if path_end[window].get(m, 0.0) >= theta_role
        )
        <= MAX_ROLE_MEMBERS
    )
    return SmellEvidence(
        member=member,
        end_dominance=bool(dominant),
        end_dominance_windows=dominant,
        code_red_windows=code_red,
    )
