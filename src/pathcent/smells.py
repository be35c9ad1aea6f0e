"""Longitudinal role analysis: per-window centralities, deviation from team
means, member ranking, and evidence flags for community-smell candidates.

The deviation score of a member aggregates, over windows and measures, the
absolute relative deviation of their centrality from the team mean. Members
with consistently extreme deviations are candidates for bottleneck, silo,
lone-wolf, or code-red situations; the flags produced here are candidates for
human review, not verdicts.

A platform's series holds one (windows x members) array per measure: row i is
the i-th non-empty window, column j the j-th member in sorted order, and a
member inactive in a window holds 0 there, masked out by the ``active`` array.
Team means and deviations are then array reductions in one fixed order, so
reruns give the same bits under any hash seed.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

import numpy as np

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
    members: tuple[str, ...]  # sorted; the columns of every array
    values: dict  # measure -> (windows x members) array, 0 where inactive
    active: np.ndarray  # (windows x members) bool
    orders: tuple[int, ...]  # fitted maximum order, aligned with window_starts

    def team_means(self, measure: str) -> np.ndarray:
        """Per-window mean of ``measure`` over the active members."""
        return self.values[measure].sum(axis=1) / self.active.sum(axis=1)


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
    k_max: int = 3,
    platform: str = "",
) -> PlatformSeries:
    """Fit a multi-order model per window and collect first-order centralities of
    every measure. With ``k=None`` the order is selected per window by AIC, and the
    chosen fit is kept. Grid windows without paths are gaps, not zeros."""
    if not windows:
        raise DataError("all windows are empty")
    members = tuple(sorted(frozenset().union(*(w.dataset.vocabulary for w in windows))))
    index = np.array(members, dtype=object)  # compared as str: a U array drops a trailing NUL
    shape = (len(windows), len(members))
    values = {m: np.zeros(shape) for m in MEASURES}
    active = np.zeros(shape, dtype=bool)
    orders = []
    for i, w in enumerate(windows):
        fits: dict = {}  # the window's fits by order, freed before the next window
        orders.append(k if k is not None else select_order(w.dataset, k_max, fits))
        model = fits.get(orders[-1]) or fit_mogen(w.dataset, orders[-1])
        at = np.searchsorted(index, np.array(model.node_index[0], dtype=object))  # its vocabulary
        active[i, at] = True
        for m in MEASURES:
            values[m][i, at] = compute(model, m).values
    return PlatformSeries(platform, tuple(w.start for w in windows), members, values, active, tuple(orders))


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
    per_series = []  # per series: {member: (score, skipped terms)}
    for series in series_list:
        score = np.zeros(len(series.members))
        skipped = np.zeros(len(series.members), dtype=np.int64)
        for measure, vals in series.values.items():
            mean = series.team_means(measure)[:, None]
            ok = np.abs(mean) >= MEAN_EPS
            score += np.divide(np.abs(vals - mean), np.abs(mean), out=np.zeros_like(vals),
                               where=series.active & ok).sum(axis=0)
            skipped += (series.active & ~ok).sum(axis=0)
        per_series.append(dict(zip(series.members, zip(score.tolist(), skipped.tolist()))))
    out = []
    for member in sorted(frozenset().union(*per_series)):
        terms = [by_member.get(member, (0.0, 0)) for by_member in per_series]
        per_platform = {series.platform: value for series, (value, _) in zip(series_list, terms)}
        total = sum(per_platform.values()) / len(series_list)
        out.append(DeviationScore(member, per_platform, total, sum(n for _, n in terms)))
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
    if member not in series.members:
        raise DataError(f"unknown member {member!r}")
    path_end = series.values["path_end"]
    share = path_end[:, series.members.index(member)]
    # runs of consecutive non-empty windows at or above theta_end
    runs = (list(run) for hit, run in groupby(
        zip(series.window_starts, (share >= theta_end).tolist()), key=itemgetter(1)) if hit)
    dominant = tuple((run[0][0], run[-1][0]) for run in runs if len(run) >= min_consecutive)
    few = ((path_end >= theta_role) & series.active).sum(axis=1) <= MAX_ROLE_MEMBERS
    return SmellEvidence(
        member=member,
        end_dominance=bool(dominant),
        end_dominance_windows=dominant,
        code_red_windows=tuple(w for w, hit in zip(series.window_starts, few.tolist()) if hit),
    )
