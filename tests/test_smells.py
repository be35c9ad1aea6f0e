"""Windowed centralities, deviation scores, ranking, and evidence flags."""
import math
from dataclasses import dataclass
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcent import (
    MEASURES,
    DataError,
    DeviationScore,
    Path,
    PathDataset,
    SmellEvidence,
    compute,
    deviation_scores,
    evidence,
    fit_mogen,
    rank_members,
    rolling_windows,
    select_order,
    windowed_centralities,
)
from pathcent import models, smells
from pathcent.smells import MAX_ROLE_MEMBERS, MEAN_EPS

import generators
from vector_dicts import as_dict


def make_series(seed=0, platform="p1", k=2, **kwargs):
    ds = generators.smell_corpus(seed=seed, **kwargs)
    windows = rolling_windows(ds, length=100, shift=100)
    return windowed_centralities(windows, k=k, platform=platform)


class TestWindowedCentralities:
    def test_series_shape(self):
        series = make_series()
        assert series.platform == "p1"
        assert len(series.window_starts) == 6
        assert set(series.values) == {
            "betweenness", "closeness", "path_end",
            "path_continuation", "path_reach", "visitation",
        }

    def test_dominant_member_path_end_share(self):
        series = make_series()
        for share in series.values["path_end"][:, series.members.index("zed")]:
            assert share == pytest.approx(0.7, abs=0.02)

    def test_auto_order_records_selection(self):
        ds = generators.smell_corpus(seed=1, n_windows=2)
        windows = rolling_windows(ds, length=100, shift=100)
        series = windowed_centralities(windows, k=None, k_max=2)
        assert len(series.orders) == len(series.window_starts)
        assert set(series.orders) <= {1, 2}

    def test_auto_order_reuses_the_chosen_fit(self, monkeypatch):
        """Each window fits each order once, inside select_order, and keeps the
        chosen fit: no window is fitted again at its order."""
        ds = generators.smell_corpus(seed=1, n_windows=3)
        windows = rolling_windows(ds, length=100, shift=100)
        fits, chosen = [], []
        fit, select = models.fit_mogen, models.select_order

        def counted_fit(w, k):
            fits.append((id(w), k))
            return fit(w, k)

        def recorded_select(w, k_max, kept=None):
            chosen.append(select(w, k_max, kept))
            return chosen[-1]

        monkeypatch.setattr(models, "fit_mogen", counted_fit)
        monkeypatch.setattr(smells, "fit_mogen", counted_fit)
        monkeypatch.setattr(smells, "select_order", recorded_select)
        series = windowed_centralities(windows, k=None, k_max=3)
        non_empty = [w.dataset for w in windows if not w.empty]
        assert fits == [(id(w), k) for w in non_empty for k in range(1, min(3, w.max_length) + 1)]
        assert series.orders == tuple(chosen)
        monkeypatch.undo()
        again = windowed_centralities(windows, k=None, k_max=3)
        assert all(np.array_equal(again.values[m], series.values[m]) for m in MEASURES)

    def test_select_order_hands_back_its_fits(self):
        ds = generators.smell_corpus(seed=1, n_windows=2)
        kept = {}
        k = select_order(ds, 4, kept)
        assert sorted(kept) == list(range(1, min(4, ds.max_length) + 1)) and k in kept
        assert all(m.order == order for order, m in kept.items())

    def test_empty_windows_are_gaps(self):
        ds = PathDataset([
            Path(("a", "b"), 1, 0), Path(("b", "a"), 1, 250),
        ])
        windows = rolling_windows(ds, length=100, shift=100)
        series = windowed_centralities(windows, k=1)
        assert series.window_starts == (0, 200)

    def test_all_empty_rejected(self):
        with pytest.raises(DataError):
            windowed_centralities([], k=1)


class TestDeviationScores:
    def test_planted_dominant_scores_highest(self):
        scores = deviation_scores([make_series()])
        by_member = {d.member: d for d in scores}
        others = [d.total for d in scores if d.member != "zed"]
        assert by_member["zed"].total > max(others)

    def test_two_platforms_average(self):
        s1 = make_series(seed=0, platform="p1")
        s2 = make_series(seed=1, platform="p2")
        scores = deviation_scores([s1, s2])
        zed = next(d for d in scores if d.member == "zed")
        assert zed.total == pytest.approx(
            (zed.per_platform["p1"] + zed.per_platform["p2"]) / 2
        )

    def test_member_absent_from_platform_contributes_zero(self):
        s1 = make_series(seed=0, platform="p1")
        s2 = make_series(seed=1, platform="p2", dominant="yara")
        scores = deviation_scores([s1, s2])
        # zed never appears on p2's corpus ending paths but may appear by name
        # only on p1; the p2 term must then be 0
        zed = next(d for d in scores if d.member == "zed")
        assert zed.per_platform["p2"] == 0.0

    def test_requires_series(self):
        with pytest.raises(DataError):
            deviation_scores([])


class TestRanking:
    def test_rank_members_orders_and_truncates(self):
        scores = deviation_scores([make_series()])
        ranked = rank_members(scores, top_n=3)
        assert len(ranked) == 3
        assert ranked[0] == "zed"

    def test_tie_breaks_lexicographically(self):
        scores = deviation_scores([make_series()])
        full = rank_members(scores, top_n=len(scores))
        totals = {d.member: d.total for d in scores}
        for a, b in zip(full, full[1:]):
            assert (totals[a], a) >= (totals[b], a) or totals[a] > totals[b]

    def test_invalid_top(self):
        with pytest.raises(DataError):
            rank_members([], 0)


class TestEvidence:
    def test_end_dominance_flag(self):
        series = make_series()
        ev = evidence(series, "zed", theta_end=0.5, min_consecutive=4)
        assert ev.end_dominance
        (start, end), = ev.end_dominance_windows
        assert start == series.window_starts[0]
        assert end == series.window_starts[-1]

    def test_no_flag_for_balanced_member(self):
        series = make_series()
        ev = evidence(series, "m0", theta_end=0.5, min_consecutive=4)
        assert not ev.end_dominance

    def test_short_runs_not_flagged(self):
        series = make_series(n_windows=3)
        ev = evidence(series, "zed", theta_end=0.5, min_consecutive=4)
        assert not ev.end_dominance

    def test_code_red_windows(self):
        # only zed reaches a 50% end share anywhere
        series = make_series()
        ev = evidence(series, "zed", theta_role=0.5)
        assert set(ev.code_red_windows) == set(series.window_starts)

    def test_unknown_member(self):
        with pytest.raises(DataError):
            evidence(make_series(), "nobody")


@dataclass(frozen=True)
class _DictSeries:
    """The dict-keyed series: ``values[measure][window][member]``."""

    platform: str
    window_starts: tuple
    values: dict
    active: dict  # window -> frozenset of members

    def members(self) -> set:
        return set().union(*self.active.values())

    def team_mean(self, measure, window) -> float:
        vals = self.values[measure][window]
        return math.fsum(vals.get(m, 0.0) for m in self.active[window]) / len(self.active[window])


def _windowed_oracle(windows, k=None, k_max=3, platform=""):
    values, active = {m: {} for m in MEASURES}, {}
    non_empty = [w for w in windows if not w.empty]
    for w in non_empty:
        model = fit_mogen(w.dataset, k if k is not None else select_order(w.dataset, k_max))
        active[w.start] = frozenset(w.dataset.vocabulary)
        for m in MEASURES:
            values[m][w.start] = as_dict(compute(model, m))
    return _DictSeries(platform, tuple(w.start for w in non_empty), values, active)


def _deviation_oracle(series_list):
    members = set().union(*(series.members() for series in series_list))
    out = []
    for member in sorted(members):
        per_platform, skipped = {}, 0
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
                    s += abs((series.values[measure][window].get(member, 0.0) - mean) / mean)
            per_platform[series.platform] = s
        out.append(DeviationScore(member, per_platform,
                                  sum(per_platform.values()) / len(series_list), skipped))
    return out


def _evidence_oracle(series, member, theta_end, min_consecutive, theta_role):
    path_end = series.values["path_end"]
    runs = (list(run) for hit, run in groupby(
        series.window_starts, key=lambda w: path_end[w].get(member, 0.0) >= theta_end) if hit)
    dominant = tuple((run[0], run[-1]) for run in runs if len(run) >= min_consecutive)
    code_red = tuple(
        w for w in series.window_starts
        if sum(path_end[w].get(m, 0.0) >= theta_role for m in series.active[w]) <= MAX_ROLE_MEMBERS
    )
    return SmellEvidence(member, bool(dominant), dominant, code_red)


THETAS = [(0.0, 1, 0.0), (0.2, 2, 0.05), (0.5, 4, 0.05), (0.7, 1, 0.2), (0.69, 3, 0.5)]


def _assert_matches_dict_oracle(windows_per_platform, k, k_max=3):
    """Array series, deviations and evidence equal the dict-keyed pipeline's."""
    series_list, oracles = [], []
    for platform, windows in windows_per_platform.items():
        series_list.append(windowed_centralities(windows, k=k, k_max=k_max, platform=platform))
        oracles.append(_windowed_oracle(windows, k=k, k_max=k_max, platform=platform))
    for series, oracle in zip(series_list, oracles):
        assert series.window_starts == oracle.window_starts
        assert series.members == tuple(sorted(oracle.members()))
        for i, w in enumerate(series.window_starts):
            assert {m for m, on in zip(series.members, series.active[i]) if on} == oracle.active[w]
        for measure in MEASURES:
            means = series.team_means(measure)
            for i, w in enumerate(series.window_starts):
                assert means[i] == pytest.approx(oracle.team_mean(measure, w), rel=1e-12, abs=1e-300)
    got, expected = deviation_scores(series_list), _deviation_oracle(oracles)
    assert [d.member for d in got] == [d.member for d in expected]
    for d, e in zip(got, expected):
        assert d.skipped_terms == e.skipped_terms
        assert d.per_platform == pytest.approx(e.per_platform, rel=1e-12, abs=1e-300)
        assert d.total == pytest.approx(e.total, rel=1e-12, abs=1e-300)
    for series, oracle in zip(series_list, oracles):
        for member in series.members:
            for theta_end, run, theta_role in THETAS:
                assert evidence(series, member, theta_end, run, theta_role) == _evidence_oracle(
                    oracle, member, theta_end, run, theta_role)


class TestMatchesDictOracle:
    @pytest.mark.parametrize("k", [1, 2, None])
    @pytest.mark.parametrize("seeds", [(0,), (1, 2)])
    def test_smell_corpus(self, seeds, k):
        windows = {f"p{seed}": rolling_windows(generators.smell_corpus(seed=seed), 100, 50)
                   for seed in seeds}
        _assert_matches_dict_oracle(windows, k)

    def test_labels_that_a_str_array_would_merge(self):
        # a numpy str array holds "a" and "a\x00" as one value; the columns keep them apart
        ds = PathDataset([Path(("a", "a\x00", "b"), 1, 0), Path(("a\x00", "é"), 2, 5),
                          Path(("b", "a"), 1, 12), Path(("é", "a\x00", "a"), 1, 14)])
        _assert_matches_dict_oracle({"p": rolling_windows(ds, 10, 5)}, 2)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.builds(
                    Path,
                    st.lists(st.sampled_from("abcde"), min_size=1, max_size=4).map(tuple),
                    st.integers(1, 3),
                    st.integers(-20, 40),
                ),
                min_size=1,
                max_size=12,
            ),
            min_size=1,
            max_size=2,
        ),
        st.integers(5, 30),
        st.integers(5, 30),
        st.sampled_from([1, 2, None]),
    )
    def test_random_timestamped_corpora(self, corpora, length, shift, k):
        windows = {f"p{i}": rolling_windows(PathDataset(paths), length, shift)
                   for i, paths in enumerate(corpora)}
        if any(all(w.empty for w in ws) for ws in windows.values()):  # paths between windows
            with pytest.raises(DataError, match="all windows are empty"):
                _assert_matches_dict_oracle(windows, k, k_max=2)
            return
        _assert_matches_dict_oracle(windows, k, k_max=2)
