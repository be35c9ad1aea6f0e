"""Windowed centralities, deviation scores, ranking, and evidence flags."""
import pytest

from pathcent import (
    DataError,
    Path,
    PathDataset,
    deviation_scores,
    evidence,
    rank_members,
    rolling_windows,
    windowed_centralities,
)

import generators


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
        for w in series.window_starts:
            assert series.values["path_end"][w]["zed"] == pytest.approx(0.7, abs=0.02)

    def test_auto_order_records_selection(self):
        ds = generators.smell_corpus(seed=1, n_windows=2)
        windows = rolling_windows(ds, length=100, shift=100)
        series = windowed_centralities(windows, k=None, k_max=2)
        assert all(o in (1, 2) for o in series.orders.values())

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
