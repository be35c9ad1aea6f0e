"""Parsing, ingestion, temporal extraction, windows, and statistics."""
import io
import re
import statistics
from bisect import bisect_left
from collections import defaultdict

import numpy as np

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathcent import (
    ActionRecord,
    DataError,
    Path,
    PathDataset,
    TemporalEdge,
    extract_paths,
    fit_mogen,
    parse_paths,
    paths_from_actions,
    rolling_windows,
    split,
    stats,
)
from pathcent.pathdata import read_actions, read_temporal_edges, write_paths

import pathdata_oracles as oracle
from model_oracles import trans_counts
from ranking_oracles import scored_sequences


class TestPath:
    def test_rejects_empty_sequence(self):
        with pytest.raises(DataError):
            Path(())

    def test_rejects_zero_multiplicity(self):
        with pytest.raises(DataError):
            Path(("a",), 0)

    def test_rejects_reserved_labels(self):
        for bad in ("*", "†"):
            with pytest.raises(DataError):
                Path(("a", bad))

    def test_rejects_empty_label(self):
        with pytest.raises(DataError):
            Path(("a", ""))

    @pytest.mark.parametrize("bad", ["a|b", "a,b", "a;b", "|"])
    def test_rejects_separator_characters(self, bad):
        with pytest.raises(DataError, match=re.escape(repr(bad))):
            Path(("x", bad))

    @pytest.mark.parametrize("bad", ["#", "#general", "\n#x"])
    def test_rejects_leading_hash(self, bad):
        with pytest.raises(DataError, match="starts with '#'"):
            Path(("x", bad))

    @pytest.mark.parametrize("count, time", [(2.5, None), (True, 1.5), (1, True), (1, 1.5), (2, "3")])
    def test_rejects_counts_and_times_that_are_not_int(self, count, time):
        # write_paths would write them as "a,b;2.5" or "a,b;True;1.5", which parse_paths rejects
        with pytest.raises(DataError, match="must be an int"):
            Path(("a", "b"), count, time)

    def test_hash_inside_a_label_is_allowed(self):
        assert Path(("a#", "b#c")).nodes == ("a#", "b#c")

    def test_state_key_collision_is_rejected(self):
        # the states (a|b, c) and (a, b|c) would both be written as "a|b|c"
        with pytest.raises(DataError, match=r"'a\|b'"):
            parse_paths(io.StringIO("a|b,c\na,b|c\na,b,c\n"))


class TestPathDataset:
    def test_merges_identical_paths(self):
        ds = PathDataset([Path(("a", "b"), 2), Path(("a", "b"), 3)])
        assert len(ds) == 1
        assert ds.paths[0].multiplicity == 5
        assert ds.total == 5
        assert ds.unique == 1

    def test_distinguishes_start_times(self):
        ds = PathDataset([Path(("a", "b"), 1, 0), Path(("a", "b"), 1, 7)])
        assert len(ds) == 2
        assert ds.unique == 1

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            PathDataset([])

    def test_vocabulary_and_max_length(self):
        ds = PathDataset([Path(("a", "b", "c")), Path(("b",))])
        assert ds.vocabulary == {"a", "b", "c"}
        assert ds.max_length == 3

    def test_keeps_paths_whose_key_occurs_once(self):
        ds = parse_paths(io.StringIO("b,c;1;5\na,b;2;7\na,b;1;3\nc;4\n"))
        again = PathDataset(ds.paths)
        assert len(again) == len(ds)
        assert again.paths == ds.paths

    @pytest.mark.parametrize("merged, message", [
        ({(("a",), None): 0}, "multiplicity must be >= 1"),
        ({(("a",), None): 2.0}, "multiplicity must be an int"),
        ({(("a",), None): True}, "multiplicity must be an int"),
        ({(("a",), 2.5): 1}, "start time must be an int or None"),
        ({((), None): 1}, "at least one node"),
        ({(("a", "b|c"), None): 1, (("a", ""), 3): 2}, "node label '' is empty"),
    ])
    def test_checks_a_mapping_as_it_checks_paths(self, merged, message):
        with pytest.raises(DataError, match=message):
            PathDataset(merged)

    def test_mapping_builds_columns_and_the_view_on_first_use(self):
        ds = PathDataset({(("b",), 3): 1, (("a", "b"), -1): 4, (("a", "b"), None): 2})
        assert "paths" not in ds.__dict__
        assert (len(ds), ds.total, ds.unique, ds.max_length, ds.has_timestamps) == (3, 7, 2, 2, False)
        assert ds.vocabulary == {"a", "b"}
        # a node sequence's untimed row comes before its timed ones
        assert ds.paths == (Path(("a", "b"), 2), Path(("a", "b"), 4, -1), Path(("b",), 1, 3))
        assert ds.paths is ds.paths

    def test_merging_key_builds_one_path_with_the_summed_multiplicity(self):
        first, second, alone = Path(("a", "b"), 2, 0), Path(("a", "b"), 3, 0), Path(("c",), 1, 0)
        ds = PathDataset([first, alone, second])
        merged = next(p for p in ds.paths if p.nodes == ("a", "b"))
        assert merged == Path(("a", "b"), 5, 0)
        assert next(p for p in ds.paths if p.nodes == ("c",)) == alone


class TestParsePaths:
    def test_basic_line(self):
        ds = parse_paths(io.StringIO("a,b,c\n"))
        assert ds.paths[0].nodes == ("a", "b", "c")
        assert ds.paths[0].multiplicity == 1
        assert ds.paths[0].start_time is None

    def test_count_and_timestamp(self):
        ds = parse_paths(io.StringIO("a,b;4;17\n"))
        p = ds.paths[0]
        assert (p.nodes, p.multiplicity, p.start_time) == (("a", "b"), 4, 17)

    def test_merges_duplicate_lines(self):
        ds = parse_paths(io.StringIO("a,b;2\na,b;3\n"))
        assert ds.paths[0].multiplicity == 5

    def test_skips_blank_lines(self):
        ds = parse_paths(io.StringIO("a,b\n\nc\n"))
        assert ds.total == 2

    @pytest.mark.parametrize("line", ["a,,b;2", "a, ,b", "c,"])
    def test_empty_label_names_its_line(self, line):
        with pytest.raises(DataError, match="^line 2: node label '' is empty"):
            parse_paths(io.StringIO(f"a,b;2\n{line}\na,b\n"))

    def test_malformed_count(self):
        with pytest.raises(DataError, match="line 1"):
            parse_paths(io.StringIO("a,b;x\n"))

    def test_malformed_timestamp(self):
        with pytest.raises(DataError, match="line 2"):
            parse_paths(io.StringIO("a,b\na,b;1;zzz\n"))

    def test_too_many_fields(self):
        with pytest.raises(DataError):
            parse_paths(io.StringIO("a;1;2;3\n"))

    def test_empty_input(self):
        with pytest.raises(DataError):
            parse_paths(io.StringIO(""))

    def test_empty_delimiter_is_data_error(self):
        for read in (parse_paths, read_actions, read_temporal_edges):
            with pytest.raises(DataError, match="^empty delimiter$"):
                read(io.StringIO("a,b,1\n"), delimiter="")

    def test_roundtrip(self):
        ds = parse_paths(io.StringIO("a,b;2;5\nc,d\n"))
        buf = io.StringIO()
        write_paths(ds, buf)
        again = parse_paths(io.StringIO(buf.getvalue()))
        assert again.paths == ds.paths

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.builds(
                Path,
                st.lists(st.text("ab-_.é0", min_size=1, max_size=3), min_size=1, max_size=5).map(tuple),
                st.integers(1, 10**12),
                st.none() | st.integers(-(10**12), 10**12),
            ),
            min_size=1,
            max_size=20,
        ),
        st.sampled_from([",", ":"]),
        st.lists(
            st.tuples(st.integers(1, 10**12) | st.booleans() | st.floats(allow_nan=False),
                      st.none() | st.integers() | st.booleans() | st.floats(allow_nan=False))
            .filter(lambda ct: not (type(ct[0]) is int and type(ct[1]) in (int, type(None)))),
            max_size=3,
        ),
    )
    def test_write_parse_roundtrip_property(self, paths, delimiter, not_int):
        ds = PathDataset(paths)
        buf = io.StringIO()
        write_paths(ds, buf, delimiter)
        assert parse_paths(io.StringIO(buf.getvalue()), delimiter).paths == ds.paths
        for count, time in not_int:  # so no path is written that cannot be read back
            with pytest.raises(DataError, match="must be an int"):
                Path(("a",), count, time)


class TestActions:
    def test_orders_by_time_stable_on_ties(self):
        records = [
            ActionRecord("T-1", "bob", 5),
            ActionRecord("T-1", "ann", 2),
            ActionRecord("T-1", "eve", 5),
        ]
        ds = paths_from_actions(records)
        assert ds.paths[0].nodes == ("ann", "bob", "eve")
        assert ds.paths[0].start_time == 2

    def test_one_path_per_key(self):
        records = [
            ActionRecord("T-1", "ann", 1),
            ActionRecord("T-2", "bob", 1),
        ]
        assert paths_from_actions(records).total == 2

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.builds(ActionRecord, st.sampled_from(["T-1", "T-2", "T-3"]),
                              st.sampled_from(["ann", "bob", "eve"]), st.integers(0, 4)),
                    min_size=1, max_size=12))
    def test_matches_a_sort_per_key(self, records):
        groups = defaultdict(list)
        for rec in records:
            groups[rec.key].append(rec)
        expected = []
        for recs in groups.values():
            ordered = sorted(recs, key=lambda r: r.time)
            expected.append(Path(tuple(r.actor for r in ordered), 1, ordered[0].time))
        assert paths_from_actions(records).paths == PathDataset(expected).paths

    def test_read_actions_header(self):
        recs = read_actions(io.StringIO("key,actor,time\nT-1,ann,3\n"))
        assert recs == [ActionRecord("T-1", "ann", 3)]


class TestExtractPaths:
    def test_simple_chain(self):
        edges = [TemporalEdge("a", "b", 1), TemporalEdge("b", "c", 2)]
        ds = extract_paths(edges, delta=5)
        assert ds.paths[0].nodes == ("a", "b", "c")
        assert ds.paths[0].start_time == 1

    def test_delta_bound_is_inclusive(self):
        edges = [TemporalEdge("a", "b", 0), TemporalEdge("b", "c", 3)]
        assert extract_paths(edges, delta=3).total == 1
        assert extract_paths(edges, delta=2).total == 2

    def test_equal_times_do_not_chain(self):
        edges = [TemporalEdge("a", "b", 1), TemporalEdge("b", "c", 1)]
        assert extract_paths(edges, delta=5).total == 2

    def test_each_edge_used_once(self):
        edges = [
            TemporalEdge("a", "b", 0),
            TemporalEdge("c", "b", 1),
            TemporalEdge("b", "d", 2),
        ]
        ds = extract_paths(edges, delta=10)
        lengths = sorted(len(p) for p in ds.paths)
        assert lengths == [2, 3]
        # the oldest open chain (a,b) wins the continuation
        assert ("a", "b", "d") in {p.nodes for p in ds.paths}

    def test_invalid_delta(self):
        with pytest.raises(DataError):
            extract_paths([TemporalEdge("a", "b", 0)], delta=0)

    def test_read_temporal_edges_header(self):
        edges = read_temporal_edges(io.StringIO("source,target,time\na,b,3\n"))
        assert edges == [TemporalEdge("a", "b", 3)]


def _extract_paths_oracle(edges, delta):
    """The linear-scan chaining ``extract_paths`` replaced: per node, a list of
    open chains in arrival order, scanned for the first with
    end < t <= end + delta."""
    order = sorted(range(len(edges)), key=lambda i: (edges[i].time, i))
    chains = []  # [nodes, end_time, start_time]
    open_by_node = defaultdict(list)
    for i in order:
        e = edges[i]
        extended = None
        for ci in open_by_node.get(e.source, []):
            end_t = chains[ci][1]
            if end_t < e.time and e.time - end_t <= delta:
                extended = ci
                break
        if extended is not None:
            open_by_node[e.source].remove(extended)
            chains[extended][0].append(e.target)
            chains[extended][1] = e.time
            open_by_node[e.target].append(extended)
        else:
            chains.append([[e.source, e.target], e.time, e.time])
            open_by_node[e.target].append(len(chains) - 1)
    return PathDataset(Path(tuple(nodes), 1, start_t) for nodes, _, start_t in chains)


class TestExtractPathsOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.builds(TemporalEdge, st.sampled_from("abc"), st.sampled_from("abc"), st.integers(0, 8)),
            min_size=1,
            max_size=40,
        ),
        st.integers(1, 4),
    )
    def test_matches_linear_scan(self, edges, delta):
        # three nodes and nine time steps: ties, self-loops and chains ending
        # exactly delta before the next edge all occur
        assert extract_paths(edges, delta).paths == _extract_paths_oracle(edges, delta).paths


#: Both triple readers: function, record type, column names, empty-input message.
READERS = {
    "temporal-edges": (read_temporal_edges, TemporalEdge, "source,target,time", "empty edge list"),
    "actions": (read_actions, ActionRecord, "key,actor,time", "no action records"),
}


@pytest.mark.parametrize("fmt", sorted(READERS))
class TestTripleReaders:
    def test_blank_lines_and_whitespace_skipped(self, fmt):
        read, record, _, _ = READERS[fmt]
        got = read(io.StringIO("\n a , b , 1 \n\n\nc,d,-2\n"))
        assert got == [record("a", "b", 1), record("c", "d", -2)]

    def test_header_only_on_line_one(self, fmt):
        read, record, columns, _ = READERS[fmt]
        assert read(io.StringIO(f"{columns}\nT,u,3\n")) == [record("T", "u", 3)]
        for text, lineno in ((f"T,u,3\n{columns}\n", 2), (f"\n{columns}\nT,u,3\n", 2)):
            with pytest.raises(DataError, match=f"line {lineno}: malformed timestamp 'time'"):
                read(io.StringIO(text))

    @pytest.mark.parametrize("line", ["a,b", "a,b,1,2", "a"])
    def test_wrong_field_count(self, fmt, line):
        read, _, columns, _ = READERS[fmt]
        with pytest.raises(DataError, match=f"^line 2: expected {columns}$"):
            read(io.StringIO(f"x,y,0\n{line}\n"))

    @pytest.mark.parametrize("stamp", ["1.5", "zzz", "", "1e3"])
    def test_malformed_timestamp_names_its_line(self, fmt, stamp):
        read, _, _, _ = READERS[fmt]
        with pytest.raises(DataError, match=f"^line 3: malformed timestamp {re.escape(repr(stamp))}$"):
            read(io.StringIO(f"x,y,0\n\na,b,{stamp}\n"))

    @pytest.mark.parametrize("text", ["", "\n\n", "h1,h2,h3\n"])
    def test_empty_input_message(self, fmt, text):
        read, _, _, message = READERS[fmt]
        with pytest.raises(DataError, match=f"^{message}$"):
            read(io.StringIO(text))

    def test_delimiter(self, fmt):
        read, record, _, _ = READERS[fmt]
        assert read(io.StringIO("a 1\tb\t7\n"), delimiter="\t") == [record("a 1", "b", 7)]
        if fmt == "actions":  # a key is no node label, so it may hold a ','
            assert read(io.StringIO("a,1\tb\t7\n"), delimiter="\t") == [record("a,1", "b", 7)]
        else:
            with pytest.raises(DataError, match="^line 1: node label 'a,1'"):
                read(io.StringIO("a,1\tb\t7\n"), delimiter="\t")

    @pytest.mark.parametrize("bad, message", [
        ("T2,,2", "node label '' is empty"),
        (",bob,2", None),
        ("T2,b|c,2", "node label 'b|c'"),
        ("T2,*,2", "node label '\\*' is empty, reserved"),
    ])
    def test_bad_label_or_key_names_the_first_line_that_holds_it(self, fmt, bad, message):
        read = READERS[fmt][0]
        if message is None:  # an empty key, or an empty source label
            message = "action record with empty key" if fmt == "actions" else "node label '' is empty"
        with pytest.raises(DataError, match=f"^line 3: {message}"):
            read(io.StringIO(f"{READERS[fmt][2]}\nT1,b,1\n{bad}\n\n{bad}\n"))


def _rolling_windows_oracle(ds, length, shift):
    """The scanning windowing: every path tested against every window, as
    ``(start, dataset or None)`` pairs."""
    times = [p.start_time for p in ds.paths]
    out = []
    start = (min(times) // shift) * shift
    while start <= max(times):
        members = [p for p in ds.paths if start <= p.start_time < start + length]
        out.append((start, PathDataset(members) if members else None))
        start += shift
    return out


def _rolling_windows_bisect(ds, length, shift):
    """The windowing ``rolling_windows`` replaced: paths sorted by start time,
    each window a bisected range of them, merged again by ``PathDataset``."""
    by_time = sorted(ds.paths, key=lambda p: p.start_time)
    times = [p.start_time for p in by_time]
    out = []
    for start in range(times[0] // shift * shift, times[-1] + 1, shift):
        members = by_time[bisect_left(times, start) : bisect_left(times, start + length)]
        out.append((start, PathDataset(members) if members else None))
    return out


def _assert_same_dataset(got, want):
    """Same paths, vocabulary, total and fits of orders 1-3 as a fresh dataset."""
    assert got.paths == want.paths
    assert got.vocabulary == want.vocabulary
    assert got.total == want.total
    for k in (1, 2, 3):
        a, b = fit_mogen(got, k), fit_mogen(want, k)
        assert a.states == b.states
        assert np.array_equal(a.start_counts, b.start_counts)
        assert np.array_equal(a.end_counts, b.end_counts)
        assert np.array_equal(trans_counts(a).toarray(), trans_counts(b).toarray())


def _sides(ds, fraction, seed) -> tuple:
    """The split sides of ``ds``, or none where no draw succeeds."""
    try:
        return split(ds, fraction, seed)
    except DataError:
        return ()


def _columns(ds) -> tuple:
    """A dataset's columns and the figures read from them."""
    return (ds._nodes, ds._times, ds._counts, len(ds), ds.total, ds.unique, ds.max_length,
            ds.has_timestamps, ds.vocabulary)


# timestamped paths whose (nodes, start_time) keys repeat, so the corpus merges them
_timestamped = st.lists(
    st.builds(Path, st.lists(st.sampled_from("abcd"), min_size=1, max_size=6).map(tuple),
              st.integers(1, 4), st.integers(-20, 20)),
    min_size=1, max_size=30,
)


class TestDerivedDatasets:
    @settings(max_examples=150, deadline=None)
    @given(_timestamped, st.integers(1, 25), st.integers(1, 25))
    def test_windows_equal_fresh_datasets(self, paths, length, shift):
        ds = PathDataset(paths + paths[:3])
        got = rolling_windows(ds, length, shift)
        want = _rolling_windows_bisect(ds, length, shift)
        assert [(w.start, w.empty) for w in got] == [(start, d is None) for start, d in want]
        for w, (_, d) in zip(got, want):
            if d is not None:
                _assert_same_dataset(w.dataset, d)

    @settings(max_examples=150, deadline=None)
    @given(_timestamped, st.floats(0.1, 0.9), st.integers(0, 2**16))
    def test_split_sides_equal_fresh_datasets(self, paths, fraction, seed):
        ds = PathDataset(paths + paths[:3])
        if ds.total < 2:
            return
        try:
            sides = split(ds, fraction, seed)
        except DataError:
            return  # no non-degenerate draw
        assert sum(side.total for side in sides) == ds.total
        for side in sides:
            _assert_same_dataset(side, PathDataset(side.paths))

    @settings(max_examples=150, deadline=None)
    @given(_timestamped, st.integers(1, 25), st.integers(1, 25), st.floats(0.1, 0.9),
           st.integers(0, 2**16))
    def test_lazy_columns_equal_the_eager_ones(self, paths, length, shift, fraction, seed):
        """A window's or split side's columns, gathered on first use, equal those
        of a fresh dataset over its paths, and those an eager gather of its rows
        gives; so do a split side's of a window. A window of a split side, and a
        split side of that window, count its paths as the dataset it was cut from."""
        ds = PathDataset(paths + paths[:3])
        windows = [w.dataset for w in rolling_windows(ds, length, shift) if not w.empty]
        sides = list(_sides(ds, fraction, seed))  # hold their own counts
        assert not any({"_nodes", "_times", "_counts", "paths"} & w.__dict__.keys() for w in windows)
        assert not any({"_nodes", "_times", "paths"} & side.__dict__.keys() for side in sides)
        subsets = windows + sides + [side for w in windows for side in _sides(w, fraction, seed)]
        for sub in subsets:  # every subset, a split side of a window too, holds the corpus
            assert sub._corpus is ds
            rows = sub._rows.tolist()
            counts = tuple(ds._counts[i] for i in rows) if sub in windows else sub._counts
            want = [tuple(column[i] for i in rows) for column in (ds._nodes, ds._times)] + [counts]
            assert [sub._nodes, sub._times, sub._counts] == want
            assert _columns(sub) == _columns(PathDataset(sub.paths))
            assert sub.max_length == max(map(len, sub._nodes))
        fresh = [d for _, d in _rolling_windows_bisect(ds, length, shift) if d is not None]
        assert list(map(_columns, windows)) == list(map(_columns, fresh))
        for side in sides:
            counted = dict(zip(zip(side._nodes, side._times), side._counts))
            for w in (w.dataset for w in rolling_windows(side, length, shift) if not w.empty):
                assert w._counts == tuple(map(counted.__getitem__, zip(w._nodes, w._times)))
                halves = _sides(w, fraction, seed)
                assert sum(half.total for half in halves) in (0, w.total)
                for sub in (w, *halves):
                    assert sub._corpus is ds
                    again = PathDataset(sub.paths)
                    assert _columns(sub) == _columns(again)
                    assert sub.encoded[3].tolist() == again.encoded[3].tolist()  # the fits' weights

    def test_a_window_of_a_split_side_counts_as_the_side(self):
        ds = parse_paths(io.StringIO("a,b;5;0\nb,c;7;10\nc,a;3;20\n"))
        train, _ = split(ds, 0.5, 1)
        window = rolling_windows(train, 100, 100)[0].dataset
        assert window._rows.tolist() == [0, 1, 2]  # the whole side
        assert window.total == stats(window).total_paths == train.total == 7
        assert window.paths == train.paths
        out, want = io.StringIO(), io.StringIO()
        write_paths(window, out)
        write_paths(train, want)
        assert out.getvalue() == want.getvalue()
        assert sum(scored_sequences(window, ["path_end"])["path_end"].values()) == pytest.approx(1)
        assert sum(half.total for half in split(window, 0.5, 1)) == 7

    def test_encoding_is_gathered_from_the_parent(self):
        ds = PathDataset([Path(("b", "c"), 2, 0), Path(("a",), 1, 5), Path(("c", "a", "c"), 3, 9)])
        labels, nodes, lengths, weights = ds.encoded
        window = rolling_windows(ds, 8, 4)[1].dataset  # starts 5 and 9, not 0
        assert window.paths == (ds.paths[0], ds.paths[2])
        assert window.encoded[0] is labels  # ids stay the corpus's
        assert window.encoded[1].tolist() == [0, 2, 0, 2]
        assert window.encoded[2].tolist() == [1, 3]
        assert window.encoded[3].tolist() == [1.0, 3.0]
        assert window.vocabulary == {"a", "c"} and window.total == 4
        assert fit_mogen(window, 2).states == fit_mogen(PathDataset(window.paths), 2).states


class TestRollingWindows:
    def _ds(self, times):
        return PathDataset([Path(("a", "b"), 1, t) for t in times])

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.builds(
                Path,
                st.sampled_from([("a",), ("a", "b"), ("b", "a"), ("a", "b", "c")]),
                st.integers(1, 4),
                st.integers(-40, 40),
            ),
            min_size=1,
            max_size=25,
        ),
        st.integers(1, 30),
        st.integers(1, 30),
    )
    @example([Path(("a", "b"), 1, t) for t in (-7, -7, 0, 5, 9, 20)], 10, 10)
    @example([Path(("a",), 2, t) for t in (-7, -1, 0, 13)] + [Path(("b", "a"), 1, 0)], 4, 6)
    @example([Path(("a", "b"), 1, t) for t in (-20, -3, 0, 14)] + [Path(("a", "b"), 2, 0)], 15, 4)
    def test_matches_scanning_oracle(self, paths, length, shift):
        ds = PathDataset(paths)
        got = rolling_windows(ds, length, shift)
        expected = _rolling_windows_oracle(ds, length, shift)
        assert [w.start for w in got] == [start for start, _ in expected]
        assert [w.empty for w in got] == [window is None for _, window in expected]
        for w, (_, window) in zip(got, expected):
            assert (w.dataset and w.dataset.paths) == (window and window.paths)

    def test_windows_keep_the_corpus_paths(self):
        ds = self._ds([0, 3, 9, 10, 14, 30])
        paths = set(ds.paths)
        windows = rolling_windows(ds, length=10, shift=5)
        assert all(p in paths for w in windows if not w.empty for p in w.dataset.paths)

    def test_window_membership_half_open(self):
        windows = rolling_windows(self._ds([0, 9, 10]), length=10, shift=10)
        assert windows[0].dataset.total == 2
        assert windows[1].dataset.total == 1

    def test_anchor_rounds_down_to_shift(self):
        windows = rolling_windows(self._ds([13, 27]), length=10, shift=10)
        assert windows[0].start == 10

    def test_empty_windows_kept(self):
        windows = rolling_windows(self._ds([0, 35]), length=10, shift=10)
        assert [w.empty for w in windows] == [False, True, True, False]

    def test_requires_timestamps(self):
        ds = PathDataset([Path(("a", "b"))])
        with pytest.raises(DataError):
            rolling_windows(ds, 10, 10)

    def test_overlapping_shift(self):
        windows = rolling_windows(self._ds([0, 5, 12]), length=10, shift=5)
        assert windows[0].dataset.total == 2
        assert windows[1].dataset.total == 2


class TestStats:
    def test_counts_include_multiplicity(self):
        ds = PathDataset([Path(("a", "b", "c"), 3), Path(("a", "b"), 1)])
        s = stats(ds)
        assert s.total_paths == 4
        assert s.unique_paths == 2
        assert s.mean_len == pytest.approx((3 * 3 + 2) / 4)
        assert s.median_len == 3
        assert s.n_nodes == 3
        assert s.n_links == 2  # (a,b) and (b,c)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 5), st.integers(0, 2)),
                    min_size=1, max_size=12))
    def test_length_statistics_match_expanded_list(self, spec):
        ds = PathDataset(Path(tuple(f"n{i}" for i in range(n)), m, t) for n, m, t in spec)
        expanded = [len(p) for p in ds.paths for _ in range(p.multiplicity)]
        s = stats(ds)
        assert s.total_paths == len(expanded)
        assert s.mean_len == sum(expanded) / len(expanded) == statistics.mean(expanded)
        median = statistics.median(expanded)
        assert s.median_len == median and type(s.median_len) is type(median)

    def test_huge_multiplicity_is_not_expanded(self):
        ds = PathDataset([Path(("a",)), Path(("a", "b"), 10**12), Path(("a", "b", "c"), 10**12 - 1)])
        s = stats(ds)
        assert s.total_paths == 2 * 10**12
        assert s.mean_len == (1 + 2 * 10**12 + 3 * (10**12 - 1)) / (2 * 10**12)
        assert s.median_len == 2.0 and isinstance(s.median_len, float)
        odd = stats(PathDataset([Path(("a",), 10**12), Path(("a", "b"), 10**12 + 1)]))
        assert odd.median_len == 2 and isinstance(odd.median_len, int)


_pad = st.sampled_from(["", " ", "\t", "  "])


@st.composite
def _path_file(draw):
    """A path file: padded labels and fields, '#' headers, blank lines, repeated
    keys, and rows with and without counts and start times."""
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["path"] * 4 + ["header", "blank"]))
        if kind == "header":
            lines.append("#" + draw(st.text("ab ,;#", max_size=6)))
        elif kind == "blank":
            lines.append(draw(_pad))
        else:
            nodes = draw(st.lists(st.sampled_from(["a", "b", "é", "x-1"]), min_size=1, max_size=4))
            line = ",".join(draw(_pad) + v + draw(_pad) for v in nodes)
            count = draw(st.none() | st.integers(1, 5).map(str))
            time = draw(st.none() | st.integers(-3, 3).map(str))
            if count is not None or time is not None:
                line += ";" + draw(_pad) + (count or "") + draw(_pad)
            if time is not None:
                line += ";" + draw(_pad) + time
            lines.append(line)
    lines += draw(st.lists(st.sampled_from(lines), max_size=3)) if lines else []
    return "".join(line + "\n" for line in lines)


def _triples(first, second):
    """``a,b,time`` lines, padded, with an optional header; times 0-8, so ties occur."""
    return st.tuples(
        st.lists(st.tuples(first, second, st.integers(0, 8)), min_size=1, max_size=30),
        st.booleans(), _pad)


def _assert_same_as_oracle(got, want):
    """Same paths, written bytes and statistics; ``write_paths`` and ``stats``
    read the columns, so neither builds the ``paths`` view."""
    written, expected = io.StringIO(), io.StringIO()
    write_paths(got, written)
    oracle.write_paths(want, expected)
    assert stats(got) == oracle.stats(want)
    assert "paths" not in got.__dict__
    assert written.getvalue() == expected.getvalue()
    assert got.paths == want.paths


class TestColumnOracles:
    """The column readers, writer and statistics equal the object-based ones."""

    @settings(max_examples=300, deadline=None)
    @given(_path_file())
    def test_path_files(self, text):
        try:
            want = oracle.parse_paths(io.StringIO(text))
        except DataError as error:
            with pytest.raises(DataError, match=f"^{re.escape(str(error))}$"):
                parse_paths(io.StringIO(text))
            return
        _assert_same_as_oracle(parse_paths(io.StringIO(text)), want)

    @settings(max_examples=300, deadline=None)
    @given(_triples(st.sampled_from("abc"), st.sampled_from("abc")), st.integers(1, 4))
    def test_edge_logs(self, triples, delta):
        # times 0-8 and delta 1-4: ties, self-loops and chains ending exactly delta apart
        rows, header, pad = triples
        text = "source,target,time\n" * header + "".join(f"{a},{pad}{b}{pad},{t}\n" for a, b, t in rows)
        got = extract_paths(read_temporal_edges(io.StringIO(text)), delta)
        _assert_same_as_oracle(got, oracle.extract_paths([TemporalEdge(*r) for r in rows], delta))

    @settings(max_examples=300, deadline=None)
    @given(_triples(st.sampled_from(["T-1", "T-2", "T-3"]), st.sampled_from(["ann", "bob", "eve"])))
    def test_action_logs(self, triples):
        rows, header, pad = triples
        text = "key,actor,time\n" * header + "".join(f"{pad}{k},{a},{pad}{t}\n" for k, a, t in rows)
        got = paths_from_actions(read_actions(io.StringIO(text)))
        _assert_same_as_oracle(got, oracle.paths_from_actions([ActionRecord(*r) for r in rows]))
