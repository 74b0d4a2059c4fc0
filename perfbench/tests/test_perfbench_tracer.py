"""Unit tests for the benchmark's span recorder and its helpers."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tracer import (  # noqa: E402
    Recorder,
    covered_ns,
    percentile,
    self_times,
    tail_percentile,
)


@pytest.mark.parametrize(
    ("intervals", "expected"),
    [
        ([], 0),
        ([(10, 20)], 10),
        ([(10, 20), (30, 45)], 25),
        ([(10, 30), (20, 40)], 30),  # overlap counted once
        ([(10, 40), (15, 20)], 30),  # nested
        ([(10, 20), (20, 30)], 20),  # touching
        ([(-50, 10), (90, 500)], 20),  # clipped to the window
        ([(-50, -10), (100, 200)], 0),  # entirely outside
    ],
)
def test_covered_ns(intervals, expected):
    assert covered_ns(0, 100, intervals) == expected


def _dump(spans, rollups=()):
    return {"spans": spans, "rollups": [list(r) for r in rollups]}


def test_self_time_subtracts_the_union_of_children():
    dump = _dump(
        [
            (1, 0, "engine", 0, 100),
            (2, 1, "settle", 10, 30),
            (3, 1, "settle", 20, 40),
            (4, 0, "report", 200, 210),
        ]
    )
    own = self_times(dump)
    assert own["engine"] == pytest.approx(70e-9)  # 100 - |[10, 40)|
    assert own["settle"] == pytest.approx(40e-9)  # children keep full time
    assert own["report"] == pytest.approx(10e-9)


def test_self_time_of_rolled_up_layers():
    # anchor span 1 ("engine") holds 40 ns of "scan", which holds 15 ns
    # of "reindex"; 5 ns of "select" sit directly under the anchor.
    dump = _dump(
        [(1, 0, "engine", 0, 100)],
        [
            (1, "scan", "engine", 3, 40),
            (1, "reindex", "scan", 3, 15),
            (1, "select", "engine", 2, 5),
        ],
    )
    own = self_times(dump)
    assert own["engine"] == pytest.approx(55e-9)
    assert own["scan"] == pytest.approx(25e-9)
    assert own["reindex"] == pytest.approx(15e-9)
    assert own["select"] == pytest.approx(5e-9)


def test_self_times_sum_over_spans_of_one_name():
    dump = _dump([(1, 0, "engine", 0, 10), (7, 0, "engine", 5, 25)])
    assert self_times(dump)["engine"] == pytest.approx(30e-9)


def test_recorder_links_parents_and_rolls_up_hot_calls():
    recorder = Recorder()

    def leaf(x):
        return x + 1

    hot = recorder.rollup(leaf, "hot")

    def inner():
        return sum(hot(i) for i in range(3))

    traced_inner = recorder.span(inner, "inner")
    outer = recorder.span(lambda: traced_inner(), "outer")

    assert outer() == 6
    inner_span, outer_span = recorder.spans  # inner closes first
    assert inner_span[2] == "inner" and outer_span[2] == "outer"
    assert inner_span[1] == outer_span[0]
    assert outer_span[1] == 0
    assert outer_span[3] <= inner_span[3] <= inner_span[4] <= outer_span[4]
    assert len(recorder.rollups) == 1
    key, (calls, total_ns) = next(iter(recorder.rollups.items()))
    assert key == (inner_span[0], "hot", "inner")
    assert calls == 3 and total_ns >= 0
    own = self_times(recorder.dump())
    assert set(own) == {"outer", "inner", "hot"}
    assert all(v >= 0 for v in own.values())


def test_recorder_keeps_spans_when_the_call_raises():
    recorder = Recorder()

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        recorder.span(boom, "boom")()
    assert [s[2] for s in recorder.spans] == ["boom"]
    # the stack unwound: the next span is a root again
    recorder.span(lambda: None, "next")()
    assert recorder.spans[-1][1] == 0


def test_percentile_interpolates_like_numpy():
    values = [4.0, 1.0, 3.0, 2.0, 5.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 5.0
    assert percentile(values, 90) == pytest.approx(4.6)
    assert percentile([7.0], 95) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize(
    ("n", "expected"),
    [
        (19, None),
        (20, 50.0),
        (99, 75.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (400, 95.0),
        (1000, 99.0),
        (10_000, 99.9),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
