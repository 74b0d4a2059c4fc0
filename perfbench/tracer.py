"""In-memory span recorder for the benchmark's traced runs.

A *span* is one timed call at a layer boundary: ``(id, parent, name,
start_ns, end_ns)``.  Spans are kept in memory and written out once,
when the process ends.  Layers that are entered millions of times per
run (the cluster scan, the ready-queue reindex, policy selection) would
make a per-call record cost hundreds of megabytes, so those are
*rolled up*: each call adds its duration to a per-``(anchor, name,
parent name)`` total, where the anchor is the nearest recorded span.
A rolled-up layer may only contain other rolled-up layers, never a
recorded span.

Self time is a span's duration minus the part of it covered by its
child spans (:func:`covered_ns`); a rolled-up child covers its total
duration, because calls nested in one thread never overlap.

Forked worker processes (the sweep pool, the sweep service's workers)
inherit the wrappers.  :func:`install_fork_flush` resets the recorder in
each ``multiprocessing`` child and writes that child's spans to the
trace directory when the child exits, so no simulation is lost.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

#: CLOCK_MONOTONIC on Linux, so stamps compare across processes.
clock = time.perf_counter_ns

#: Root frame of every thread's stack: no anchor span, no parent name.
_ROOT = (0, "")


class Recorder:
    """Spans, roll-ups and plain counters for one process.

    Spans and samples may be appended from any thread.  Roll-ups and
    counters are read-modify-write without a lock: each one must only be
    written from one thread (the layers that feed them run on the thread
    that runs the simulation, or the sweep service's submitting thread).
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        #: Recorded spans: (id, parent id, name, start_ns, end_ns).
        self.spans: list[tuple[int, int, str, int, int]] = []
        #: (anchor id, name, parent name) -> [calls, total_ns].
        self.rollups: dict[tuple[int, str, str], list[int]] = {}
        #: Free-form counters (jobs started, bytes spilled, ...).
        self.counters: dict[str, float] = {}
        #: Per-counter maxima.
        self.maxima: dict[str, float] = {}
        #: Individual samples (e.g. delivery latencies in ms).
        self.samples: dict[str, list[float]] = {}
        self._ids = itertools.count(1)
        self._id_base = self.pid << 32
        self._local = threading.local()

    # -- stack ---------------------------------------------------------
    def _stack(self) -> list[tuple[int, str]]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = [_ROOT]
            return stack

    # -- wrappers ------------------------------------------------------
    def span(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """Wrap ``fn`` so every call is one recorded span."""
        stack_of = self._stack
        recorder = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            parent = stack[-1][0]
            sid = recorder._id_base + next(recorder._ids)
            stack.append((sid, name))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                recorder.spans.append((sid, parent, name, start, end))

        return traced

    def rollup(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """Wrap ``fn`` so calls accumulate into a per-anchor total."""
        stack_of = self._stack
        recorder = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            anchor, parent_name = stack[-1]
            stack.append((anchor, name))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                key = (anchor, name, parent_name)
                total = recorder.rollups.get(key)
                if total is None:
                    recorder.rollups[key] = [1, elapsed]
                else:
                    total[0] += 1
                    total[1] += elapsed

        return traced

    def add(self, counter: str, amount: float = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def peak(self, counter: str, value: float) -> None:
        if value > self.maxima.get(counter, -math.inf):
            self.maxima[counter] = value

    def sample(self, series: str, value: float) -> None:
        self.samples.setdefault(series, []).append(value)

    # -- export --------------------------------------------------------
    def dump(self) -> dict[str, Any]:
        return {
            "pid": self.pid,
            "spans": self.spans,
            "rollups": [[*key, *total] for key, total in self.rollups.items()],
            "counters": self.counters,
            "maxima": self.maxima,
            "samples": self.samples,
        }

    def write(self, directory: str | Path) -> Path:
        path = Path(directory) / f"spans-{self.pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.dump()))
        tmp.replace(path)
        return path


#: The process-wide recorder every wrapper in :mod:`layers` reports to.
RECORDER = Recorder()


def install_fork_flush(
    on_fork: Callable[[], None], on_exit: Callable[[], None]
) -> None:
    """Reset :data:`RECORDER` in every ``multiprocessing`` child, then
    run ``on_fork``; run ``on_exit`` (which writes the child's spans)
    when the child exits normally.

    ``multiprocessing`` clears its finalizer registry right after the
    fork and then runs the after-fork hooks, so the exit hook is
    registered from one of those.
    """
    from multiprocessing import util

    def after_fork(recorder: Recorder) -> None:
        recorder.reset()
        on_fork()
        util.Finalize(None, on_exit, exitpriority=100)

    util.register_after_fork(RECORDER, after_fork)


# ---------------------------------------------------------------------------
# Analysis helpers
# ---------------------------------------------------------------------------
def covered_ns(start: int, end: int, intervals: Iterable[tuple[int, int]]) -> int:
    """Length of the part of ``[start, end)`` covered by ``intervals``
    (their union, clipped to the window)."""
    inside = [(lo, hi) for lo, hi in intervals if hi > start and lo < end]
    clipped = sorted((max(lo, start), min(hi, end)) for lo, hi in inside)
    covered = 0
    cur_lo = cur_hi = None
    for lo, hi in clipped:
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered


def self_times(dump: dict[str, Any]) -> dict[str, float]:
    """Total self time in seconds per span name.

    A recorded span's self time is its duration minus the union of its
    recorded children's intervals minus its rolled-up children's totals;
    a roll-up's self time is its total minus its own rolled-up
    children's totals.  ``dump`` may hold the spans of several processes
    (see :meth:`Recorder.dump`): span ids never repeat across them.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for _sid, parent, _name, start, end in dump["spans"]:
        children.setdefault(parent, []).append((start, end))
    rolled_under: dict[tuple[int, str], int] = {}
    for anchor, _name, parent_name, _calls, total in dump["rollups"]:
        key = (anchor, parent_name)
        rolled_under[key] = rolled_under.get(key, 0) + total
    out: dict[str, float] = {}
    for sid, _parent, name, start, end in dump["spans"]:
        own = end - start
        own -= covered_ns(start, end, children.get(sid, ()))
        own -= rolled_under.get((sid, name), 0)
        out[name] = out.get(name, 0.0) + own / 1e9
    for anchor, name, _parent_name, _calls, total in dump["rollups"]:
        own = total - rolled_under.get((anchor, name), 0)
        out[name] = out.get(name, 0.0) + own / 1e9
    return out


#: Percentiles :func:`tail_percentile` may report, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile by linear interpolation (numpy's default)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_percentile(n_samples: int, min_beyond: int = 10) -> float | None:
    """The highest percentile in :data:`TAIL_CANDIDATES` with at least
    ``min_beyond`` of ``n_samples`` samples beyond it (None if even the
    median has fewer)."""
    for q in TAIL_CANDIDATES:
        at_or_below = math.ceil(round(n_samples * q / 100.0, 6))
        if n_samples - at_or_below >= min_beyond:
            return q
    return None
