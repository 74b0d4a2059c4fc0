"""Wrap the public functions of each simulator layer with spans.

Nothing under ``src/`` is edited: :func:`install` replaces class
attributes and module-level functions at run time, in the measured
process, after the command's modules are imported and before the
command runs.  Forked workers inherit the wrappers (see
:func:`tracer.install_fork_flush`).

:func:`per_layer_metrics` turns the spans of every process of one
traced run into the per-layer metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Any, Callable, Sequence

from tracer import RECORDER, clock, install_fork_flush, percentile, self_times

R = RECORDER
Wrap = Callable[[Any], Any]


# ---------------------------------------------------------------------------
# Patching helpers
# ---------------------------------------------------------------------------
def _patch_method(cls: type, attr: str, make: Wrap) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))


def _patch_function(module: Any, attr: str, make: Wrap) -> None:
    """Replace ``module.attr`` and every ``from module import attr``
    copy held by an already-imported ``repro`` module."""
    original = getattr(module, attr)
    wrapped = make(original)
    for name, mod in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)


def _span(name: str) -> Wrap:
    return lambda fn: R.span(fn, name)


def _rollup(name: str) -> Wrap:
    return lambda fn: R.rollup(fn, name)


def _counted(counter: str) -> Wrap:
    def make(fn: Any) -> Any:
        def counted(*args: Any, **kwargs: Any) -> Any:
            R.add(counter)
            return fn(*args, **kwargs)

        return counted

    return make


# ---------------------------------------------------------------------------
# Layer-specific wrappers (their counters sit outside the timed call)
# ---------------------------------------------------------------------------
def _scan(fn: Any) -> Any:
    timed = R.rollup(fn, "cluster.scan")

    def startable(self: Any, now: float) -> Any:
        depth = len(self._ready)
        R.add("cluster.queue_depth_sum", depth)
        R.peak("cluster.queue_depth_max", depth)
        started = timed(self, now)
        R.add("cluster.jobs_started", len(started))
        return started

    return startable


def _pop(fn: Any) -> Any:
    def pop(self: Any) -> Any:
        event = fn(self)
        if event is not None:
            R.add("events.popped")
        return event

    return pop


def _chunks(fn: Any) -> Any:
    def chunks(self: Any) -> Any:
        source = fn(self)
        pull = R.span(lambda: next(source, None), "swf.ingest")
        while True:
            chunk = pull()
            if chunk is None:
                return
            R.add("swf.chunks")
            yield chunk

    return chunks


def _settle(fn: Any) -> Any:
    timed = R.span(fn, "pricing.settle")

    def settle(self: Any, finished: Any) -> Any:
        R.add("pricing.settled_jobs", len(finished))
        return timed(self, finished)

    return settle


def _spill(fn: Any) -> Any:
    timed = R.span(fn, "spill.append")

    def append(self: Any, table: Any) -> None:
        before = self.spilled_bytes
        timed(self, table)
        R.add("spill.bytes", self.spilled_bytes - before)

    return append


def _sweep_run(fn: Any) -> Any:
    timed = R.span(fn, "sweep.run")

    def run(self: Any, tasks: Any) -> Any:
        R.peak("sweep.workers", min(self.workers, len(tasks)))
        return timed(self, tasks)

    return run


def _store_get(fn: Any) -> Any:
    timed = R.span(fn, "store.get")

    def get(self: Any, key: str) -> Any:
        result = timed(self, key)
        R.add("store.gets")
        R.add("store.hits" if result is not None else "store.misses")
        return result

    return get


def _submission_init(fn: Any) -> Any:
    def __init__(self: Any, tasks: Any) -> None:
        fn(self, tasks)
        self._perfbench_t0 = clock()

    return __init__


def _deliver(fn: Any) -> Any:
    def _deliver(self: Any, task: Any, result: Any, from_store: bool) -> None:
        fn(self, task, result, from_store)
        R.sample("service.delivery_ms", (clock() - self._perfbench_t0) / 1e6)

    return _deliver


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------
def _count_quote_cache(sign: int) -> None:
    """Add (``sign=1``) or take away (``sign=-1``) the process-wide
    quote-cache counters: taken away where a process starts recording,
    added back when it finishes, they leave that process's traffic."""
    from repro.sim.sweep import quote_table_cache_stats

    stats = quote_table_cache_stats()
    R.add("pricing.quote_cache_hits", sign * stats.hits)
    R.add("pricing.quote_cache_misses", sign * stats.misses)


def finish(directory: str | Path) -> None:
    """Record this process's quote-cache traffic and write its spans."""
    _count_quote_cache(1)
    R.write(directory)


def install(directory: str | Path) -> None:
    """Wrap every traced layer; forked children flush to ``directory``."""
    import repro.experiments._simulation as simulation
    import repro.reporting as reporting
    import repro.sim.workload as workload
    from repro.accounting.pricing import (
        PricingKernel,
        QuoteTable,
        ShardedPricingKernel,
    )
    from repro.accounting.spill import OutcomeSpillStore
    from repro.sim.cluster import ClusterSim
    from repro.sim.engine import (
        MultiClusterSimulator,
        SimulationResult,
        StreamingSimulationResult,
    )
    from repro.sim.events import EventCalendar, ReadyQueue
    from repro.sim.policies import Policy
    from repro.sim.result_store import ResultStore
    from repro.sim.sweep import SweepRunner
    from repro.sim.sweep_service import SweepSubmission

    _count_quote_cache(-1)
    install_fork_flush(
        on_fork=lambda: _count_quote_cache(-1), on_exit=lambda: finish(directory)
    )

    generator = workload.PatelWorkloadGenerator
    _patch_method(generator, "generate", _span("workload.generate"))
    _patch_function(workload, "inject_stragglers", _span("workload.stragglers"))
    _patch_method(workload.StreamingWorkload, "chunks", _chunks)

    _patch_method(QuoteTable, "build", _span("pricing.quote_build"))
    _patch_method(ShardedPricingKernel, "load_chunk", _span("pricing.shard_build"))
    _patch_method(PricingKernel, "price_outcomes", _settle)
    _patch_method(ShardedPricingKernel, "price_block", _settle)

    _patch_method(ClusterSim, "startable", _scan)
    _patch_method(ReadyQueue, "reindex", _rollup("events.reindex"))
    _patch_method(EventCalendar, "pop", _pop)
    pending = list(Policy.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "select" in cls.__dict__:
            _patch_method(cls, "select", _rollup("policies.select"))

    _patch_method(MultiClusterSimulator, "run", _span("engine.run"))
    _patch_method(OutcomeSpillStore, "append", _spill)

    _patch_method(SweepRunner, "run", _sweep_run)
    _patch_method(SweepRunner, "run_task", _span("sweep.task"))
    _patch_method(SweepSubmission, "__init__", _submission_init)
    _patch_method(SweepSubmission, "_deliver", _deliver)
    _patch_method(ResultStore, "get", _store_get)
    _patch_method(ResultStore, "put", _span("store.put"))

    for search in ("greedy_budget", "budget_matching_work"):
        _patch_function(simulation, search, _span("report.budget_search"))
    budget_calls = _counted("report.work_with_budget_calls")
    for cls in (SimulationResult, StreamingSimulationResult):
        _patch_method(cls, "work_with_budget", budget_calls)
    _patch_function(reporting, "fleet_report", _span("report.fleet_report"))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
def merge(dumps: Sequence[dict[str, Any]]) -> dict[str, Any]:
    """One dump for every process of a run (span ids are unique across
    processes: they carry the pid)."""
    merged: dict[str, Any] = {
        "spans": [],
        "rollups": [],
        "counters": {},
        "maxima": {},
        "samples": {},
    }
    for dump in dumps:
        merged["spans"] += dump["spans"]
        merged["rollups"] += dump["rollups"]
        for key, value in dump["counters"].items():
            merged["counters"][key] = merged["counters"].get(key, 0) + value
        for key, value in dump["maxima"].items():
            merged["maxima"][key] = max(merged["maxima"].get(key, value), value)
        for key, values in dump["samples"].items():
            merged["samples"].setdefault(key, []).extend(values)
    return merged


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    dumps: Sequence[dict[str, Any]], service: dict[str, float]
) -> dict[str, float]:
    """Every per-layer metric from one traced run.

    ``dumps`` holds one recorder dump per process of the run; ``service``
    holds the sweep-service counters the client read off ``sweep-done``
    events (empty for other workloads).  A layer the workload does not
    reach reads 0.
    """
    run = merge(dumps)
    count = run["counters"]
    peak = run["maxima"]
    own = self_times(run)

    def spans(name: str) -> list[tuple[int, int, int, int]]:
        return [(s[0], s[1], s[3], s[4]) for s in run["spans"] if s[2] == name]

    def total_s(name: str) -> float:
        return sum(end - start for _, _, start, end in spans(name)) / 1e9

    def rolled(name: str) -> tuple[int, float]:
        hits = [r for r in run["rollups"] if r[1] == name]
        return sum(r[3] for r in hits), sum(r[4] for r in hits) / 1e9

    shard_ids = {sid for sid, _, _, _ in spans("pricing.shard_build")}
    quote_builds = [s for s in spans("pricing.quote_build") if s[1] not in shard_ids]
    scan_calls, _ = rolled("cluster.scan")
    reindex_calls, reindex_s = rolled("events.reindex")
    select_calls, select_s = rolled("policies.select")
    started = count.get("cluster.jobs_started", 0)
    quote_hits = count.get("pricing.quote_cache_hits", 0)
    quote_lookups = quote_hits + count.get("pricing.quote_cache_misses", 0)
    tasks = spans("sweep.task")
    sweep_s = total_s("sweep.run")
    sweep_slots = peak.get("sweep.workers", 0) * sweep_s
    critical_s = max((end - start for *_, start, end in tasks), default=0) / 1e9
    store_gets = count.get("store.gets", 0)
    delivery = run["samples"].get("service.delivery_ms", [])
    return {
        "workload.generate_s": total_s("workload.generate"),
        "workload.stragglers_s": total_s("workload.stragglers"),
        "swf.ingest_s": total_s("swf.ingest"),
        "swf.chunks": count.get("swf.chunks", 0),
        "pricing.quote_build_s": sum(s[3] - s[2] for s in quote_builds) / 1e9,
        "pricing.quote_builds": len(quote_builds),
        "pricing.shard_build_s": total_s("pricing.shard_build"),
        "pricing.shards_built": len(shard_ids),
        "pricing.quote_cache_hit_ratio": _ratio(quote_hits, quote_lookups),
        "pricing.settle_s": total_s("pricing.settle"),
        "pricing.settled_jobs": count.get("pricing.settled_jobs", 0),
        "cluster.scan_calls": scan_calls,
        "cluster.scan_s": own.get("cluster.scan", 0.0),
        "cluster.jobs_started": started,
        "cluster.start_yield": _ratio(started, scan_calls),
        "cluster.queue_depth_max": peak.get("cluster.queue_depth_max", 0),
        "cluster.queue_depth_sum": count.get("cluster.queue_depth_sum", 0),
        "events.reindex_calls": reindex_calls,
        "events.reindex_s": reindex_s,
        "events.popped": count.get("events.popped", 0),
        "policies.select_calls": select_calls,
        "policies.select_s": select_s,
        "engine.runs": len(spans("engine.run")),
        "engine.run_s": total_s("engine.run"),
        "engine.self_s": own.get("engine.run", 0.0),
        "spill.append_s": total_s("spill.append"),
        "spill.bytes": count.get("spill.bytes", 0),
        "sweep.run_s": sweep_s,
        "sweep.critical_task_s": critical_s,
        "sweep.parallel_efficiency": _ratio(total_s("engine.run"), sweep_slots),
        "service.submits": service.get("submitted", 0),
        "service.computed": service.get("computed", 0),
        "service.from_store": service.get("from_store", 0),
        "service.retries": service.get("retries", 0),
        "service.restarts": service.get("worker_restarts", 0),
        "service.delivery_ms_p50": percentile(delivery, 50) if delivery else 0.0,
        "store.gets": store_gets,
        "store.get_s": total_s("store.get"),
        "store.puts": len(spans("store.put")),
        "store.put_s": total_s("store.put"),
        "store.hit_ratio": _ratio(count.get("store.hits", 0), store_gets),
        "store.bytes": service.get("store_bytes", 0),
        "store.corrupt": service.get("store_corrupt", 0),
        "report.budget_search_s": total_s("report.budget_search"),
        "report.work_with_budget_calls": count.get("report.work_with_budget_calls", 0),
        "report.fleet_report_s": total_s("report.fleet_report"),
    }
