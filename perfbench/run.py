"""End-to-end benchmark of the ``repro`` CLI.

    python3 perfbench/run.py --workload {study,trace,sweep} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Every measured run is a fresh process
going through the command a user runs (``repro simulate``, ``repro
trace`` or ``repro sweep serve``); see ``perfbench/README.md`` for the
workloads and metrics.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".bench_build" / "perfbench"
sys.path.insert(0, str(HERE))

from tracer import percentile, tail_percentile  # noqa: E402

#: ``repro simulate`` scale: 2 x 14000 jobs per simulation, deep queues.
STUDY_SCALE = 14_000
#: ``repro simulate`` seeds per run.  Queue depth, and with it the run
#: time, varies from seed to seed, so each run measures three commands
#: and reports their mean (their total work over three).
STUDY_SEEDS = 3
#: Jobs in the synthetic SWF trace the ``trace`` workload replays.
TRACE_JOBS = 250_000
#: ``repro sweep serve`` grid scale and the resubmits per session.
SWEEP_SCALE = 6_000
RESUBMITS = 200
#: The ``repro tiers`` grid: policies x all five methods.
SWEEP_POLICIES = ["LargestFirst", "Greedy"]
SWEEP_METHODS = ["Runtime", "Energy", "Peak", "EBA", "CBA"]
SUPERSET_SCENARIO = "tiered:frac=0.2,sigma=2.5"
#: Set-up samples per run (measured processes count towards it).
SETUP_SAMPLES = 3
#: Sweep workers and pool size: no more than the machine's 2 cores.
JOBS = "2"

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "sim_jobs_per_s": "jobs/s",
    "peak_rss_mb": "MiB",
}


#: What one measured process (or sweep session) reports.
Unit = dict[str, Any]


def child_env() -> dict[str, str]:
    """The measured process's environment: the checkout's sources, and
    none of the ``REPRO_*`` knobs that would change what is measured."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Run:
    """One benchmark invocation: scratch space, checks, samples."""

    def __init__(self, seed: int, seconds: float, tmp: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.tmp = tmp
        self.attempted = 0
        self.failures: list[str] = []
        self.setup: list[float] = []
        self._n = 0

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def fresh(self, stem: str) -> Path:
        self._n += 1
        return self.tmp / f"{stem}-{self._n}"

    def child(
        self, argv: list[str], trace_dir: Path | None = None, setup_only: bool = False
    ) -> Unit:
        """Run ``repro <argv>`` in a fresh measured process."""
        out = self.fresh("child.json")
        cmd = [sys.executable, str(HERE / "child.py"), "--out", str(out)]
        if trace_dir is not None:
            cmd += ["--trace-dir", str(trace_dir)]
        if setup_only:
            cmd.append("--setup-only")
        spawned = time.perf_counter_ns()
        proc = subprocess.run(
            [*cmd, "--", *argv],
            env=child_env(),
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"repro {argv[0]} failed:\n{proc.stderr[-4000:]}")
        data = json.loads(out.read_text())
        data["argv"] = argv
        data["setup_s"] = (data["t_ready_ns"] - spawned) / 1e9
        if "t_end_ns" in data:
            data["run_s"] = (data["t_end_ns"] - data["t_ready_ns"]) / 1e9
        self.setup.append(data["setup_s"])
        return data

    def repeat(self, cycle: Callable[[], list[Unit]]) -> list[Unit]:
        """Run one ``cycle`` of units, then more whole cycles while
        another fits in ``seconds``: every run measures the same inputs."""
        start = time.perf_counter()
        units: list[Unit] = []
        while True:
            began = time.perf_counter()
            units += cycle()
            took = time.perf_counter() - began
            if time.perf_counter() - start + took > self.seconds:
                return units

    def absorb(self, unit: Unit, label: str) -> None:
        """Count a measured process's own output checks."""
        self.attempted += unit["checks_attempted"]
        self.failures += [f"{label}: {what}" for what in unit["checks_failed"]]

    def same_as_before(self, key: str, digest: str, what: str) -> None:
        """Check ``digest`` against the one an earlier run of this
        checkout recorded under ``key`` (recorded now if first)."""
        STATE.mkdir(parents=True, exist_ok=True)
        path = STATE / f"{key}.sha256"
        if not path.exists():
            tmp = self.fresh("digest")
            tmp.write_text(digest)
            tmp.replace(path)
        self.expect(path.read_text() == digest, what)


def median_of(units: list[Unit], key: str) -> float:
    return statistics.median(u[key] for u in units)


def collect_dumps(trace_dir: Path) -> list[dict[str, Any]]:
    return [json.loads(p.read_text()) for p in trace_dir.glob("spans-*.json")]


# ---------------------------------------------------------------------------
# study: repro simulate at a deep-queue scale
# ---------------------------------------------------------------------------
def study(run: Run, traced: bool) -> tuple[dict[str, float], list[str]]:
    def unit(seed: int) -> Unit:
        argv = ["simulate", "--scale", str(STUDY_SCALE), "--seed", str(seed)]
        argv += ["--jobs", JOBS]
        done = measured_command(run, argv, f"study-{STUDY_SCALE}-{seed}")
        run.expect(done["jobs"] == 16 * 2 * STUDY_SCALE, "16 simulations settled")
        return done

    seeds = [STUDY_SEEDS * run.seed + i for i in range(STUDY_SEEDS)]
    if traced:
        return traced_metrics(run, unit(seeds[0]), "study"), []
    units = run.repeat(lambda: [unit(seed) for seed in seeds])
    notes = [
        f"seed {seed:>6}  paper_gap.{name:<16} {gap:12.6f} %"
        for seed, done in zip(seeds, units)
        for name, gap in done["paper_gap"].items()
    ]
    return command_metrics(run, units), notes


def measured_command(run: Run, argv: list[str], key: str) -> Unit:
    unit = run.child(argv)
    run.absorb(unit, key)
    digest = unit["report_sha256"]
    run.same_as_before(key, digest, f"{key} report identical across runs")
    return unit


def command_metrics(run: Run, units: list[Unit]) -> dict[str, float]:
    while len(run.setup) < SETUP_SAMPLES:
        run.child(units[0]["argv"], setup_only=True)
    jobs = sum(u["jobs"] for u in units)
    return {
        "setup_s": statistics.median(run.setup),
        "run_s": statistics.fmean(u["run_s"] for u in units),
        "sim_jobs_per_s": jobs / sum(u["sim_s"] for u in units),
        "peak_rss_mb": median_of(units, "peak_rss_mb"),
    }


def traced_metrics(run: Run, reference: Unit, name: str) -> dict[str, float]:
    """Re-run ``reference``'s command with every layer wrapped."""
    import layers

    trace_dir = run.fresh("spans")
    trace_dir.mkdir()
    unit = run.child(reference["argv"], trace_dir=trace_dir)
    run.absorb(unit, f"traced {name}")
    run.expect(
        unit["report_sha256"] == reference["report_sha256"],
        f"traced {name} report identical to the untraced one",
    )
    metrics = layers.per_layer_metrics(collect_dumps(trace_dir), {})
    metrics["proc.import_s"] = (unit["t_ready_ns"] - unit["t_start_ns"]) / 1e9
    metrics["trace.overhead_s"] = unit["run_s"] - reference["run_s"]
    return metrics


# ---------------------------------------------------------------------------
# trace: streamed SWF replay with spilled outcomes
# ---------------------------------------------------------------------------
def trace(run: Run, traced: bool) -> tuple[dict[str, float], list[str]]:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.sim.swf import write_synthetic_swf

    swf = run.fresh("trace.swf")
    write_synthetic_swf(swf, n_jobs=TRACE_JOBS, seed=run.seed)

    def argv() -> list[str]:
        spill = str(run.fresh("spill"))
        cmd = ["trace", str(swf), "--method", "EBA", "--policy", "EFT"]
        return cmd + ["--spill-dir", spill, "--seed", str(run.seed)]

    def unit() -> Unit:
        done = measured_command(run, argv(), f"trace-{TRACE_JOBS}-{run.seed}")
        run.expect(done["jobs"] == TRACE_JOBS, "every trace record settled")
        return done

    if traced:
        return traced_metrics(run, unit(), "trace"), []
    units = run.repeat(lambda: [unit()])
    notes = [f"shards {units[0]['shards']}  spilled {units[0]['spill_bytes']} B"]
    return command_metrics(run, units), notes


# ---------------------------------------------------------------------------
# sweep: a closed-loop client of repro sweep serve
# ---------------------------------------------------------------------------
class Server:
    """One ``repro sweep serve`` process and its JSON-lines channel."""

    def __init__(self, run: Run, store: Path, trace_dir: Path | None) -> None:
        self.out = run.fresh("server.json")
        cmd = [sys.executable, str(HERE / "child.py"), "--out", str(self.out)]
        if trace_dir is not None:
            cmd += ["--trace-dir", str(trace_dir)]
        spawned = time.perf_counter_ns()
        self.proc = subprocess.Popen(
            [*cmd, "--", "sweep", "serve", "--jobs", JOBS, "--store", str(store)],
            env=child_env(),
            cwd=ROOT,
            text=True,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        ready = self.read()
        if ready.get("event") != "ready":
            raise RuntimeError(f"sweep serve did not start: {ready}")
        self.ready_ns = time.perf_counter_ns()
        run.setup.append((self.ready_ns - spawned) / 1e9)

    def read(self) -> dict[str, Any]:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("sweep serve closed its output")
        return json.loads(line)

    def send(self, request: dict[str, Any]) -> None:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()

    def sweep(self, request: dict[str, Any]) -> tuple[list[str], Unit, float]:
        """Submit one grid; returns (result lines, sweep-done, seconds)."""
        start = time.perf_counter()
        self.send({"op": "sweep", **request})
        lines = []
        while True:
            event = self.read()
            kind = event.get("event")
            if kind == "result":
                lines.append(json.dumps(event, sort_keys=True))
            elif kind == "sweep-done":
                return sorted(lines), event, time.perf_counter() - start
            else:
                raise RuntimeError(f"sweep serve answered {event}")

    def close(self) -> Unit:
        self.send({"op": "shutdown"})
        bye = self.read()
        self.proc.stdin.close()
        rc = self.proc.wait(timeout=120)
        self.proc.stdout.close()
        if bye.get("event") != "bye" or rc != 0:
            raise RuntimeError(f"sweep serve shut down badly: {bye}, rc {rc}")
        return json.loads(self.out.read_text())

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def grid(run: Run, scenarios: list[str]) -> dict[str, Any]:
    return {
        "scenarios": scenarios,
        "policies": SWEEP_POLICIES,
        "methods": SWEEP_METHODS,
        "scales": [SWEEP_SCALE],
        "seeds": [2 * run.seed, 2 * run.seed + 1],
    }


def session(run: Run, trace_dir: Path | None) -> Unit:
    """Cold grid, restart, resubmits, superset — on one fresh store."""
    store = run.fresh("store")
    cold_grid = grid(run, ["tiered"])
    n_cold = len(SWEEP_POLICIES) * len(SWEEP_METHODS) * 2
    servers: list[Server] = []
    try:
        servers.append(Server(run, store, trace_dir))
        start_ns = servers[0].ready_ns
        cold, done, cold_s = servers[0].sweep(cold_grid)
        run.expect(done["computed"] == n_cold, "cold grid computed in full")
        finals = [done["stats"]]
        closed = [servers[0].close()]

        servers.append(Server(run, store, trace_dir))
        latencies = []
        for _ in range(RESUBMITS):
            lines, done, took = servers[1].sweep(cold_grid)
            latencies.append(took * 1e3)
            run.expect(lines == cold, "resubmit lines identical to the cold lines")
            run.expect(done["from_store"] == n_cold, "resubmit served from the store")
        superset, done, delta_s = servers[1].sweep(
            grid(run, ["tiered", SUPERSET_SCENARIO])
        )
        end_ns = time.perf_counter_ns()
        run.expect(done["computed"] == n_cold, "superset computes only the delta")
        run.expect(set(cold) <= set(superset), "superset repeats the cold lines")
        finals.append(done["stats"])
        closed.append(servers[1].close())
    finally:
        for server in servers:
            server.kill()
    delta = set(superset) - set(cold)
    delta_jobs = sum(json.loads(line)["n_jobs"] for line in delta)
    cold_jobs = sum(json.loads(line)["n_jobs"] for line in cold)
    run.same_as_before(
        f"sweep-{SWEEP_SCALE}-{2 * run.seed}-{2 * run.seed + 1}",
        hashlib.sha256("\n".join(cold).encode()).hexdigest(),
        "cold grid identical across runs",
    )
    return {
        "run_s": (end_ns - start_ns) / 1e9,
        "sim_jobs_per_s": (cold_jobs + delta_jobs) / (cold_s + delta_s),
        "peak_rss_mb": max(c["peak_rss_mb"] for c in closed),
        "import_s": [(c["t_ready_ns"] - c["t_start_ns"]) / 1e9 for c in closed],
        "latencies": latencies,
        "stats": finals,
    }


def service_counters(stats: list[dict[str, Any]]) -> dict[str, float]:
    """Service and store counters summed over the session's servers."""
    keys = ("submitted", "computed", "from_store", "retries", "worker_restarts")
    out: dict[str, float] = {k: sum(s[k] for s in stats) for k in keys}
    out["store_bytes"] = stats[-1]["store"]["bytes"]
    out["store_corrupt"] = sum(s["store"]["corrupt"] for s in stats)
    return out


def sweep(run: Run, traced: bool) -> tuple[dict[str, float], list[str]]:
    if traced:
        import layers

        reference = session(run, None)
        trace_dir = run.fresh("spans")
        trace_dir.mkdir()
        unit = session(run, trace_dir)
        metrics = layers.per_layer_metrics(
            collect_dumps(trace_dir), service_counters(unit["stats"])
        )
        metrics["proc.import_s"] = statistics.median(unit["import_s"])
        metrics["trace.overhead_s"] = unit["run_s"] - reference["run_s"]
        return metrics, []
    units = run.repeat(lambda: [session(run, None)])
    while len(run.setup) < SETUP_SAMPLES:
        probe = Server(run, run.fresh("store"), None)
        try:
            probe.close()
        finally:
            probe.kill()
    latencies = [x for u in units for x in u["latencies"]]
    tail = tail_percentile(len(latencies))
    notes = [
        f"resubmit_p50_ms     {percentile(latencies, 50):12.4f} ms",
        f"resubmit_p{tail:g}_ms    {percentile(latencies, tail):12.4f} ms"
        f"  ({len(latencies)} samples)",
    ]
    return {
        "setup_s": statistics.median(run.setup),
        "run_s": statistics.fmean(u["run_s"] for u in units),
        "sim_jobs_per_s": statistics.fmean(u["sim_jobs_per_s"] for u in units),
        "peak_rss_mb": median_of(units, "peak_rss_mb"),
    }, notes


WORKLOADS = {"study": study, "trace": trace, "sweep": sweep}


def layer_unit(name: str) -> str:
    if name.endswith("_ms") or name.endswith("_ms_p50"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith("yield"):
        return "jobs/call"
    if name.endswith(("ratio", "efficiency")):
        return "fraction"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    STATE.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=STATE))
    try:
        run = Run(args.seed, args.seconds, tmp)
        metrics, notes = WORKLOADS[args.workload](run, bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for line in notes:
        print(line)
    report = {}
    for name, value in metrics.items():
        unit = layer_unit(name) if args.trace else END_TO_END[name]
        print(f"{name:<32} {value:16.6f} {unit}")
        report[name] = {"value": value, "unit": unit}
    for failure in run.failures:
        print(f"FAILED: {failure}")
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": report,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
