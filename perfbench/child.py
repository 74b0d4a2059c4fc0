"""The measured process: one fresh interpreter running one ``repro`` command.

    python perfbench/child.py --out FILE [--trace-dir DIR] [--setup-only] \
        -- <repro arguments>

It stamps the clock on its first line, imports the command's modules,
stamps again (set-up done), runs ``repro.cli.main`` on the arguments and
stamps a third time.  Output checks run after the last stamp, outside
the timed region.  Everything it learns goes to ``FILE`` as JSON; for
``sweep serve`` stdin/stdout stay the service's JSON-lines channel.

With ``--trace-dir`` the layer wrappers of :mod:`layers` are installed
before the command runs, and every process of the run writes its spans
into that directory.
"""

from __future__ import annotations

import time

T_START = time.perf_counter_ns()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

#: Modules each command imports before it does any work.
COMMAND_MODULES = {
    "simulate": (
        "repro.experiments.fig5_eba_simulation",
        "repro.experiments.table6_policy_impact",
        "repro.experiments.fig6_cba_simulation",
    ),
    "trace": ("repro.experiments._simulation", "repro.reporting"),
    "sweep": ("repro.experiments._simulation", "repro.sim.sweep_service"),
}

#: Paper reference values the ``paper_gap.*`` figures compare against.
PAPER = {
    "greedy_eft_work": 1.28,  # Fig. 5a, Greedy / EFT work
    "eft_energy": 1.51,  # Table 6, EFT / Energy energy
    "runtime_energy": 1.56,  # Table 6, Runtime / Energy energy
    "faster_share": 11.0,  # Fig. 6, % of Greedy-CBA jobs on FASTER
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Stopwatch:
    """Wall time spent inside one wrapped callable (summed over calls)
    plus the values it returned."""

    def __init__(self, owner: object, attr: str) -> None:
        self.total_ns = 0
        self.returned: list[object] = []
        inner = getattr(owner, attr)

        def timed(*args: object, **kwargs: object) -> object:
            start = time.perf_counter_ns()
            try:
                out = inner(*args, **kwargs)
            finally:
                self.total_ns += time.perf_counter_ns() - start
            self.returned.append(out)
            return out

        setattr(owner, attr, timed)


class Checks:
    """Named pass/fail output checks, recorded outside the timed region."""

    def __init__(self) -> None:
        self.failed: list[str] = []
        self.attempted = 0

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(what)


def _rel_close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def check_study(argv: list[str], checks: Checks) -> dict[str, object]:
    """The 16 results of ``repro simulate`` and the paper gaps."""
    import numpy as np

    from repro.experiments import fig5_eba_simulation, table6_policy_impact
    from repro.experiments._simulation import policy_sweep

    scale = int(argv[argv.index("--scale") + 1])
    seed = int(argv[argv.index("--seed") + 1])
    jobs = 0
    for method in ("EBA", "CBA"):
        results = policy_sweep("baseline", method, scale, seed)
        checks.expect(len(results) == 8, f"{method}: 8 policies")
        for policy, result in results.items():
            n = result.n_jobs
            jobs += n
            checks.expect(n == 2 * scale, f"{method}/{policy}: settles 2*scale jobs")
            unique = len(np.unique(result.table.job_id))
            checks.expect(unique == n, f"{method}/{policy}: each job settled once")
            balances = sum(result.user_balances().values())
            checks.expect(
                _rel_close(balances, result.total_cost()),
                f"{method}/{policy}: user balances sum to total cost",
            )

    works = fig5_eba_simulation.work_with_fixed_allocation(scale, seed)
    rows = {row.policy: row for row in table6_policy_impact.run(scale, seed)}
    dist = policy_sweep("baseline", "CBA", scale, seed)["Greedy"].machine_distribution()
    here = {
        "greedy_eft_work": works["Greedy"] / works["EFT"],
        "eft_energy": rows["EFT"].energy_mwh / rows["Energy"].energy_mwh,
        "runtime_energy": rows["Runtime"].energy_mwh / rows["Energy"].energy_mwh,
        "faster_share": 100.0 * dist.get("FASTER", 0) / sum(dist.values()),
    }
    return {
        "jobs": jobs,
        "paper_gap": {k: 100.0 * abs(here[k] / PAPER[k] - 1.0) for k in PAPER},
        "paper_here": here,
    }


def check_trace(argv: list[str], result: object, checks: Checks) -> dict[str, object]:
    """The streamed replay: every trace record settled, shards balanced,
    spilled blocks complete."""
    trace_path = Path(argv[1])
    with trace_path.open() as fh:
        records = sum(1 for line in fh if line.strip() and not line.startswith(";"))
    n = result.n_jobs
    checks.expect(n == records, "n_jobs equals the trace length")
    shards = result.shard_stats
    checks.expect(shards["built"] == shards["retired"], "every shard retired")
    checks.expect(shards["peak_live"] <= 2, "at most 2 shards live at once")
    spilled = sum(len(block) for block in result.store.blocks())
    checks.expect(spilled == n, "spilled blocks sum to n_jobs")
    checks.expect(
        _rel_close(sum(result.user_balances().values()), result.total_cost()),
        "user balances sum to total cost",
    )
    return {"jobs": n, "shards": shards, "spill_bytes": result.store.spilled_bytes}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = [a for a in args.argv if a != "--"]
    command = argv[0]

    import importlib

    import repro.cli

    for module in COMMAND_MODULES[command]:
        importlib.import_module(module)
    out: dict[str, object] = {"t_start_ns": T_START}
    out["t_ready_ns"] = time.perf_counter_ns()
    if args.setup_only:
        Path(args.out).write_text(json.dumps(out))
        return 0

    if args.trace_dir:
        import layers

        layers.install(args.trace_dir)

    if command == "sweep":
        rc = repro.cli.main(argv)
        out.update(t_end_ns=time.perf_counter_ns(), rc=rc, peak_rss_mb=peak_rss_mb())
        if args.trace_dir:
            layers.finish(args.trace_dir)
        Path(args.out).write_text(json.dumps(out))
        return rc

    import repro.experiments._simulation as simulation
    from repro.sim.sweep import SweepRunner

    if command == "simulate":
        timer = Stopwatch(SweepRunner, "run")
    else:
        timer = Stopwatch(simulation, "simulate_swf_trace")
    buffer = io.StringIO()
    out["t_ready_ns"] = time.perf_counter_ns()
    with redirect_stdout(buffer):
        rc = repro.cli.main(argv)
    out.update(t_end_ns=time.perf_counter_ns(), rc=rc, peak_rss_mb=peak_rss_mb())
    if args.trace_dir:
        layers.finish(args.trace_dir)
    out["sim_s"] = timer.total_ns / 1e9
    out["report_sha256"] = hashlib.sha256(buffer.getvalue().encode()).hexdigest()

    checks = Checks()
    checks.expect(rc == 0, "command exits 0")
    if command == "simulate":
        out.update(check_study(argv, checks))
    else:
        out.update(check_trace(argv, timer.returned[-1], checks))
        timer.returned[-1].store.close()
    out["checks_attempted"] = checks.attempted
    out["checks_failed"] = checks.failed
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
