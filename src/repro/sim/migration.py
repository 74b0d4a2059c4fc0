"""Job migration between machines — the paper's §7 limitation, lifted.

"In the simulation (as well as above), we do not allow job migration:
once a job has been started on a machine, it cannot move even as the
carbon intensities change."  This module implements the missing
mechanism so the claim can be tested rather than assumed: a simulator in
which running jobs are periodically re-evaluated and may checkpoint, pay
a migration overhead, and resume on a machine that has become cheaper
(under CBA this happens when grid intensities cross, Fig. 7b).

Model
-----
* Jobs execute in **segments**.  At every re-evaluation boundary the
  simulator compares the cost of finishing on the current machine with
  the cost of finishing elsewhere (remaining-fraction scaled, plus a
  checkpoint/restart overhead added to the remaining runtime).
* A job migrates when the relative saving exceeds ``min_saving``; the
  continuation re-enters the target's queue under the same user, so all
  §5.3 queue rules still apply.
* Every segment is charged at its own start-time intensity; a migrated
  job's cost, energy, and carbon are the sums over its segments —
  exactly what a provider metering per interval would bill.

Batched pricing architecture
----------------------------
The default path follows the quote-table / settle contract of
:mod:`repro.accounting.pricing`, so the migration simulator no longer
prices inside its event loop:

* arrival views come from a precomputed
  :class:`~repro.accounting.pricing.PricingKernel` quote table (arrival
  time *is* the submit time, as in the plain engine);
* a re-evaluation tick walks the per-cluster ``running`` dicts —
  clusters in machine order, insertion order within a cluster — and
  prices every candidate's stay/move probes through the per-machine
  :meth:`~repro.accounting.base.AccountingMethod.probe_kernel` scalar
  closures (hoisted per-machine constants, no record construction),
  which replay ``charge()``'s exact IEEE operations.  Running sets are
  small (tens of rows even at 40k jobs), so this plain walk beats any
  fixed-overhead NumPy batch;
* finished or preempted segments are appended to a
  :class:`~repro.accounting.pricing.SegmentLedger` and settled in one
  vectorized pass after the run, with per-job sums replayed in append
  order.

Both substitutions use the same IEEE operation order as the scalar
path, so results are **bit-identical** to ``batched=False`` (the test
suite asserts exact equality for all five accounting methods).

Events come from the shared :class:`~repro.sim.events.EventCalendar`:
arrivals are consumed from the submit-sorted job list, only finishes
live in the heap, and the single outstanding re-evaluation boundary is
a scalar tick — the same ``(time, kind, seq)`` order as the seed's
all-in-one heap, without pushing every arrival through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.accounting.base import AccountingMethod, UsageRecord
from repro.accounting.methods import CarbonBasedAccounting
from repro.accounting.pricing import PricingKernel, QuoteTable, SegmentLedger
from repro.sim.cluster import ClusterSim
from repro.sim.engine import SimulationResult, pricing_for_sim_machine
from repro.sim.events import ARRIVAL, FINISH, EventCalendar
from repro.sim.job import Job, JobOutcome
from repro.sim.policies import MachineView, Policy
from repro.sim.scenarios import SimMachine
from repro.sim.workload import Workload
from repro.units import operational_carbon_g


@dataclass(slots=True)
class _Progress:
    """Per-job execution state across segments."""

    job: Job
    remaining_fraction: float = 1.0
    energy_j: float = 0.0
    cost: float = 0.0
    operational_g: float = 0.0
    attributed_g: float = 0.0
    first_start_s: float | None = None
    migrations: int = 0
    segment_start_s: float = 0.0
    segment_machine: str = ""
    is_continuation: bool = False


class MigratingSimulator:
    """Event-driven simulation with periodic migration re-evaluation.

    Parameters
    ----------
    machines, method, policy:
        As for :class:`~repro.sim.engine.MultiClusterSimulator`.
    reevaluate_every_s:
        How often running jobs are reconsidered (hourly by default, the
        carbon-intensity resolution).
    overhead_s:
        Checkpoint + restart cost added to the remaining runtime on the
        target machine (charged at the target's idle power).
    min_saving:
        Minimum relative saving on the remaining cost required to move
        (hysteresis against flapping between machines).
    batched:
        Use the vectorized pricing paths (default).  ``False`` runs the
        reference per-record implementation; outcomes are bit-identical
        either way.
    quote_table:
        Optional prebuilt
        :class:`~repro.accounting.pricing.QuoteTable` for the workload
        this simulator will run (e.g. from a sweep's shared
        :class:`~repro.accounting.pricing.QuoteTableCache`); skips the
        per-run quote-table build.  Validated against the workload at
        ``run()``; ignored when ``batched=False``.
    """

    __slots__ = (
        "machines",
        "method",
        "policy",
        "reevaluate_every_s",
        "overhead_s",
        "min_saving",
        "batched",
        "quote_table",
        "pricings",
        "_carbon",
        "_name_idx",
        "_idle_w",
        "_ledger",
        "_owners",
        "_quoters",
    )

    def __init__(
        self,
        machines: dict[str, SimMachine],
        method: AccountingMethod,
        policy: Policy,
        reevaluate_every_s: float = 3600.0,
        overhead_s: float = 300.0,
        min_saving: float = 0.2,
        batched: bool = True,
        quote_table: QuoteTable | None = None,
    ) -> None:
        if reevaluate_every_s <= 0:
            raise ValueError("re-evaluation period must be positive")
        if overhead_s < 0:
            raise ValueError("overhead cannot be negative")
        if not 0.0 <= min_saving < 1.0:
            raise ValueError("min_saving must be in [0, 1)")
        self.machines = machines
        self.method = method
        self.policy = policy
        self.reevaluate_every_s = reevaluate_every_s
        self.overhead_s = overhead_s
        self.min_saving = min_saving
        self.batched = batched
        self.quote_table = quote_table
        self.pricings = {
            name: pricing_for_sim_machine(m) for name, m in machines.items()
        }
        self._carbon = CarbonBasedAccounting()
        self._name_idx = {name: mi for mi, name in enumerate(self.pricings)}
        #: Idle watts per core, hoisted off the property chain (the probe
        #: path reads it once per move probe).
        self._idle_w = {
            name: m.idle_watts_per_core for name, m in machines.items()
        }
        #: Deferred-settlement state, rebuilt per run (batched mode only).
        self._ledger: SegmentLedger | None = None
        self._owners: list[_Progress] = []
        #: Per-machine scalar probe quoters, rebuilt per run (batched
        #: mode only; closures hold per-run memo state).
        self._quoters: dict[str, object] | None = None

    # ------------------------------------------------------------------
    # Segment economics
    # ------------------------------------------------------------------
    def _segment_scalars(
        self,
        job: Job,
        machine: str,
        fraction: float,
        with_overhead: bool,
    ) -> tuple[float, float]:
        """(runtime, energy) of one segment — the single definition both
        the scalar and the batched paths price, so they cannot drift."""
        runtime = job.runtime_s[machine] * fraction
        energy = job.energy_j[machine] * fraction
        if with_overhead:
            runtime += self.overhead_s
            energy += (
                self.machines[machine].idle_watts_per_core
                * job.cores
                * self.overhead_s
            )
        return runtime, energy

    def _segment_record(
        self,
        job: Job,
        machine: str,
        start_s: float,
        fraction: float,
        with_overhead: bool,
    ) -> UsageRecord:
        runtime, energy = self._segment_scalars(
            job, machine, fraction, with_overhead
        )
        return UsageRecord(
            machine=machine,
            duration_s=runtime,
            energy_j=energy,
            cores=job.cores,
            start_time_s=start_s,
        )

    def _charge_segment(
        self,
        state: _Progress,
        fraction: float,
        with_overhead: bool,
    ) -> None:
        """Bill one segment: append it to the deferred ledger (batched)
        or accumulate its cost/energy/carbon immediately (reference)."""
        if self._ledger is not None:
            job = state.job
            machine = state.segment_machine
            runtime, energy = self._segment_scalars(
                job, machine, fraction, with_overhead
            )
            self._ledger.add(
                machine, state.segment_start_s, runtime, energy, job.cores
            )
            self._owners.append(state)
            return
        record = self._segment_record(
            state.job,
            state.segment_machine,
            state.segment_start_s,
            fraction,
            with_overhead,
        )
        pricing = self.pricings[state.segment_machine]
        intensity = self.machines[state.segment_machine].intensity.at(
            state.segment_start_s
        )
        operational = operational_carbon_g(record.energy_j, intensity)
        state.energy_j += record.energy_j
        state.cost += self.method.charge(record, pricing)
        state.operational_g += operational
        state.attributed_g += operational + self._carbon.embodied_charge(
            record, pricing
        )

    def _settle_segments(self) -> None:
        """Price the whole segment ledger and replay the per-job sums.

        ``settle`` returns per-segment values in append order — the same
        chronological order the reference path charges in — so the
        ``+=`` replay below performs the identical sequence of additions
        per job and the accumulated floats match bit for bit.
        """
        ledger = self._ledger
        if ledger is None or not len(ledger):
            return
        cost, operational, attributed = ledger.settle()
        energy = ledger.energy
        cost_l = cost.tolist()
        oper_l = operational.tolist()
        attr_l = attributed.tolist()
        for idx, state in enumerate(self._owners):
            state.energy_j += energy[idx]
            state.cost += cost_l[idx]
            state.operational_g += oper_l[idx]
            state.attributed_g += attr_l[idx]

    def _remaining_cost(
        self, state: _Progress, machine: str, at_s: float, migrating: bool
    ) -> float:
        record = self._segment_record(
            state.job, machine, at_s, state.remaining_fraction, migrating
        )
        return self.method.charge(record, self.pricings[machine])

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, workload: Workload) -> SimulationResult:
        clusters = {name: ClusterSim(m) for name, m in self.machines.items()}
        progress = {job.job_id: _Progress(job=job) for job in workload.jobs}
        #: job_id -> runtime its queued continuation needs on its target.
        pending_runtime: dict[int, float] = {}

        kernel: PricingKernel | None = None
        if self.batched:
            kernel = PricingKernel(
                workload.jobs, self.pricings, self.method,
                table=self.quote_table,
            )
            self._ledger = SegmentLedger(self.method, self.pricings)
            self._owners = []
            self._quoters = {
                name: self.method.probe_kernel(pricing)
                for name, pricing in self.pricings.items()
            }
        else:
            self._ledger = None
            self._owners = []
            self._quoters = None
        static_views = kernel.static_views if kernel is not None else None
        row_of = kernel.row_of if kernel is not None else None

        calendar = EventCalendar(workload.jobs)
        if workload.jobs:
            calendar.schedule_tick(
                workload.jobs[0].submit_s + self.reevaluate_every_s
            )

        #: Finish log: (job_id, end time), in completion order.
        finish_log: list[tuple[int, float]] = []
        active = len(workload.jobs)

        def try_start(cluster: ClusterSim, now: float) -> None:
            for job in cluster.startable(now):
                state = progress[job.job_id]
                if state.first_start_s is None:
                    state.first_start_s = now
                state.segment_start_s = now
                state.segment_machine = cluster.name
                state.is_continuation = job.job_id in pending_runtime
                runtime = pending_runtime.get(
                    job.job_id, job.runtime_s[cluster.name]
                )
                end = now + runtime
                # ClusterSim scheduled the full runtime; continuations
                # carry only their remainder.
                cluster.reschedule_end(job.job_id, end)
                calendar.schedule_finish(end, (cluster.name, job.job_id))

        while calendar and active > 0:
            now, kind, payload = calendar.pop()

            if kind == ARRIVAL:
                job = payload  # type: ignore[assignment]
                if static_views is not None:
                    views = [
                        MachineView(
                            name, rt, en, clusters[name].estimated_wait_s(now), cost
                        )
                        for name, rt, en, cost in static_views[row_of[job.job_id]]
                    ]
                else:
                    views = [
                        MachineView(
                            machine=name,
                            runtime_s=job.runtime_s[name],
                            energy_j=job.energy_j[name],
                            queue_wait_s=clusters[name].estimated_wait_s(now),
                            # repro-lint: disable=RPL004 (batched=False reference path; segment quotes here are the oracle the quote-table path is tested against)
                            cost=self.method.charge(
                                self._segment_record(job, name, now, 1.0, False),
                                self.pricings[name],
                            ),
                        )
                        for name in job.eligible_machines
                        if name in clusters
                    ]
                if not views:
                    active -= 1
                    continue
                choice = self.policy.select(job, views)
                clusters[choice].enqueue(job)
                try_start(clusters[choice], now)

            elif kind == FINISH:
                machine_name, job_id = payload  # type: ignore[misc]
                cluster = clusters[machine_name]
                entry = cluster.running.get(job_id)
                if entry is None or abs(entry.end_s - now) > 1e-6:
                    continue  # stale event from a migrated segment
                cluster.finish(job_id)
                state = progress[job_id]
                self._charge_segment(
                    state, state.remaining_fraction, state.is_continuation
                )
                state.remaining_fraction = 0.0
                pending_runtime.pop(job_id, None)
                finish_log.append((job_id, now))
                active -= 1
                try_start(cluster, now)

            else:  # TICK: periodic migration re-evaluation
                moved = self._reevaluate(
                    clusters, progress, pending_runtime, now
                )
                if moved:
                    for cluster in clusters.values():
                        try_start(cluster, now)
                if active > 0:
                    calendar.schedule_tick(now + self.reevaluate_every_s)

        self._settle_segments()
        self._ledger = None
        self._owners = []
        self._quoters = None
        outcomes = [
            self._outcome(progress[job_id], end_s)
            for job_id, end_s in finish_log
        ]
        return SimulationResult(
            policy=f"{self.policy.name}+migrate",
            method=self.method.name,
            machines=list(self.machines),
            outcomes=outcomes,
        )

    # ------------------------------------------------------------------
    def _reevaluate(
        self,
        clusters: dict[str, ClusterSim],
        progress: dict[int, _Progress],
        pending_runtime: dict[int, float],
        now: float,
    ) -> bool:
        """Preempt-and-requeue any running job with a big enough saving.

        Candidates come from one walk over the per-cluster running
        dicts — clusters in machine order, insertion order within a
        cluster.  Probes are pure functions of (job, remaining fraction,
        now): priced by the scalar probe kernels
        (:meth:`_probe_costs_indexed`), or by one ``charge()`` each under
        ``batched=False``.  A candidate then walks its own eligibility
        order and keeps the first strictly cheaper machine, so a tie
        resolves to the earliest eligible one.
        """
        candidates: list[tuple[ClusterSim, int, _Progress, Job, float, float]]
        candidates = []
        for cluster in clusters.values():
            for job_id, entry in cluster.running.items():
                state = progress[job_id]
                job = state.job
                end_s = entry.end_s
                segment_total = end_s - state.segment_start_s
                if segment_total <= 0 or now >= end_s - 1e-9:
                    continue
                done_of_segment = (now - state.segment_start_s) / segment_total
                if done_of_segment <= 0:
                    continue
                frac_done = state.remaining_fraction * done_of_segment
                remaining = state.remaining_fraction - frac_done
                if remaining <= 0.05:
                    continue  # nearly finished; never worth moving
                candidates.append(
                    (cluster, job_id, state, job, remaining, frac_done)
                )
        if not candidates:
            return False
        if self.batched:
            probe_costs, name_idx = self._probe_costs_indexed(
                clusters, candidates, now
            )
        else:
            probe_costs, name_idx = self._probe_costs_scalar(
                clusters, candidates, now
            )

        moved_any = False
        for k, (cluster, job_id, state, job, remaining, frac_done) in enumerate(
            candidates
        ):
            costs = probe_costs[k]
            stay = costs[name_idx[cluster.name]]
            best_name, best_cost = None, stay
            for name in job.eligible_machines:
                if name == cluster.name or name not in clusters:
                    continue
                cost = costs[name_idx[name]]
                if cost < best_cost:
                    best_name, best_cost = name, cost
            if best_name is None or best_cost > stay * (1.0 - self.min_saving):
                continue

            # Bill the partial segment, release, and requeue.
            self._charge_segment(state, frac_done, state.is_continuation)
            state.remaining_fraction = remaining
            state.migrations += 1
            cluster.finish(job_id)
            pending_runtime[job_id] = (
                job.runtime_s[best_name] * remaining + self.overhead_s
            )
            clusters[best_name].enqueue(job)
            moved_any = True
        return moved_any

    def _probe_costs_scalar(
        self,
        clusters: dict[str, ClusterSim],
        candidates: list[tuple[ClusterSim, int, _Progress, Job, float, float]],
        now: float,
    ) -> tuple[np.ndarray, dict[str, int]]:
        """Reference probe pricing: one ``charge()`` per (job, machine)."""
        name_idx = self._name_idx
        out = np.full((len(candidates), len(name_idx)), np.nan)
        for k, (cluster, _job_id, _state, job, remaining, _frac_done) in enumerate(
            candidates
        ):
            probe = _Progress(
                job=job,
                remaining_fraction=remaining,
                segment_start_s=now,
                segment_machine=cluster.name,
            )
            out[k, name_idx[cluster.name]] = self._remaining_cost(
                probe, cluster.name, now, migrating=False
            )
            for name in job.eligible_machines:
                if name == cluster.name or name not in clusters:
                    continue
                out[k, name_idx[name]] = self._remaining_cost(
                    probe, name, now, migrating=True
                )
        return out, name_idx

    def _probe_costs_indexed(
        self,
        clusters: dict[str, ClusterSim],
        candidates: list[tuple[ClusterSim, int, _Progress, Job, float, float]],
        now: float,
    ) -> tuple[list[list[float]], dict[str, int]]:
        """Probe pricing through the per-machine scalar probe kernels.

        Candidate sets per tick are tiny (the running jobs of a few
        clusters), so fixed-overhead NumPy batches lose to plain float
        arithmetic; the probe kernels hoist every per-machine constant
        and memoize the single trace lookup a tick needs.  Segment
        scalars are composed with :meth:`_segment_scalars`' exact
        association order and the kernels replay ``charge()``'s IEEE
        operations, so probe costs (and therefore migration decisions)
        are bit-identical to the reference path.
        """
        quoters = self._quoters
        name_idx = self._name_idx
        idle_w = self._idle_w
        overhead = self.overhead_s
        nan = float("nan")
        n_machines = len(name_idx)
        out: list[list[float]] = []
        for cluster, _job_id, _state, job, remaining, _frac in candidates:
            row = [nan] * n_machines
            current = cluster.name
            cores = job.cores
            runtimes = job.runtime_s
            energies = job.energy_j
            for name, rt in runtimes.items():
                mi = name_idx.get(name)
                if mi is None or name not in clusters:
                    continue
                runtime = rt * remaining
                energy = energies[name] * remaining
                if name != current:
                    runtime += overhead
                    energy += idle_w[name] * cores * overhead
                row[mi] = quoters[name](runtime, energy, cores, now)
            out.append(row)
        return out, name_idx

    def _outcome(self, state: _Progress, end_s: float) -> JobOutcome:
        job = state.job
        return JobOutcome(
            job_id=job.job_id,
            user=job.user,
            machine=state.segment_machine,
            cores=job.cores,
            submit_s=job.submit_s,
            start_s=(
                state.first_start_s if state.first_start_s is not None else end_s
            ),
            end_s=end_s,
            energy_j=state.energy_j,
            cost=state.cost,
            work_core_hours=job.work_core_hours,
            operational_carbon_g=state.operational_g,
            attributed_carbon_g=state.attributed_g,
        )
