"""The migration extension (§7 limitation, lifted)."""

import dataclasses

import numpy as np
import pytest

from repro.accounting.methods import (
    CarbonBasedAccounting,
    EnergyBasedAccounting,
    all_methods,
)
from repro.accounting.pricing import QuoteTable
from repro.carbon.intensity import CarbonIntensityTrace
from repro.sim.engine import MultiClusterSimulator, pricing_for_sim_machine
from repro.sim.job import Job
from repro.sim.migration import MigratingSimulator
from repro.sim.policies import FixedMachinePolicy, GreedyPolicy
from repro.sim.workload import (
    PatelWorkloadGenerator,
    Workload,
    WorkloadConfig,
)


@pytest.fixture(scope="module")
def long_job_workload(low_carbon_machines):
    """Long jobs (median 4 h) — migration only matters for jobs that
    span intensity changes."""
    cfg = WorkloadConfig(
        n_base_jobs=200, n_users=40, seed=6, runtime_median_s=4 * 3600.0
    )
    return PatelWorkloadGenerator(low_carbon_machines, cfg).generate()


@pytest.fixture(scope="module")
def results(low_carbon_machines, long_job_workload):
    cba = CarbonBasedAccounting()
    plain = MultiClusterSimulator(
        low_carbon_machines, cba, GreedyPolicy()
    ).run(long_job_workload)
    migrating = MigratingSimulator(
        low_carbon_machines, cba, GreedyPolicy(), min_saving=0.15
    ).run(long_job_workload)
    return plain, migrating


class TestConservation:
    def test_every_job_still_completes(self, results, long_job_workload):
        plain, migrating = results
        assert migrating.n_jobs == plain.n_jobs == len(long_job_workload)
        assert len({o.job_id for o in migrating.outcomes}) == migrating.n_jobs

    def test_work_conserved(self, results):
        plain, migrating = results
        assert migrating.total_work_core_hours() == pytest.approx(
            plain.total_work_core_hours()
        )

    def test_costs_and_energy_positive(self, results):
        _, migrating = results
        for outcome in migrating.outcomes:
            assert outcome.cost > 0
            assert outcome.energy_j > 0
            assert outcome.submit_s <= outcome.start_s <= outcome.end_s

    def test_policy_label(self, results):
        _, migrating = results
        assert migrating.policy == "Greedy+migrate"


class TestBenefit:
    def test_migration_reduces_operational_carbon(self, results):
        """The point of lifting the limitation: jobs follow the cheap
        grid hours and operational carbon drops."""
        plain, migrating = results
        assert (
            migrating.total_operational_carbon_g()
            < plain.total_operational_carbon_g()
        )

    def test_migration_does_not_inflate_cost(self, results):
        plain, migrating = results
        assert migrating.total_cost() <= plain.total_cost() * 1.02


class TestBatchedExactness:
    """The batched pricing paths (kernel quotes, batched probes,
    deferred segment settlement) against the per-record reference, for
    every accounting method — same outcomes, same order, same floats."""

    @pytest.fixture(scope="class")
    def exactness_workload(self, low_carbon_machines):
        cfg = WorkloadConfig(
            n_base_jobs=120, n_users=30, seed=11, runtime_median_s=5 * 3600.0
        )
        return PatelWorkloadGenerator(low_carbon_machines, cfg).generate()

    @pytest.mark.parametrize(
        "method", all_methods(), ids=lambda m: m.name
    )
    def test_bit_identical_outcomes(
        self, low_carbon_machines, exactness_workload, method
    ):
        reference = MigratingSimulator(
            low_carbon_machines,
            method,
            GreedyPolicy(),
            min_saving=0.1,
            batched=False,
        ).run(exactness_workload)
        batched = MigratingSimulator(
            low_carbon_machines, method, GreedyPolicy(), min_saving=0.1
        ).run(exactness_workload)
        assert batched.outcomes == reference.outcomes
        assert batched.machines == reference.machines
        assert batched.policy == reference.policy

    def test_migrations_actually_happen_under_cba(
        self, low_carbon_machines, exactness_workload
    ):
        """Guard the guard: the exactness fixture must exercise the
        migration (segment-splitting) code path, not just plain runs."""
        sim = MigratingSimulator(
            low_carbon_machines,
            CarbonBasedAccounting(),
            GreedyPolicy(),
            min_saving=0.1,
        )
        result = sim.run(exactness_workload)
        assert result.n_jobs == len(exactness_workload)
        plain = MultiClusterSimulator(
            low_carbon_machines, CarbonBasedAccounting(), GreedyPolicy()
        ).run(exactness_workload)
        assert result.total_cost() != plain.total_cost()


class TestPrebuiltQuoteTable:
    """Runs that adopt a sweep-shared quote table must change nothing."""

    def test_prebuilt_table_bit_identical(
        self, low_carbon_machines, long_job_workload
    ):
        cba = CarbonBasedAccounting()
        pricings = {
            name: pricing_for_sim_machine(m)
            for name, m in low_carbon_machines.items()
        }
        table = QuoteTable.build(long_job_workload.jobs, pricings, cba)
        fresh = MigratingSimulator(
            low_carbon_machines, cba, GreedyPolicy(), min_saving=0.15
        ).run(long_job_workload)
        adopted = MigratingSimulator(
            low_carbon_machines,
            cba,
            GreedyPolicy(),
            min_saving=0.15,
            quote_table=table,
        ).run(long_job_workload)
        assert adopted.outcomes == fresh.outcomes

    def test_mismatched_table_rejected(
        self, low_carbon_machines, long_job_workload
    ):
        cba = CarbonBasedAccounting()
        pricings = {
            name: pricing_for_sim_machine(m)
            for name, m in low_carbon_machines.items()
        }
        table = QuoteTable.build(
            long_job_workload.jobs[:5], pricings, cba
        )
        sim = MigratingSimulator(
            low_carbon_machines, cba, GreedyPolicy(), quote_table=table
        )
        with pytest.raises(ValueError, match="quote table does not match"):
            sim.run(long_job_workload)


class TestKnobs:
    def test_infinite_hurdle_means_no_migration(
        self, low_carbon_machines, long_job_workload
    ):
        """min_saving ~ 1 disables migration; results must match the
        plain engine's totals (same placements, same charging)."""
        cba = CarbonBasedAccounting()
        frozen = MigratingSimulator(
            low_carbon_machines, cba, GreedyPolicy(), min_saving=0.999
        ).run(long_job_workload)
        plain = MultiClusterSimulator(
            low_carbon_machines, cba, GreedyPolicy()
        ).run(long_job_workload)
        assert frozen.total_energy_j() == pytest.approx(
            plain.total_energy_j(), rel=1e-6
        )
        assert frozen.total_cost() == pytest.approx(plain.total_cost(), rel=1e-6)

    def test_time_invariant_method_never_migrates(
        self, low_carbon_machines, long_job_workload
    ):
        """Under EBA nothing changes with the clock, so migrating and
        plain runs coincide."""
        eba = EnergyBasedAccounting()
        migrating = MigratingSimulator(
            low_carbon_machines, eba, GreedyPolicy(), min_saving=0.05
        ).run(long_job_workload)
        plain = MultiClusterSimulator(
            low_carbon_machines, eba, GreedyPolicy()
        ).run(long_job_workload)
        assert migrating.total_cost() == pytest.approx(plain.total_cost(), rel=1e-6)

    def test_validation(self, low_carbon_machines):
        cba = CarbonBasedAccounting()
        with pytest.raises(ValueError):
            MigratingSimulator(
                low_carbon_machines, cba, GreedyPolicy(), reevaluate_every_s=0
            )
        with pytest.raises(ValueError):
            MigratingSimulator(low_carbon_machines, cba, GreedyPolicy(), overhead_s=-1)
        with pytest.raises(ValueError):
            MigratingSimulator(low_carbon_machines, cba, GreedyPolicy(), min_saving=1.0)


class TestVectorizedDecisionTieBreak:
    """Exactly tied move targets: the default decision pass must pick
    the scalar walk's winner — the *first* machine in the job's own
    eligibility order that reaches the minimum move cost."""

    @pytest.fixture()
    def tied_world(self, low_carbon_machines):
        """Home on a dirty grid plus two bit-identical clean clones.

        CloneA and CloneB share one node spec, one intensity trace
        object, and (below) identical per-job runtimes/energies, so
        their move probes are equal to the last bit and every migration
        decision is a tie between them.
        """
        base = low_carbon_machines["FASTER"]
        hours = 21 * 24
        dirty = CarbonIntensityTrace("dirty", np.full(hours, 900.0))
        clean = CarbonIntensityTrace("clean", np.full(hours, 20.0))

        def clone(name, trace):
            return dataclasses.replace(
                base,
                node=dataclasses.replace(base.node, name=name),
                intensity=trace,
            )

        machines = {
            "Home": clone("Home", dirty),
            "CloneA": clone("CloneA", clean),
            "CloneB": clone("CloneB", clean),
        }
        jobs = [
            Job(
                job_id=i,
                user=i,
                cores=4,
                submit_s=0.0,
                # Eligibility order: Home, CloneA, CloneB — the scalar
                # walk must settle on CloneA.
                runtime_s={
                    "Home": 10 * 3600.0,
                    "CloneA": 10 * 3600.0,
                    "CloneB": 10 * 3600.0,
                },
                energy_j={"Home": 5e8, "CloneA": 5e8, "CloneB": 5e8},
            )
            for i in range(6)
        ]
        workload = Workload(
            jobs=jobs, config=WorkloadConfig(), machines=list(machines)
        )
        return machines, workload

    def _run(self, machines, workload, **kwargs):
        sim = MigratingSimulator(
            machines,
            CarbonBasedAccounting(),
            FixedMachinePolicy("Home"),
            min_saving=0.05,
            overhead_s=30.0,
            **kwargs,
        )
        return sim

    def test_tied_targets_bit_identical_and_first_eligible_wins(
        self, tied_world
    ):
        machines, workload = tied_world
        reference = self._run(machines, workload, batched=False).run(workload)
        result = self._run(machines, workload).run(workload)
        assert result.outcomes == reference.outcomes
        # The tie must actually occur and resolve to the first-eligible
        # clone, or this proves nothing about tie-breaking.
        finals = {o.machine for o in reference.outcomes}
        assert finals == {"CloneA"}

    @pytest.mark.parametrize("batched", [True, False], ids=["default", "scalar"])
    def test_tie_follows_job_eligibility_order_not_machine_order(
        self, tied_world, batched
    ):
        """Listing CloneB before CloneA in each job's own eligibility
        order flips the winner, although the simulator's machine order
        is unchanged: the tie walk is over the job, not the fleet."""
        machines, workload = tied_world
        jobs = [
            dataclasses.replace(
                job,
                runtime_s={
                    name: job.runtime_s[name]
                    for name in ("Home", "CloneB", "CloneA")
                },
                energy_j={
                    name: job.energy_j[name]
                    for name in ("Home", "CloneB", "CloneA")
                },
            )
            for job in workload.jobs
        ]
        flipped = Workload(
            jobs=jobs, config=workload.config, machines=workload.machines
        )
        result = self._run(machines, flipped, batched=batched).run(flipped)
        assert {o.machine for o in result.outcomes} == {"CloneB"}
        assert len(result.outcomes) == len(jobs)


class _ProbeCheckingSimulator(MigratingSimulator):
    """Prices every tick's candidates by both probe paths and records
    any cell where the default scalar-kernel probes differ from the
    per-record ``charge()`` reference."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ticks_checked = 0
        self.cells_checked = 0
        self.mismatches = []

    def _probe_costs_indexed(self, clusters, candidates, now):
        out, name_idx = super()._probe_costs_indexed(clusters, candidates, now)
        reference, ref_idx = self._probe_costs_scalar(clusters, candidates, now)
        assert ref_idx == name_idx
        got = np.array(out, dtype=float)
        same = (got == reference) | (np.isnan(got) & np.isnan(reference))
        if not same.all():
            self.mismatches.append(now)
        self.ticks_checked += 1
        self.cells_checked += int(np.count_nonzero(~np.isnan(reference)))
        return out, name_idx


@pytest.fixture(scope="module")
def baseline_long_workload(sim_machines):
    cfg = WorkloadConfig(
        n_base_jobs=120,
        n_users=30,
        seed=2,
        runtime_median_s=6 * 3600.0,
        arrival_window_s=2 * 24 * 3600.0,
    )
    return PatelWorkloadGenerator(sim_machines, cfg).generate()


@pytest.fixture(scope="module", params=["baseline", "low-carbon", "tiered"])
def probe_case(
    request,
    sim_machines,
    baseline_long_workload,
    low_carbon_machines,
    long_job_workload,
    tiered_machines,
    tiered_workload,
):
    if request.param == "baseline":
        return sim_machines, baseline_long_workload
    if request.param == "low-carbon":
        return low_carbon_machines, long_job_workload
    return tiered_machines, tiered_workload


class TestTickProbes:
    """Every stay/move probe the single tick path prices, on every
    scenario family: the per-machine probe kernels must equal one
    ``charge()`` per (job, machine) cell bit for bit — not only on the
    cells whose comparison happened to flip a migration decision."""

    @pytest.mark.parametrize("method", all_methods(), ids=lambda m: m.name)
    def test_kernel_probes_equal_charge_probes(self, probe_case, method):
        machines, workload = probe_case
        sim = _ProbeCheckingSimulator(
            machines, method, GreedyPolicy(), min_saving=0.15
        )
        result = sim.run(workload)
        assert result.n_jobs == len(workload)
        assert sim.ticks_checked > 0
        assert sim.cells_checked > sim.ticks_checked
        assert sim.mismatches == []
