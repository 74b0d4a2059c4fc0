"""Figs. 5-7 and Table 6 experiment modules at reduced scale.

One policy sweep per (scenario, method) is shared through the
experiments' own memoization; the scale is small so the whole module
runs in well under a minute.
"""

import pytest

from repro.experiments import (
    fig5_eba_simulation,
    fig6_cba_simulation,
    fig7_low_carbon,
    table6_policy_impact,
)

SCALE = 1_500
SEED = 2


class TestFig5:
    @pytest.fixture(scope="class")
    def works(self):
        return fig5_eba_simulation.work_with_fixed_allocation(SCALE, SEED)

    def test_greedy_completes_most_work(self, works):
        multi = {k: works[k] for k in ("Greedy", "Energy", "Mixed", "EFT", "Runtime")}
        assert max(multi, key=multi.__getitem__) in ("Greedy", "Energy")
        assert works["Greedy"] >= 0.98 * max(works.values())

    def test_energy_within_few_percent_of_greedy(self, works):
        assert works["Energy"] / works["Greedy"] > 0.93

    def test_greedy_beats_eft(self, works):
        assert works["Greedy"] / works["EFT"] > 1.05

    def test_single_machine_policies_trail(self, works):
        for fixed in ("Theta", "IC"):
            assert works[fixed] < works["Greedy"]
        assert works["Theta"] == min(works.values())

    def test_jobs_over_time_monotone(self):
        series = fig5_eba_simulation.jobs_over_time(SCALE, SEED, n_points=20)
        for hours, counts in series.values():
            assert list(counts) == sorted(counts)
            assert len(hours) == 20

    def test_machine_distribution_shapes(self):
        dist = fig5_eba_simulation.machine_distribution(SCALE, SEED)
        greedy = dist["Greedy"]
        total = sum(greedy.values())
        assert greedy["Theta"] / total < 0.15  # paper: none
        runtime = dist["Runtime"]
        assert max(runtime, key=runtime.__getitem__) == "IC"

    def test_report_renders(self):
        assert "Fig. 5a" in fig5_eba_simulation.format_report(SCALE, SEED)


class TestTable6:
    @pytest.fixture(scope="class")
    def rows(self):
        return {r.policy: r for r in table6_policy_impact.run(SCALE, SEED)}

    def test_energy_policy_uses_least(self, rows):
        least = min(rows.values(), key=lambda r: r.energy_mwh)
        assert least.policy in ("Energy", "Greedy - EBA")

    def test_eft_and_runtime_use_more_energy(self, rows):
        # The paper reports +51%/+56%.  The gap is not a reduced-scale
        # artefact: at paper scale (`repro simulate --scale 71190`, seed
        # 0) this reproduction measures EFT/Energy 1.15 and
        # Runtime/Energy 1.09 — an open fidelity gap, ROADMAP item 4.
        # Assert a clear (>=5%/>=3%) ordering rather than a magnitude.
        assert rows["EFT"].energy_mwh > rows["Energy"].energy_mwh * 1.05
        assert rows["Runtime"].energy_mwh > rows["Energy"].energy_mwh * 1.03

    def test_greedy_cba_lowest_attributed(self, rows):
        """Minimizing CBA cost minimizes attributed carbon (§5.5)."""
        assert rows["Greedy - CBA"].attributed_kg == min(
            r.attributed_kg for r in rows.values()
        )

    def test_attributed_exceeds_operational(self, rows):
        for r in rows.values():
            assert r.attributed_kg > r.operational_kg

    def test_energy_policy_largest_embodied_share(self, rows):
        """Energy favours the newest hardware, so its embodied share of
        attributed carbon is the largest (§5.5)."""
        def embodied_share(r):
            return (r.attributed_kg - r.operational_kg) / r.attributed_kg

        assert embodied_share(rows["Energy"]) >= embodied_share(rows["Runtime"])
        assert embodied_share(rows["Energy"]) >= embodied_share(rows["EFT"])


class TestFig6:
    def test_cba_shifts_energy_down_runtime_up(self):
        shifts = fig6_cba_simulation.eba_vs_cba_shift(SCALE, SEED)
        # Paper: Energy completes less under CBA, Runtime more.
        assert shifts["Energy"] < shifts["Greedy"] + 0.02
        assert shifts["Runtime"] > shifts["Energy"] - 0.02
        assert shifts["FASTER"] < 1.0  # FASTER-only pays its embodied rate
        assert shifts["IC"] > 1.0

    def test_greedy_cba_moves_toward_ic(self):
        from repro.experiments._simulation import policy_sweep

        eba = policy_sweep("baseline", "EBA", SCALE, SEED)["Greedy"]
        cba = policy_sweep("baseline", "CBA", SCALE, SEED)["Greedy"]
        ic_share_eba = eba.machine_distribution()["IC"] / eba.n_jobs
        ic_share_cba = cba.machine_distribution()["IC"] / cba.n_jobs
        assert ic_share_cba > ic_share_eba


class TestFig7:
    def test_greedy_dominates_in_low_carbon_world(self):
        works = fig7_low_carbon.work_with_fixed_allocation(SCALE, SEED)
        for other in ("Energy", "Mixed", "EFT", "Runtime"):
            assert works["Greedy"] > works[other] * 1.1

    def test_day_profiles_have_right_regions(self):
        profiles = fig7_low_carbon.day_intensity(seed=SEED)
        regions = " ".join(profiles)
        for region in ("AU-SA", "CA-ON", "NO-NO2", "DK-BHM"):
            assert region in regions

    def test_cheapest_endpoint_shifts_through_day(self):
        """The Fig. 7c crossover: Theta dominates some hours, IC others."""
        shares = fig7_low_carbon.cheapest_endpoint_by_hour(SCALE, SEED)
        theta_max = max(s["Theta"] for s in shares.values())
        ic_max = max(s["IC"] for s in shares.values())
        assert theta_max > 0.5
        assert ic_max > 0.5
        # And they peak at different hours.
        theta_peak = max(shares, key=lambda h: shares[h]["Theta"])
        ic_peak = max(shares, key=lambda h: shares[h]["IC"])
        assert theta_peak != ic_peak

    def test_shares_sum_to_one(self):
        shares = fig7_low_carbon.cheapest_endpoint_by_hour(SCALE, SEED)
        for hour, row in shares.items():
            assert sum(row.values()) == pytest.approx(1.0)
