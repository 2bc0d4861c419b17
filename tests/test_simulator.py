"""End-to-end tests for the hybrid processor simulator."""

import gc
import weakref

import pytest

from repro.sim.results import (
    energy_reduction,
    leakage_reduction,
    power_reduction,
    slowdown,
)
from repro.sim.simulator import GatingMode, HybridSimulator, run_simulation
from repro.uarch.config import MOBILE, SERVER
from repro.workloads.profiles import build_workload


class TestBasicRuns:
    def test_full_run_produces_result(self, run_quick):
        result, _sim = run_quick(GatingMode.FULL)
        assert result.instructions >= 120_000
        assert result.cycles > 0
        assert 0.05 < result.ipc < 4.0
        assert result.energy is not None
        assert result.energy.avg_power_w > 0

    def test_instruction_budget_respected(self, tiny_profile):
        workload = build_workload(tiny_profile)
        simulator = HybridSimulator(SERVER, workload)
        result = simulator.run(30_000)
        assert 30_000 <= result.instructions < 30_500

    def test_single_use(self, tiny_profile):
        workload = build_workload(tiny_profile)
        simulator = HybridSimulator(SERVER, workload)
        simulator.run(5_000)
        with pytest.raises(RuntimeError):
            simulator.run(5_000)

    def test_bad_budget(self, tiny_profile):
        simulator = HybridSimulator(SERVER, build_workload(tiny_profile))
        with pytest.raises(ValueError):
            simulator.run(0)

    @pytest.mark.parametrize("mode", list(GatingMode), ids=lambda m: m.value)
    def test_finished_run_is_freed_by_reference_counting(self, tiny_profile, mode):
        """No reference cycle keeps a finished run's state alive until the
        cyclic collector next runs: the PowerChop controller holds the
        nucleus, and the nucleus holds the controller's handler weakly."""
        gc.disable()
        try:
            simulator = HybridSimulator(SERVER, build_workload(tiny_profile), mode)
            core = weakref.ref(simulator.core)
            simulator.run(30_000)
            del simulator
            assert core() is None
        finally:
            gc.enable()

    def test_deterministic_replay(self, tiny_profile):
        a = run_simulation(SERVER, tiny_profile, GatingMode.FULL, 60_000)
        b = run_simulation(SERVER, tiny_profile, GatingMode.FULL, 60_000)
        assert a.cycles == b.cycles
        assert a.mispredicts == b.mispredicts
        assert a.energy.total_j == pytest.approx(b.energy.total_j)


class TestModes:
    def test_minimal_slower_than_full(self, run_quick):
        full, _ = run_quick(GatingMode.FULL)
        minimal, _ = run_quick(GatingMode.MINIMAL)
        assert slowdown(full, minimal) > 0.0

    def test_minimal_lower_leakage(self, run_quick):
        full, _ = run_quick(GatingMode.FULL)
        minimal, _ = run_quick(GatingMode.MINIMAL)
        assert leakage_reduction(full, minimal) > 0.3

    def test_minimal_unit_states(self, run_quick):
        minimal, sim = run_quick(GatingMode.MINIMAL)
        assert minimal.energy.vpu_gated_frac == 1.0
        assert minimal.energy.bpu_gated_frac == 1.0
        assert minimal.energy.mlc_way_residency == {1: 1.0}
        assert sim.core.vpu.emulated_ops > 0

    def test_powerchop_gates_and_saves(self, run_quick):
        full, _ = run_quick(GatingMode.FULL, max_instructions=400_000)
        chopped, sim = run_quick(GatingMode.POWERCHOP, max_instructions=400_000)
        assert chopped.windows > 5
        assert chopped.pvt_lookups > 0
        assert power_reduction(full, chopped) > 0.0
        assert abs(slowdown(full, chopped)) < 0.25

    def test_powerchop_stats_populated(self, run_quick):
        chopped, sim = run_quick(GatingMode.POWERCHOP, max_instructions=300_000)
        assert chopped.new_phases > 0
        assert chopped.cde_invocations >= chopped.new_phases
        assert chopped.translation_executions > 0
        assert "nucleus_cycles" in chopped.extra

    def test_timeout_mode_gates_idle_vpu(self, run_quick):
        timed, sim = run_quick(GatingMode.TIMEOUT, max_instructions=300_000)
        # tiny profile has a scalar phase long enough for the timeout.
        assert sim.timeout_controller is not None
        assert timed.energy.vpu_gated_frac > 0.0

    def test_mobile_design_runs(self, tiny_profile):
        result = run_simulation(MOBILE, tiny_profile, GatingMode.FULL, 60_000)
        assert result.design == MOBILE.name
        assert result.cycles > 0


class TestEnergyConsistency:
    def test_energy_equals_power_times_time(self, run_quick):
        result, _ = run_quick(GatingMode.FULL)
        energy = result.energy
        assert energy.total_j == pytest.approx(
            energy.avg_power_w * energy.seconds, rel=1e-9
        )

    def test_residencies_sum_to_one(self, run_quick):
        chopped, _ = run_quick(GatingMode.POWERCHOP, max_instructions=300_000)
        energy = chopped.energy
        assert sum(energy.mlc_way_residency.values()) == pytest.approx(1.0)
        assert 0.0 <= energy.vpu_on_frac <= 1.0
        assert 0.0 <= energy.bpu_on_frac <= 1.0

    def test_leakage_bounded_by_core_budget(self, run_quick):
        result, _ = run_quick(GatingMode.FULL)
        assert result.energy.avg_leakage_w <= SERVER.core_leakage_w * 1.0001


class TestComparisons:
    def test_comparison_requires_same_workload(self, run_quick, tiny_profile):
        full, _ = run_quick(GatingMode.FULL)
        other = run_simulation(MOBILE, tiny_profile, GatingMode.FULL, 60_000)
        with pytest.raises(ValueError):
            slowdown(full, other)

    def test_reduction_metrics_consistent(self, run_quick):
        full, _ = run_quick(GatingMode.FULL)
        minimal, _ = run_quick(GatingMode.MINIMAL)
        assert energy_reduction(full, minimal) <= power_reduction(full, minimal)
