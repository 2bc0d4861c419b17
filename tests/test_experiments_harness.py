"""Tests for the experiment harness (small-scale, fast variants)."""

import pytest

from repro.experiments import common
from repro.experiments.common import (
    ExperimentResult,
    instructions_for,
    run_cached,
)
from repro.experiments import fig01_vpu_phases, fig15_vector_prevalence
from repro.experiments import table1_designs, table_hwcost
from repro.sim.simulator import GatingMode
from repro.uarch.config import MOBILE, SERVER


@pytest.fixture(autouse=True)
def small_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.05")
    common.clear_cache()
    yield
    common.clear_cache()


class TestCommon:
    def test_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        assert common.scale() == 0.5
        monkeypatch.setenv("REPRO_SCALE", "zero")
        with pytest.raises(ValueError):
            common.scale()
        for bad in ("-1", "nan", "inf"):
            monkeypatch.setenv("REPRO_SCALE", bad)
            with pytest.raises(ValueError):
                common.scale()

    def test_instructions_for_designs(self):
        assert instructions_for(MOBILE) > instructions_for(SERVER)
        assert instructions_for(SERVER, fraction=0.5) <= instructions_for(SERVER)
        assert instructions_for(SERVER) >= 200_000  # floor

    def test_run_cached_memoises(self):
        first, _ = run_cached("hmmer", GatingMode.FULL)
        second, _ = run_cached("hmmer", GatingMode.FULL)
        assert first is second

    def test_run_cached_distinguishes_modes(self):
        full, _ = run_cached("hmmer", GatingMode.FULL)
        chopped, _ = run_cached("hmmer", GatingMode.POWERCHOP)
        assert full is not chopped
        assert chopped.mode == "powerchop"

    def test_powerchop_runs_collect_phase_log(self):
        _result, phase_log = run_cached("hmmer", GatingMode.POWERCHOP)
        assert phase_log  # vectors collected for the Fig. 8 analysis

    def test_managed_units_key(self):
        vpu_only, _ = run_cached(
            "hmmer", GatingMode.POWERCHOP, managed_units=("vpu",)
        )
        all_units, _ = run_cached("hmmer", GatingMode.POWERCHOP)
        assert vpu_only is not all_units
        assert all_units.energy.bpu_gated_frac >= vpu_only.energy.bpu_gated_frac


class TestExperimentResult:
    def test_render_table(self):
        result = ExperimentResult(
            experiment_id="x",
            title="demo",
            headers=("a", "b"),
            rows=[(1, 2)],
            summary={"k": 1.0},
            notes=["hello"],
        )
        text = result.render()
        assert "== x: demo ==" in text
        assert "note: hello" in text
        assert "k=1" in text

    def test_render_bars(self):
        result = ExperimentResult(
            experiment_id="y",
            title="bars",
            bars=(("p", "q"), (0.5, 1.0), "u"),
        )
        assert "#" in result.render()


class TestLightExperiments:
    def test_fig01(self):
        result = fig01_vpu_phases.run(max_instructions=200_000)
        assert result.experiment_id == "fig01"
        assert result.summary["shards"] > 0

    def test_fig15(self):
        result = fig15_vector_prevalence.run(benchmarks=["namd", "milc"])
        rows = {r[0]: r for r in result.rows}
        assert set(rows) == {"namd", "milc"}

    def test_table1(self):
        result = table1_designs.run()
        assert any("1024KB 8-way" in str(row) for row in result.rows)

    def test_hwcost(self):
        result = table_hwcost.run()
        assert result.summary["pvt_storage_bytes"] == 264
