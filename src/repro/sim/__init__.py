"""Simulation harness: simulator, engine (jobs/cache), sweeps, probes, results."""

from repro.sim.results import (
    SimulationResult,
    energy_reduction,
    leakage_reduction,
    power_reduction,
    slowdown,
)
from repro.sim.simulator import GatingMode, HybridSimulator, run_simulation
from repro.sim.engine import (
    JobRecord,
    ResultCache,
    SimJob,
    run_job,
)
from repro.sim.probes import (
    IPCSeriesProbe,
    PhaseLogProbe,
    ProbeSpec,
    ProbeState,
    StaticHintsProbe,
    UnitActivityProbe,
)
from repro.sim.sweep import (
    sweep_powerchop_thresholds,
    sweep_signature_lengths,
    sweep_timeout_periods,
    sweep_window_sizes,
)
from repro.sim.simpoint import SimPoint, select_simpoints

__all__ = [
    "GatingMode",
    "HybridSimulator",
    "run_simulation",
    "SimulationResult",
    "slowdown",
    "power_reduction",
    "energy_reduction",
    "leakage_reduction",
    "SimJob",
    "JobRecord",
    "ResultCache",
    "run_job",
    "ProbeSpec",
    "ProbeState",
    "IPCSeriesProbe",
    "PhaseLogProbe",
    "StaticHintsProbe",
    "UnitActivityProbe",
    "sweep_powerchop_thresholds",
    "sweep_timeout_periods",
    "sweep_window_sizes",
    "sweep_signature_lengths",
    "SimPoint",
    "select_simpoints",
]
