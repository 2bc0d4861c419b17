"""Parameter sweeps (sensitivity and ablation studies).

All sweeps run through :mod:`repro.sim.engine`: each builds a batch of
declarative :class:`~repro.sim.engine.SimJob` specs (one shared full-power
baseline plus one managed run per swept value) and executes it with a
:class:`~repro.sim.fabric.FabricScheduler`, so repeated baselines are
computed once, results are cached on disk, and ``REPRO_JOBS`` parallelises
the batch without changing any value or ordering.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.core.config import PowerChopConfig
from repro.core.criticality import CriticalityThresholds
from repro.sim.engine import SimJob
from repro.sim.results import (
    SimulationResult,
    power_reduction,
    slowdown,
)
from repro.sim.simulator import GatingMode
from repro.uarch.config import DesignPoint
from repro.workloads.profiles import BenchmarkProfile


def _compare_record(
    label: str,
    full: SimulationResult,
    managed: SimulationResult,
) -> Dict[str, float]:
    return {
        "label": label,
        "slowdown": slowdown(full, managed),
        "power_reduction": power_reduction(full, managed),
        "vpu_gated_frac": managed.energy.vpu_gated_frac,
        "bpu_gated_frac": managed.energy.bpu_gated_frac,
    }


def _run_with_baseline(
    design: DesignPoint,
    profile: BenchmarkProfile,
    max_instructions: int,
    managed_jobs: List[SimJob],
) -> tuple:
    """Run (full baseline, *managed jobs) as one engine batch."""
    # Imported on use: the fabric loads asyncio and multiprocessing, which
    # ``import repro`` otherwise does without.
    from repro.sim.fabric import FabricScheduler

    baseline = SimJob(
        profile=profile,
        design=design,
        mode=GatingMode.FULL,
        max_instructions=max_instructions,
    )
    records = FabricScheduler().run([baseline, *managed_jobs])
    return records[0].result, [record.result for record in records[1:]]


def sweep_powerchop_thresholds(
    design: DesignPoint,
    profile: BenchmarkProfile,
    vpu_thresholds: Iterable[float],
    max_instructions: int = 400_000,
) -> List[Dict[str, float]]:
    """Sweep Threshold_VPU (and keep the others at defaults)."""
    thresholds = list(vpu_thresholds)
    jobs = [
        SimJob(
            profile=profile,
            design=design,
            mode=GatingMode.POWERCHOP,
            powerchop_config=PowerChopConfig(
                thresholds=CriticalityThresholds(vpu=threshold),
            ),
            max_instructions=max_instructions,
        )
        for threshold in thresholds
    ]
    full, managed = _run_with_baseline(design, profile, max_instructions, jobs)
    return [
        _compare_record(f"vpu_threshold={threshold}", full, result)
        for threshold, result in zip(thresholds, managed)
    ]


def sweep_window_sizes(
    design: DesignPoint,
    profile: BenchmarkProfile,
    window_sizes: Iterable[int],
    max_instructions: int = 400_000,
) -> List[Dict[str, float]]:
    """Sweep the execution window size (paper's sensitivity analysis)."""
    windows = list(window_sizes)
    jobs = [
        SimJob(
            profile=profile,
            design=design,
            mode=GatingMode.POWERCHOP,
            powerchop_config=PowerChopConfig(window_size=window),
            max_instructions=max_instructions,
        )
        for window in windows
    ]
    full, managed = _run_with_baseline(design, profile, max_instructions, jobs)
    records = []
    for window, result in zip(windows, managed):
        record = _compare_record(f"window={window}", full, result)
        record["pvt_miss_rate"] = result.pvt_miss_rate_per_translation
        records.append(record)
    return records


def sweep_signature_lengths(
    design: DesignPoint,
    profile: BenchmarkProfile,
    lengths: Iterable[int],
    max_instructions: int = 400_000,
) -> List[Dict[str, float]]:
    """Sweep the phase signature length N (paper settles on N = 4)."""
    lengths = list(lengths)
    jobs = [
        SimJob(
            profile=profile,
            design=design,
            mode=GatingMode.POWERCHOP,
            powerchop_config=PowerChopConfig(signature_length=length),
            max_instructions=max_instructions,
        )
        for length in lengths
    ]
    full, managed = _run_with_baseline(design, profile, max_instructions, jobs)
    records = []
    for length, result in zip(lengths, managed):
        record = _compare_record(f"signature_length={length}", full, result)
        record["new_phases"] = result.new_phases
        records.append(record)
    return records


def sweep_timeout_periods(
    design: DesignPoint,
    profile: BenchmarkProfile,
    timeout_cycles: Iterable[float],
    max_instructions: int = 400_000,
) -> List[Dict[str, float]]:
    """The §V-E timeout-period sweep (100 .. 100 K cycles)."""
    timeouts = list(timeout_cycles)
    jobs = [
        SimJob(
            profile=profile,
            design=design,
            mode=GatingMode.TIMEOUT,
            timeout_cycles=timeout,
            max_instructions=max_instructions,
        )
        for timeout in timeouts
    ]
    full, managed = _run_with_baseline(design, profile, max_instructions, jobs)
    return [
        _compare_record(f"timeout={timeout:g}", full, result)
        for timeout, result in zip(timeouts, managed)
    ]
