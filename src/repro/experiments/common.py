"""Shared infrastructure for the per-figure experiment modules."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import format_bars, format_table
from repro.sim import engine
from repro.sim.probes import IPCSeriesProbe
from repro.sim.results import SimulationResult
from repro.sim.simulator import GatingMode, HybridSimulator
from repro.uarch.config import DesignPoint, design_for_suite
from repro.workloads.profiles import BenchmarkProfile
from repro.workloads.suites import get_profile

#: Baseline per-run instruction budgets (multiplied by REPRO_SCALE).
_SERVER_INSTRUCTIONS = 4_000_000
_MOBILE_INSTRUCTIONS = 12_000_000


def scale() -> float:
    """Budget multiplier from the REPRO_SCALE environment variable."""
    try:
        value = float(os.environ.get("REPRO_SCALE", "1.0"))
    except ValueError as exc:
        raise ValueError("REPRO_SCALE must be a float") from exc
    # ``value <= 0`` alone is false for NaN and lets infinity through.
    if not (value > 0 and math.isfinite(value)):
        raise ValueError("REPRO_SCALE must be positive and finite")
    return value


def instructions_for(design: DesignPoint, fraction: float = 1.0) -> int:
    """Instruction budget for one run on ``design``.

    Mobile runs are longer: the mobile core has no LLC, so phase-edge
    rewarm effects need more amortisation for stable measurements.
    """
    base = _MOBILE_INSTRUCTIONS if design.kind == "mobile" else _SERVER_INSTRUCTIONS
    return max(200_000, int(base * fraction * scale()))


@dataclass
class ExperimentResult:
    """Rendered output plus raw records for one experiment."""

    experiment_id: str
    title: str
    headers: Sequence[str] = ()
    rows: List[Sequence] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    bars: Optional[Tuple[Sequence[str], Sequence[float], str]] = None
    summary: Dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        parts = [f"== {self.experiment_id}: {self.title} =="]
        if self.rows:
            parts.append(format_table(self.headers, self.rows))
        if self.bars is not None:
            labels, values, unit = self.bars
            parts.append(format_bars(labels, values, unit=unit))
        if self.summary:
            parts.append(
                "summary: "
                + ", ".join(f"{k}={v:.4g}" for k, v in sorted(self.summary.items()))
            )
        parts.extend(f"note: {note}" for note in self.notes)
        return "\n".join(parts)


# --------------------------------------------------------------- run cache


def clear_cache() -> None:
    """Drop the engine's per-process memo (the disk cache is unaffected)."""
    engine.clear_memo()


def run_cached(
    benchmark: str,
    mode: GatingMode,
    managed_units: Tuple[str, ...] = ("vpu", "bpu", "mlc"),
    timeout_cycles: float = 20_000.0,
    fraction: float = 1.0,
    configure: Optional[Callable[[HybridSimulator], None]] = None,
    cache_tag: str = "",
) -> Tuple[SimulationResult, list]:
    """Run (or reuse) one simulation; returns (result, phase log).

    A thin shim over :func:`repro.sim.engine.run_job`: the many figures
    that share the same full-power / PowerChop / minimal runs pay for them
    once per process (and once per machine, via the engine's on-disk
    cache).  PowerChop runs always collect phase vectors so the Fig. 8
    analysis can reuse them.

    ``configure`` callbacks are invisible to the cache key, so passing one
    without a distinguishing ``cache_tag`` raises ``ValueError``.
    """
    profile = get_profile(benchmark)
    design = design_for_suite(profile.suite)
    budget = instructions_for(design, fraction)
    job = engine.SimJob(
        benchmark=benchmark,
        mode=mode,
        managed_units=managed_units,
        timeout_cycles=timeout_cycles,
        max_instructions=budget,
        collect_phase_log=mode is GatingMode.POWERCHOP,
        configure=configure,
        cache_tag=cache_tag,
    )
    record = engine.run_job(job)
    return record.result, record.phase_log


def server_and_mobile_benchmarks() -> List[Tuple[str, DesignPoint]]:
    """All 29 benchmarks paired with their design point."""
    from repro.workloads.suites import ALL_BENCHMARKS

    return [(p.name, design_for_suite(p.suite)) for p in ALL_BENCHMARKS]


def timeseries_ipc(
    design: DesignPoint,
    profile: BenchmarkProfile,
    configure: Optional[Callable[[HybridSimulator], None]],
    max_instructions: int,
    sample_instructions: int,
    cache_tag: str = "",
) -> List[float]:
    """IPC sampled every ``sample_instructions`` (for Figs. 2 and 3).

    One full-power engine job with ``configure`` applied first (e.g.
    forcing the small BPU or a 1-way MLC; ``None`` runs ``design`` as
    built), recording windowed IPC through an
    :class:`~repro.sim.probes.IPCSeriesProbe` — including the trailing
    partial window when it covers at least half a sample.  The series is
    cached like any job result, so a ``configure`` callback needs a
    ``cache_tag`` naming what it does.
    """
    job = engine.SimJob(
        profile=profile,
        design=design,
        max_instructions=max_instructions,
        probes=(IPCSeriesProbe(sample_instructions=sample_instructions),),
        configure=configure,
        cache_tag=cache_tag,
    )
    return engine.run_job(job).probes["ipc_series"]
