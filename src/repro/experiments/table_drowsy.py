"""Related-work comparison: drowsy MLC vs PowerChop way-gating (§VI).

The paper's related work cites Flautner et al.'s drowsy cache as the
per-line leakage alternative for caches.  This experiment quantifies the
comparison on our substrate: a periodically-drowsed MLC retains state (no
rewarm, tiny wake penalty) and cuts *MLC leakage only* toward the drowsy
floor, while PowerChop's way gating reaches the deeper power-gated floor
(5 % vs 25 % retention leakage), additionally saves MLC *dynamic* energy in
gated states, and extends to non-cache units (VPU, BPU) a drowsy scheme
cannot cover.

The drowsy model is driven by the workload's MLC-demand stream (addresses
filtered through a private L1 of the same geometry) with time approximated
at one instruction per cycle — adequate for a leakage-residency bound, as
noted in EXPERIMENTS.md.  The walk itself is
:func:`repro.analysis.walks.drowsy_mlc_walk`, cached as an engine analysis.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis import walks
from repro.experiments.common import ExperimentResult, instructions_for, run_cached
from repro.sim import engine
from repro.sim.simulator import GatingMode
from repro.uarch.config import design_for_suite
from repro.workloads.suites import get_profile

_DEFAULT_APPS = ("gems", "libquantum", "hmmer", "amazon")


def drowsy_mlc_stats(
    benchmark: str, interval_cycles: float = 4000.0, fraction: float = 0.25
):
    """Drowsy-MLC leakage factor, wake overhead and drowse events.

    The walk is a cached engine analysis.  Its wake stalls are rescaled
    here by the benchmark's full-power CPI, so the cached value never
    depends on a simulation result outside its key.
    """
    design = design_for_suite(get_profile(benchmark).suite)
    walk = engine.run_analysis(
        walks.drowsy_mlc_walk,
        benchmark=benchmark,
        interval_cycles=interval_cycles,
        max_instructions=instructions_for(design, fraction),
    )
    cycles = walk["cycles"]
    # Overhead relative to realistic cycle counts: rescale the 1-IPC time
    # approximation by the benchmark's measured full-power CPI.
    full, _ = run_cached(benchmark, GatingMode.FULL)
    cpi = full.cycles / full.instructions if full.instructions else 1.0
    wake_overhead = walk["wake_stall_cycles"] / (cycles * cpi) if cycles else 0.0
    return walk["leak_factor"], wake_overhead, walk["drowse_events"]


def powerchop_mlc_leak_factor(benchmark: str) -> float:
    """Effective MLC leakage multiplier under PowerChop way-gating."""
    profile = get_profile(benchmark)
    design = design_for_suite(profile.suite)
    result, _ = run_cached(benchmark, GatingMode.POWERCHOP)
    gated = design.gated_leakage_frac
    factor = 0.0
    for ways, residency in result.energy.mlc_way_residency.items():
        active = ways / design.mlc_assoc
        factor += residency * (active + (1.0 - active) * gated)
    return factor


def run(benchmarks: Sequence[str] = _DEFAULT_APPS) -> ExperimentResult:
    rows = []
    chop_better = 0
    for name in benchmarks:
        drowsy_factor, wake_overhead, events = drowsy_mlc_stats(name)
        chop_factor = powerchop_mlc_leak_factor(name)
        if chop_factor < drowsy_factor:
            chop_better += 1
        rows.append(
            (
                name,
                f"{1 - drowsy_factor:.1%}",
                f"{wake_overhead:.3%}",
                f"{1 - chop_factor:.1%}",
            )
        )
    return ExperimentResult(
        experiment_id="table_drowsy",
        title="MLC leakage reduction: drowsy cache vs PowerChop way gating",
        headers=(
            "benchmark",
            "drowsy_mlc_leak_saved",
            "drowsy_wake_overhead",
            "powerchop_mlc_leak_saved",
        ),
        rows=rows,
        summary={"apps_where_powerchop_saves_more": float(chop_better)},
        notes=[
            "Drowsy mode saves MLC leakage on every app (bounded by the 25% "
            "retention floor) but cannot save MLC dynamic energy and does "
            "not generalise to the VPU/BPU; PowerChop reaches the 5% "
            "power-gated floor on apps with non-critical MLC phases.",
        ],
    )
