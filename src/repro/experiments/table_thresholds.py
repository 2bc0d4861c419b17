"""Ablation: criticality-threshold policy presets (paper §V-A).

The paper chooses thresholds that "enable significant power draw reductions
while minimizing the performance impact" and notes more aggressive
energy-minimising policies are possible.  This ablation compares three
presets — conservative, default (the paper's operating point), aggressive —
across a behaviourally-diverse subset of benchmarks.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.analysis.metrics import mean
from repro.core.config import PowerChopConfig
from repro.core.criticality import CriticalityThresholds
from repro.experiments.common import (
    ExperimentResult,
    instructions_for,
    run_cached,
)
from repro.sim import engine
from repro.sim.results import power_reduction, slowdown
from repro.sim.simulator import GatingMode
from repro.uarch.config import design_for_suite
from repro.workloads.suites import get_profile

_DEFAULT_APPS = ("hmmer", "gobmk", "soplex", "gems")

PRESETS = {
    "conservative": CriticalityThresholds.conservative(),
    "default": CriticalityThresholds(),
    "aggressive": CriticalityThresholds.aggressive(),
}


def _run_with_thresholds(
    benchmark: str, thresholds: CriticalityThresholds, fraction: float
):
    design = design_for_suite(get_profile(benchmark).suite)
    job = engine.SimJob(
        benchmark=benchmark,
        mode=GatingMode.POWERCHOP,
        powerchop_config=PowerChopConfig(thresholds=thresholds),
        max_instructions=instructions_for(design, fraction),
    )
    return engine.run_job(job).result


def run(
    benchmarks: Sequence[str] = _DEFAULT_APPS, fraction: float = 0.5
) -> ExperimentResult:
    rows = []
    per_preset: Dict[str, Dict[str, List[float]]] = {
        name: {"slowdown": [], "power": []} for name in PRESETS
    }
    for name in benchmarks:
        full, _ = run_cached(name, GatingMode.FULL, fraction=fraction)
        for preset_name, thresholds in PRESETS.items():
            managed = _run_with_thresholds(name, thresholds, fraction)
            slow = slowdown(full, managed)
            power = power_reduction(full, managed)
            per_preset[preset_name]["slowdown"].append(slow)
            per_preset[preset_name]["power"].append(power)
            rows.append((name, preset_name, f"{slow:+.2%}", f"{power:.2%}"))
    summary = {}
    for preset_name, metrics in per_preset.items():
        summary[f"{preset_name}_slowdown"] = mean(metrics["slowdown"])
        summary[f"{preset_name}_power_reduction"] = mean(metrics["power"])
    return ExperimentResult(
        experiment_id="table_thresholds",
        title="Criticality-threshold presets: performance vs power frontier",
        headers=("benchmark", "preset", "slowdown", "power_reduction"),
        rows=rows,
        summary=summary,
        notes=[
            "Paper §V-A: chosen thresholds minimise performance impact; "
            "higher thresholds trade slowdown for energy.",
        ],
    )
