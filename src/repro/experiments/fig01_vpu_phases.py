"""Figure 1: vector-operation intensity over time for ``gobmk``.

The paper plots vector-op intensity across 200 K instructions of gobmk,
showing that VPU criticality varies sharply across execution — including
low-but-nonzero stretches that timeout-based gating cannot exploit.
"""

from __future__ import annotations

from typing import List

from repro.analysis import walks
from repro.experiments.common import ExperimentResult
from repro.sim import engine


def vector_intensity_series(
    benchmark: str = "gobmk",
    shard_instructions: int = 10_000,
    max_instructions: int = 2_000_000,
    seed: int | None = None,
) -> List[float]:
    """Fraction of instructions that are vector ops, per shard (cached)."""
    return engine.run_analysis(
        walks.vector_intensity_series,
        benchmark=benchmark,
        shard_instructions=shard_instructions,
        max_instructions=max_instructions,
        seed=seed,
    )


def run(max_instructions: int = 2_000_000) -> ExperimentResult:
    series = vector_intensity_series(max_instructions=max_instructions)
    n = len(series)
    quiet = sum(1 for v in series if v < 0.01)
    busy = sum(1 for v in series if v >= 0.05)
    # Downsample the series into a compact bar figure.
    step = max(1, n // 40)
    labels = [f"t{i * step:04d}" for i in range(0, n // step)]
    values = [
        sum(series[i * step : (i + 1) * step]) / step for i in range(0, n // step)
    ]
    result = ExperimentResult(
        experiment_id="fig01",
        title="Vector operation intensity over gobmk execution",
        bars=(labels, values, " vec/instr"),
        summary={
            "shards": n,
            "quiet_frac": quiet / n if n else 0.0,
            "busy_frac": busy / n if n else 0.0,
            "peak_intensity": max(series) if series else 0.0,
        },
        notes=[
            "Paper shape: intensity varies across phases, with long low-but-"
            "nonzero stretches (the timeout-defeating pattern).",
        ],
    )
    return result
