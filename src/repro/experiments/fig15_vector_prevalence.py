"""Figure 15: vector-operation prevalence among 1000-instruction shards.

The paper bins execution shards by how many vector operations they contain
(V = 0, 0 < V <= 4, V > 4): many applications have phases whose shards
carry a *small but nonzero* number of vector ops — exactly the pattern a
timeout cannot gate (the unit never goes idle long enough) but PowerChop
can (the BT emulates the stragglers and keeps the VPU off).
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis import walks
from repro.experiments.common import ExperimentResult
from repro.sim import engine
from repro.workloads.suites import ALL_BENCHMARKS


def shard_histogram(
    benchmark: str,
    shard_instructions: int = 1000,
    max_instructions: int = 1_000_000,
) -> Dict[str, float]:
    """Fractions of shards with V=0, 0<V<=4, V>4 vector operations (cached)."""
    return engine.run_analysis(
        walks.shard_histogram,
        benchmark=benchmark,
        shard_instructions=shard_instructions,
        max_instructions=max_instructions,
    )


def run(benchmarks: List[str] | None = None) -> ExperimentResult:
    names = benchmarks or [p.name for p in ALL_BENCHMARKS]
    rows = []
    sparse_apps = 0
    for name in names:
        hist = shard_histogram(name)
        if hist["low"] > 0.10:
            sparse_apps += 1
        rows.append(
            (
                name,
                f"{hist['zero']:.1%}",
                f"{hist['low']:.1%}",
                f"{hist['high']:.1%}",
            )
        )
    return ExperimentResult(
        experiment_id="fig15",
        title="Vector-op prevalence per 1000-instruction shard (V=0 / 0<V<=4 / V>4)",
        headers=("benchmark", "V=0", "0<V<=4", "V>4"),
        rows=rows,
        summary={"apps_with_sparse_shards": float(sparse_apps)},
        notes=[
            "Paper shape: several applications have many shards with a small"
            " nonzero vector count — the timeout-defeating pattern.",
        ],
    )
