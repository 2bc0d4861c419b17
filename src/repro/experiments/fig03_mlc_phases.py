"""Figure 3: 128 KB 1-way vs 1024 KB 8-way MLC IPC over time (GemsFDTD).

The paper shows phases where the full MLC provides substantial IPC benefit
(working set fits the 8-way MLC but not 1 way) alternating with phases
where it does not (working set streams past any MLC).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.experiments.common import ExperimentResult, timeseries_ipc
from repro.sim.simulator import HybridSimulator
from repro.uarch.config import SERVER
from repro.workloads.suites import get_profile


#: Cache tag of the runs :func:`one_way_mlc` configures.  The tag stands
#: for the callback in the job's cache key, so change it whenever the
#: callback's behaviour changes.
ONE_WAY_MLC_TAG = "fig03-mlc-1way"


def one_way_mlc(simulator: HybridSimulator) -> None:
    """Run with the MLC gated down to one way (128 KB of 1024 KB)."""
    simulator.core.apply_mlc_state(1)


def ipc_series(
    benchmark: str = "gems",
    max_instructions: int = 6_000_000,
    sample_instructions: int = 100_000,
) -> Tuple[List[float], List[float]]:
    """Returns (1-way MLC IPC series, 8-way MLC IPC series)."""
    profile = get_profile(benchmark)
    small = timeseries_ipc(
        SERVER,
        profile,
        one_way_mlc,
        max_instructions,
        sample_instructions,
        cache_tag=ONE_WAY_MLC_TAG,
    )
    large = timeseries_ipc(
        SERVER, profile, None, max_instructions, sample_instructions
    )
    return small, large


def run(max_instructions: int = 6_000_000) -> ExperimentResult:
    small, large = ipc_series(max_instructions=max_instructions)
    n = min(len(small), len(large))
    small, large = small[:n], large[:n]
    gains = [(l - s) / s if s else 0.0 for s, l in zip(small, large)]
    helped = sum(1 for g in gains if g > 0.10)
    flat = sum(1 for g in gains if abs(g) <= 0.03)
    rows = [
        (f"t{i:03d}", round(small[i], 3), round(large[i], 3), f"{gains[i]:+.1%}")
        for i in range(0, n, max(1, n // 24))
    ]
    return ExperimentResult(
        experiment_id="fig03",
        title="128KB 1-way vs 1024KB 8-way MLC IPC over time (gems, server core)",
        headers=("sample", "ipc_1way", "ipc_8way", "gain"),
        rows=rows,
        summary={
            "samples": n,
            "mean_gain": sum(gains) / n if n else 0.0,
            "helped_frac": helped / n if n else 0.0,
            "flat_frac": flat / n if n else 0.0,
        },
        notes=[
            "Paper shape: the full MLC helps only when the phase working set"
            " fits it; streaming phases see little benefit.",
        ],
    )
