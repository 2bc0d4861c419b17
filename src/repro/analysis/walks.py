"""Read-only workload walks behind the experiments' cached analyses.

Each function walks a freshly built workload's block trace and returns a
JSON-native value.  The experiments never call them directly: they go
through :func:`repro.sim.engine.run_analysis`, which runs a walk once and
replays its value from the result cache afterwards, so a warm regeneration
walks nothing.  Every input is a keyword-only parameter without a default,
so each one is named at the call site and therefore part of the cache key.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.uarch.cache.cache import SetAssocCache
from repro.uarch.cache.drowsy import DrowsyMLCController, DrowsySetAssocCache
from repro.uarch.config import design_for_suite
from repro.workloads.profiles import build_workload
from repro.workloads.suites import get_profile


def _vector_shards(
    benchmark: str, shard_instructions: int, max_instructions: int, seed: Optional[int]
) -> Iterator[Tuple[int, int]]:
    """``(vector ops, instructions)`` per shard of >= ``shard_instructions``."""
    workload = build_workload(get_profile(benchmark), seed)
    shard_instr = 0
    shard_vec = 0
    for block_exec in workload.trace(max_instructions, addresses=False):
        block = block_exec.block
        shard_instr += block.n_instr
        shard_vec += block.n_vec
        if shard_instr >= shard_instructions:
            yield shard_vec, shard_instr
            shard_instr = 0
            shard_vec = 0


def vector_intensity_series(
    *, benchmark: str, shard_instructions: int, max_instructions: int, seed: Optional[int]
) -> List[float]:
    """Fraction of instructions that are vector ops, per shard (Fig. 1)."""
    return [
        vec / instr
        for vec, instr in _vector_shards(
            benchmark, shard_instructions, max_instructions, seed
        )
    ]


def shard_histogram(
    *, benchmark: str, shard_instructions: int, max_instructions: int
) -> Dict[str, float]:
    """Fractions of shards with V=0, 0<V<=4, V>4 vector operations (Fig. 15)."""
    zero = low = high = 0
    for vec, _instr in _vector_shards(
        benchmark, shard_instructions, max_instructions, None
    ):
        if vec == 0:
            zero += 1
        elif vec <= 4:
            low += 1
        else:
            high += 1
    total = max(zero + low + high, 1)
    return {"zero": zero / total, "low": low / total, "high": high / total}


def drowsy_mlc_walk(
    *, benchmark: str, interval_cycles: float, max_instructions: int
) -> Dict[str, float]:
    """Replay a workload's MLC-demand stream through a drowsy MLC (§VI).

    Addresses are filtered through a private L1 of the suite design's
    geometry, and time is approximated at one instruction per cycle.
    Returns the walk's ``cycles``, the MLC ``leak_factor``, the total
    ``wake_stall_cycles`` and the number of ``drowse_events``.
    """
    profile = get_profile(benchmark)
    design = design_for_suite(profile.suite)
    workload = build_workload(profile)
    l1 = SetAssocCache(design.l1_kb, design.l1_assoc, design.line_size, "L1")
    mlc = DrowsySetAssocCache(
        design.mlc_kb, design.mlc_assoc, design.line_size, "drowsyMLC"
    )
    controller = DrowsyMLCController(mlc, interval_cycles)
    cycles = 0.0
    for block_exec in workload.trace(max_instructions):
        cycles += block_exec.block.n_instr  # ~1 IPC time approximation
        controller.tick(cycles)
        addresses = block_exec.addresses
        if addresses:
            loads = block_exec.block.n_loads
            for i, addr in enumerate(addresses):
                if not l1.access(addr, i >= loads):
                    mlc.access_timed(addr, cycles, i >= loads)
    return {
        "cycles": cycles,
        "leak_factor": controller.mlc_leakage_factor(cycles),
        "wake_stall_cycles": controller.wake_stall_cycles(),
        "drowse_events": controller.drowse_events,
    }
