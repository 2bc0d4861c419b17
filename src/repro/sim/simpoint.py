"""SimPoint-style representative region selection.

The paper uses SimPoint to pick simulation regions from full benchmark
runs.  This module implements the same idea: split a trace into fixed-size
intervals, build a basic-block vector (BBV) per interval, cluster the BBVs
with k-means, and return one representative interval per cluster weighted
by cluster population.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.workloads.generator import SyntheticWorkload


@dataclass(frozen=True)
class SimPoint:
    """One representative interval."""

    interval_index: int
    start_instruction: int
    weight: float


def _collect_bbvs(
    workload: SyntheticWorkload, interval_instructions: int, max_instructions: int
) -> np.ndarray:
    """Basic-block vectors: per-interval instruction counts per block PC."""
    pc_index: Dict[int, int] = {}
    intervals: List[Dict[int, int]] = [{}]
    produced = 0
    boundary = interval_instructions
    for block_exec in workload.trace(max_instructions, addresses=False):
        block = block_exec.block
        idx = pc_index.setdefault(block.pc, len(pc_index))
        current = intervals[-1]
        current[idx] = current.get(idx, 0) + block.n_instr
        produced += block.n_instr
        if produced >= boundary:
            intervals.append({})
            boundary += interval_instructions
    if not intervals[-1]:
        intervals.pop()
    matrix = np.zeros((len(intervals), len(pc_index)))
    for i, counts in enumerate(intervals):
        for j, count in counts.items():
            matrix[i, j] = count
    # Normalise each BBV so intervals compare by code mix, not length.
    norms = matrix.sum(axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return matrix / norms


def _kmeans(matrix: np.ndarray, k: int, iterations: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    n = matrix.shape[0]
    centers = matrix[rng.choice(n, size=min(k, n), replace=False)]
    labels = np.zeros(n, dtype=int)
    for _ in range(iterations):
        distances = np.linalg.norm(matrix[:, None, :] - centers[None, :, :], axis=2)
        new_labels = distances.argmin(axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(centers.shape[0]):
            members = matrix[labels == c]
            if len(members):
                centers[c] = members.mean(axis=0)
    return labels


def select_simpoints(
    workload: SyntheticWorkload,
    interval_instructions: int = 100_000,
    max_instructions: int = 2_000_000,
    k: int = 4,
    iterations: int = 25,
    seed: int = 0,
) -> List[SimPoint]:
    """Pick representative intervals of a workload trace.

    Note: consumes the (single-use) workload; build a fresh instance for
    the actual simulation runs.
    """
    if interval_instructions < 1 or k < 1:
        raise ValueError("interval size and k must be >= 1")
    matrix = _collect_bbvs(workload, interval_instructions, max_instructions)
    n = matrix.shape[0]
    if n == 0:
        return []
    labels = _kmeans(matrix, k, iterations, seed)
    simpoints = []
    for cluster in sorted(set(labels.tolist())):
        members = np.flatnonzero(labels == cluster)
        center = matrix[members].mean(axis=0)
        representative = members[
            np.linalg.norm(matrix[members] - center, axis=1).argmin()
        ]
        simpoints.append(
            SimPoint(
                interval_index=int(representative),
                start_instruction=int(representative) * interval_instructions,
                weight=len(members) / n,
            )
        )
    return simpoints
