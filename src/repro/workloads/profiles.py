"""Declarative benchmark profiles and workload instantiation."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.workloads.generator import (
    MemoryBehavior,
    PhaseSpec,
    RegionBuilder,
    SyntheticWorkload,
)

#: Default mix of branch behaviour classes (see repro.isa.branches).
DEFAULT_BRANCH_MIX: Mapping[str, float] = {
    "biased": 0.55,
    "loop": 0.25,
    "pattern": 0.10,
    "global": 0.05,
    "random": 0.05,
}


@dataclass(frozen=True)
class RegionSpec:
    """Static-code parameters for one code region.

    ``branch_mix`` weights decide which behaviour model each static branch
    gets; regions heavy in ``global``/``pattern`` branches make the large
    tournament BPU critical, regions of strongly ``biased`` branches do not.
    ``vector_style`` places vector work densely on the main path, sparsely on
    rarely-taken side blocks, or nowhere.
    """

    n_blocks: int = 12
    avg_block_size: int = 14
    mem_frac: float = 0.30
    store_frac: float = 0.30
    vector_frac: float = 0.0
    vector_style: str = "none"
    branch_mix: Mapping[str, float] = field(default_factory=lambda: dict(DEFAULT_BRANCH_MIX))
    bias: float = 0.92
    side_block_prob: float = 0.25


@dataclass(frozen=True)
class PhaseDecl:
    """One application phase: a region spec, data behaviour and duration."""

    name: str
    region: RegionSpec
    memory: MemoryBehavior
    blocks: int = 64000  # block executions per schedule visit


@dataclass(frozen=True)
class BenchmarkProfile:
    """A complete synthetic benchmark description.

    ``schedule`` is the sequence of phase names executed per iteration of the
    program's outer loop; the trace generator repeats it until the requested
    instruction budget is met, which produces the recurring-phase structure
    PowerChop's PVT exploits.
    """

    name: str
    suite: str
    phases: Tuple[PhaseDecl, ...]
    schedule: Tuple[str, ...]
    seed: int = 1
    description: str = ""

    def __post_init__(self) -> None:
        names = {p.name for p in self.phases}
        if len(names) != len(self.phases):
            raise ValueError(f"{self.name}: duplicate phase names")
        missing = [s for s in self.schedule if s not in names]
        if missing:
            raise ValueError(f"{self.name}: schedule references unknown phases {missing}")

    def phase(self, name: str) -> PhaseDecl:
        for decl in self.phases:
            if decl.name == name:
                return decl
        raise KeyError(name)


def build_workload(
    profile: BenchmarkProfile, seed: Optional[int] = None
) -> SyntheticWorkload:
    """Instantiate a fresh, stateful workload from a profile.

    Workloads are single-use; rebuilding with the same seed replays the
    identical guest instruction stream, which is how full-power / PowerChop /
    minimal-power configurations are compared on equal footing.
    """
    seed = profile.seed if seed is None else seed
    rng = random.Random(seed)
    builder = RegionBuilder(rng, pc_base=0x40_0000)
    phase_specs = []
    for region_id, decl in enumerate(profile.phases):
        spec = decl.region
        region = builder.build(
            region_id=region_id,
            n_blocks=spec.n_blocks,
            avg_block_size=spec.avg_block_size,
            mem_frac=spec.mem_frac,
            store_frac=spec.store_frac,
            vector_frac=spec.vector_frac,
            vector_style=spec.vector_style,
            branch_mix=dict(spec.branch_mix),
            bias=spec.bias,
            side_block_prob=spec.side_block_prob,
        )
        phase_specs.append(PhaseSpec(decl.name, region, decl.memory))
    schedule = [(name, profile.phase(name).blocks) for name in profile.schedule]
    return SyntheticWorkload(profile.name, profile.suite, phase_specs, schedule, seed)


def regions_of(workload: SyntheticWorkload) -> Dict[int, object]:
    """Map region id -> CodeRegion for the BT subsystem's code discovery."""
    return {p.region.region_id: p.region for p in workload.phases.values()}
