"""Golden-trace regression fixtures: specs, capture, and comparison.

A golden spec pins one fully deterministic run — ``(profile, seed,
config)`` — and captures the sequence of *decision* events it produces:
``POLICY_DECISION`` plus ``UNIT_GATE``/``UNIT_REGATE``.  Those are the
events that encode PowerChop's behaviour; cycle-accounting noise (cache
hits, instant markers) is deliberately excluded so goldens only move when
the mechanism's decisions change.

The checked-in fixtures live in ``tests/goldens/<name>.json``; regenerate
them with ``python scripts/update_goldens.py`` after an *intentional*
behaviour change, and inspect the diff before committing.  Each fixture
records the :data:`~repro.sim.engine.RESULT_SEMANTICS_VERSION` it was
captured under; the script refuses to change a fixture's decisions
without a bump, so a behaviour change cannot leave stale results in warm
result caches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.config import PowerChopConfig
from repro.obs.events import OBS_SCHEMA_VERSION, EventKind, event_to_jsonable
from repro.sim.engine import RESULT_SEMANTICS_VERSION
from repro.sim.simulator import GatingMode, HybridSimulator
from repro.workloads.profiles import build_workload
from repro.workloads.suites import get_profile

__all__ = ["GOLDEN_SPECS", "GoldenSpec", "capture_golden", "diff_goldens"]

#: Event kinds a golden records (the mechanism's decision stream).
GOLDEN_KINDS = (
    EventKind.POLICY_DECISION,
    EventKind.UNIT_GATE,
    EventKind.UNIT_REGATE,
)


@dataclass(frozen=True)
class GoldenSpec:
    """One pinned (profile, seed, config) regression run."""

    name: str
    benchmark: str
    seed: int
    max_instructions: int
    config: PowerChopConfig

    def run(self) -> HybridSimulator:
        """Execute the pinned run at full observability."""
        profile = get_profile(self.benchmark)
        from repro.uarch.config import design_for_suite

        simulator = HybridSimulator(
            design_for_suite(profile.suite),
            build_workload(profile, self.seed),
            mode=GatingMode.POWERCHOP,
            powerchop_config=self.config,
            obs_level="full",
        )
        simulator.run(self.max_instructions)
        return simulator


#: Small windows + short warmup so a few hundred thousand instructions
#: produce a rich decision stream; seeds pin the generated workloads.
#: The three benchmarks were chosen for decision density: all produce
#: policy decisions AND gate/regate activity at this budget.
_QUICK = PowerChopConfig(window_size=100, warmup_windows=1)

GOLDEN_SPECS: Tuple[GoldenSpec, ...] = (
    GoldenSpec("bzip2_s7", "bzip2", seed=7, max_instructions=300_000, config=_QUICK),
    GoldenSpec(
        "libquantum_s5",
        "libquantum",
        seed=5,
        max_instructions=400_000,
        config=_QUICK,
    ),
    GoldenSpec("lbm_s5", "lbm", seed=5, max_instructions=400_000, config=_QUICK),
)


def capture_golden(spec: GoldenSpec) -> Dict:
    """Run the spec and return its JSON-ready golden fixture."""
    simulator = spec.run()
    events = [
        event_to_jsonable(event)
        for event in simulator.tracer.events()
        if event.kind in GOLDEN_KINDS
    ]
    return {
        "schema": OBS_SCHEMA_VERSION,
        "result_semantics": RESULT_SEMANTICS_VERSION,
        "name": spec.name,
        "benchmark": spec.benchmark,
        "seed": spec.seed,
        "max_instructions": spec.max_instructions,
        "events": events,
    }


def diff_goldens(expected: Dict, actual: Dict) -> List[str]:
    """Event-for-event comparison; returns human-readable mismatch lines.

    An empty list means the traces agree.  The first divergent event is
    reported with both sides, then length/count summaries — enough to see
    *what* changed without dumping both streams.
    """
    problems: List[str] = []
    for field in ("schema", "result_semantics"):
        if expected.get(field) != actual.get(field):
            problems.append(
                f"{field}: expected {expected.get(field)}, got {actual.get(field)}"
            )
    exp_events = expected.get("events", [])
    act_events = actual.get("events", [])
    for index, (exp, act) in enumerate(zip(exp_events, act_events)):
        if exp != act:
            problems.append(
                f"event {index} diverges:\n  expected: {exp}\n  actual:   {act}"
            )
            break
    if len(exp_events) != len(act_events):
        problems.append(
            f"event count: expected {len(exp_events)}, got {len(act_events)}"
        )
    return problems
