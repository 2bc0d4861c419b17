"""Energy accounting: integrates leakage and dynamic energy over a run.

The accountant segments time by unit power state (VPU on/off, BPU large
side on/off, MLC active ways) so that state-dependent leakage and
per-access energy are integrated exactly, and it charges the Eq. 1 switch
overhead for every gating transition.  Figures 9/10 (unit activity) come
straight from the state residencies it records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.power.gating import GatingOverheadModel
from repro.power.mcpat import CorePowerModel
from repro.uarch.config import DesignPoint
from repro.uarch.core import CoreModel


@dataclass
class EnergyReport:
    """Final energy/power breakdown for one simulation run."""

    cycles: float
    seconds: float
    leakage_j: float
    dynamic_j: float
    switch_overhead_j: float
    unit_leakage_j: Dict[str, float]
    unit_dynamic_j: Dict[str, float]
    vpu_on_frac: float
    bpu_on_frac: float
    mlc_way_residency: Dict[int, float]
    switch_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def total_j(self) -> float:
        return self.leakage_j + self.dynamic_j + self.switch_overhead_j

    @property
    def avg_power_w(self) -> float:
        return self.total_j / self.seconds if self.seconds else 0.0

    @property
    def avg_leakage_w(self) -> float:
        return self.leakage_j / self.seconds if self.seconds else 0.0

    @property
    def vpu_gated_frac(self) -> float:
        return 1.0 - self.vpu_on_frac

    @property
    def bpu_gated_frac(self) -> float:
        return 1.0 - self.bpu_on_frac

    def mlc_gated_frac(self, full_ways: int) -> float:
        """Fraction of cycles the MLC ran with fewer than all ways."""
        return sum(
            frac for ways, frac in self.mlc_way_residency.items() if ways < full_ways
        )

    def to_dict(self) -> Dict:
        """JSON-serialisable form; inverse of :meth:`from_dict`."""
        return {
            "cycles": self.cycles,
            "seconds": self.seconds,
            "leakage_j": self.leakage_j,
            "dynamic_j": self.dynamic_j,
            "switch_overhead_j": self.switch_overhead_j,
            "unit_leakage_j": dict(self.unit_leakage_j),
            "unit_dynamic_j": dict(self.unit_dynamic_j),
            "vpu_on_frac": self.vpu_on_frac,
            "bpu_on_frac": self.bpu_on_frac,
            "mlc_way_residency": {
                str(ways): frac for ways, frac in self.mlc_way_residency.items()
            },
            "switch_counts": dict(self.switch_counts),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "EnergyReport":
        """Rebuild a report from :meth:`to_dict` output (or parsed JSON)."""
        return cls(
            cycles=data["cycles"],
            seconds=data["seconds"],
            leakage_j=data["leakage_j"],
            dynamic_j=data["dynamic_j"],
            switch_overhead_j=data["switch_overhead_j"],
            unit_leakage_j=dict(data["unit_leakage_j"]),
            unit_dynamic_j=dict(data["unit_dynamic_j"]),
            vpu_on_frac=data["vpu_on_frac"],
            bpu_on_frac=data["bpu_on_frac"],
            mlc_way_residency={
                int(ways): frac for ways, frac in data["mlc_way_residency"].items()
            },
            switch_counts=dict(data["switch_counts"]),
        )


class EnergyAccounting:
    """Streaming energy integrator; one instance per simulation run.

    Create it *after* the run's initial gating states have been applied to
    the core; call :meth:`on_switch` at every gating transition and
    :meth:`finalize` once at the end of the run.
    """

    def __init__(
        self,
        design: DesignPoint,
        core: CoreModel,
        power_model: CorePowerModel | None = None,
    ) -> None:
        self.design = design
        self.core = core
        self.power = power_model or CorePowerModel(design)
        self.gating = GatingOverheadModel(design, self.power)

        states = core.states
        self._seg_start = {"vpu": 0.0, "bpu": 0.0, "mlc": 0.0}
        self._vpu_state = states.vpu_on
        self._bpu_state = states.bpu_large_on
        self._mlc_state = states.mlc_ways

        self._vpu_cycles: Dict[bool, float] = {True: 0.0, False: 0.0}
        self._bpu_cycles: Dict[bool, float] = {True: 0.0, False: 0.0}
        self._mlc_cycles: Dict[int, float] = {}

        self._bpu_lookup_snapshot = core.bpu.lookups
        self._mlc_access_snapshot = core.hierarchy.mlc.accesses
        self._bpu_dynamic_j = 0.0
        self._mlc_dynamic_j = 0.0
        self.switch_overhead_j = 0.0
        self.switch_counts: Dict[str, int] = {"vpu": 0, "bpu": 0, "mlc": 0}
        self._finalized = False

    # --------------------------------------------------------- transitions

    def on_switch(self, unit: str, new_state, now_cycles: float) -> None:
        """Record a gating transition at simulation time ``now_cycles``."""
        if unit == "vpu":
            self._close_vpu(now_cycles)
            self._vpu_state = bool(new_state)
        elif unit == "bpu":
            self._close_bpu(now_cycles)
            self._bpu_state = bool(new_state)
        elif unit == "mlc":
            self._close_mlc(now_cycles)
            self._mlc_state = int(new_state)
        else:
            raise KeyError(f"unknown unit {unit!r}")
        self.switch_counts[unit] += 1
        self.switch_overhead_j += self.gating.switch_energy_j(unit)

    def _close_vpu(self, now: float) -> None:
        self._vpu_cycles[self._vpu_state] += now - self._seg_start["vpu"]
        self._seg_start["vpu"] = now

    def _close_bpu(self, now: float) -> None:
        self._bpu_cycles[self._bpu_state] += now - self._seg_start["bpu"]
        self._seg_start["bpu"] = now
        lookups = self.core.bpu.lookups
        delta = lookups - self._bpu_lookup_snapshot
        self._bpu_lookup_snapshot = lookups
        self._bpu_dynamic_j += delta * self.power.bpu_lookup_energy_j(self._bpu_state)

    def _close_mlc(self, now: float) -> None:
        ways = self._mlc_state
        self._mlc_cycles[ways] = (
            self._mlc_cycles.get(ways, 0.0) + now - self._seg_start["mlc"]
        )
        self._seg_start["mlc"] = now
        accesses = self.core.hierarchy.mlc.accesses
        delta = accesses - self._mlc_access_snapshot
        self._mlc_access_snapshot = accesses
        self._mlc_dynamic_j += delta * self.power.mlc_access_energy_j(ways)

    # ------------------------------------------------------------ finalize

    def finalize(self, now_cycles: float) -> EnergyReport:
        if self._finalized:
            raise RuntimeError("EnergyAccounting.finalize called twice")
        self._finalized = True
        self._close_vpu(now_cycles)
        self._close_bpu(now_cycles)
        self._close_mlc(now_cycles)

        freq = self.design.frequency_hz
        seconds = now_cycles / freq
        power = self.power

        unit_leakage = {
            "vpu": sum(
                cycles / freq * power.vpu_leakage_w(state)
                for state, cycles in self._vpu_cycles.items()
            ),
            "bpu": sum(
                cycles / freq * power.bpu_leakage_w(state)
                for state, cycles in self._bpu_cycles.items()
            ),
            "mlc": sum(
                cycles / freq * power.mlc_leakage_w(ways)
                for ways, cycles in self._mlc_cycles.items()
            ),
            "other": seconds * power.other_leakage_w,
        }

        core = self.core
        unit_dynamic = {
            "vpu": core.vpu.native_ops * power.vpu_op_energy_j(),
            "bpu": self._bpu_dynamic_j,
            "mlc": self._mlc_dynamic_j,
            "other": core.counters.micro_ops * power.base_uop_energy_j,
        }

        total = max(now_cycles, 1.0)
        return EnergyReport(
            cycles=now_cycles,
            seconds=seconds,
            leakage_j=sum(unit_leakage.values()),
            dynamic_j=sum(unit_dynamic.values()),
            switch_overhead_j=self.switch_overhead_j,
            unit_leakage_j=unit_leakage,
            unit_dynamic_j=unit_dynamic,
            # Per-state sums accumulate rounding across switches, so the
            # on-share can land a ulp above 1.
            vpu_on_frac=min(self._vpu_cycles[True] / total, 1.0),
            bpu_on_frac=min(self._bpu_cycles[True] / total, 1.0),
            mlc_way_residency={
                ways: cycles / total for ways, cycles in self._mlc_cycles.items()
            },
            switch_counts=dict(self.switch_counts),
        )
