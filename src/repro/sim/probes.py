"""Simulation probes: per-block observers of a running simulation.

A probe is described declaratively by a frozen :class:`ProbeSpec` (so it can
live inside a hashable :class:`~repro.sim.engine.SimJob`) and instantiated
per run as a mutable :class:`ProbeState` via :meth:`ProbeSpec.build`.  The
simulator invokes the state's hooks:

- ``on_block(block_exec, cycles, instructions)`` after every executed block,
  with cumulative cycle and instruction counts;
- ``finish(simulator, result)`` once after the run.

``value()`` returns the probe's product.  Values must be JSON-serialisable
(lists/dicts/scalars) so the engine's persistent result cache can round-trip
them; note JSON turns tuples into lists and dict keys into strings.

:class:`IPCSeriesProbe` (the Figs. 2/3 series) is the one probe kind.  Every
other product of a run has its own way out: the phase log through
``SimJob(collect_phase_log=True)`` (``JobRecord.phase_log``), the metrics
snapshot through ``obs_level="metrics"`` (``result.metrics``), Chrome
traces and unit timelines through ``obs_level="full"`` and
:mod:`repro.obs.export` (``python -m repro trace``), and the static
pre-pass counters through ``result.extra`` and the controller's CDE.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List

__all__ = [
    "ProbeSpec",
    "ProbeState",
    "IPCSeriesProbe",
    "include_trailing_window",
]


def include_trailing_window(delta_instructions: int, sample_instructions: int) -> bool:
    """Flush rule of a windowed probe such as :class:`IPCSeriesProbe`.

    A run's trailing partial window is emitted iff it covers at least half
    a sample window, so short runs do not silently drop their final
    measurements.
    """
    return delta_instructions > 0 and 2 * delta_instructions >= sample_instructions


class ProbeState:
    """Per-run observer; subclasses override the hooks they need."""

    __slots__ = ()

    name: str = "probe"

    def on_block(self, block_exec, cycles: float, instructions: int) -> None:
        pass

    def finish(self, simulator, result) -> None:
        pass

    def value(self) -> Any:
        return None


@dataclass(frozen=True)
class ProbeSpec:
    """Hashable description of a probe; ``build()`` makes a fresh state."""

    @property
    def name(self) -> str:
        raise NotImplementedError

    def build(self) -> ProbeState:
        raise NotImplementedError


@dataclass(frozen=True)
class IPCSeriesProbe(ProbeSpec):
    """Windowed IPC over instruction count (the Figs. 2/3 time series).

    Emits one IPC sample per ``sample_instructions`` executed.  The trailing
    partial window is emitted too when it covers at least half a sample
    window, so short runs do not silently drop their final measurements.
    """

    sample_instructions: int = 100_000

    def __post_init__(self) -> None:
        if self.sample_instructions < 1:
            raise ValueError("sample_instructions must be >= 1")

    @property
    def name(self) -> str:
        return "ipc_series"

    def build(self) -> "_IPCSeriesState":
        return _IPCSeriesState(self.sample_instructions)


class _IPCSeriesState(ProbeState):
    __slots__ = ("sample_instructions", "series", "_last_cycles", "_last_instr", "_boundary")

    name = "ipc_series"

    def __init__(self, sample_instructions: int) -> None:
        self.sample_instructions = sample_instructions
        self.series: List[float] = []
        self._last_cycles = 0.0
        self._last_instr = 0
        self._boundary = sample_instructions

    def on_block(self, block_exec, cycles: float, instructions: int) -> None:
        if instructions >= self._boundary:
            delta_c = cycles - self._last_cycles
            delta_i = instructions - self._last_instr
            self.series.append(delta_i / delta_c if delta_c else 0.0)
            self._last_cycles = cycles
            self._last_instr = instructions
            self._boundary += self.sample_instructions

    def finish(self, simulator, result) -> None:
        # Trailing partial window: emit when it covers >= half a sample.
        delta_i = result.instructions - self._last_instr
        if include_trailing_window(delta_i, self.sample_instructions):
            delta_c = simulator.cycles - self._last_cycles
            self.series.append(delta_i / delta_c if delta_c else 0.0)

    def value(self) -> List[float]:
        return list(self.series)
