"""The top-level hybrid processor simulator."""

from __future__ import annotations

from enum import Enum
from typing import Optional, Sequence, Union

from repro.bt.runtime import BTRuntime
from repro.core.config import PowerChopConfig
from repro.core.controller import PowerChopController
from repro.core.timeout import TimeoutVPUController
from repro.obs.collect import collect_metrics
from repro.obs.tracer import DEFAULT_CAPACITY, Tracer
from repro.power.accounting import EnergyAccounting
from repro.sim.backends import (
    DEFAULT_BACKEND,
    FastPathState,
    get_backend,
    resolve_backend_name,
)
from repro.sim.results import SimulationResult
from repro.staticcheck.hints import build_hints
from repro.uarch.config import DesignPoint
from repro.uarch.core import CoreModel
from repro.workloads.generator import SyntheticWorkload
from repro.workloads.profiles import BenchmarkProfile, build_workload, regions_of

# Load the default loop with the simulator, not in its first run: compiled
# mid-run, its module's transient allocations land on top of the run's.
get_backend(DEFAULT_BACKEND)


class GatingMode(Enum):
    """The run configurations evaluated in the paper."""

    FULL = "full"  # all units at full power throughout (baseline)
    MINIMAL = "minimal"  # all units in their lowest-power state throughout
    POWERCHOP = "powerchop"  # phase-triggered management
    TIMEOUT = "timeout"  # HW-only VPU idleness timeout (§V-E baseline)


class HybridSimulator:
    """One simulation run of a workload on a hybrid processor design.

    The simulator threads every dynamic basic block through the BT runtime
    (interpret / translate / execute from the region cache), charges cycles
    through the core timing model, lets the active gating controller react,
    and integrates energy.  Instances are single-use, like the stateful
    workloads they consume.
    """

    def __init__(
        self,
        design: DesignPoint,
        workload: SyntheticWorkload,
        mode: GatingMode = GatingMode.FULL,
        powerchop_config: Optional[PowerChopConfig] = None,
        timeout_cycles: float = 20_000.0,
        obs_level: str = "off",
        obs_capacity: int = DEFAULT_CAPACITY,
        backend: Optional[str] = None,
    ) -> None:
        self.design = design
        self.workload = workload
        self.mode = mode
        #: Execution backend (:mod:`repro.sim.backends`): every registered
        #: backend is bit-identical to ``reference``, so the default is the
        #: fastest always-applicable one.
        self.backend_name = resolve_backend_name(backend)
        self.backend = get_backend(self.backend_name)
        self.fastpath_state = (
            FastPathState() if self.backend.needs_replay_state else None
        )
        #: The run's observability handle (``off``: inert — the run loop
        #: and every instrumented component pay one branch at most;
        #: ``metrics``: the registry snapshot lands on the result;
        #: ``full``: typed events stream into the tracer's ring buffer).
        self.tracer = Tracer(obs_level, obs_capacity)
        self.core = CoreModel(design, tracer=self.tracer)

        config: Optional[PowerChopConfig] = None
        static_hints = None
        regions = regions_of(workload)
        if mode is GatingMode.POWERCHOP:
            config = powerchop_config or PowerChopConfig()
            if config.use_static_hints:
                # The ahead-of-execution pass the binary translator could
                # run over every region it will ever translate.
                static_hints = build_hints(regions)
        self.bt = BTRuntime(
            design,
            regions,
            static_hints=static_hints,
            tracer=self.tracer,
        )

        if mode is GatingMode.MINIMAL:
            self.core.apply_vpu_state(False)
            self.core.apply_bpu_state(False)
            self.core.apply_mlc_state(1)

        # The accountant snapshots initial unit states, so it must be
        # created after the mode's initial configuration is applied.
        self.accountant = EnergyAccounting(design, self.core)

        self.controller: Optional[PowerChopController] = None
        self.timeout_controller: Optional[TimeoutVPUController] = None
        if mode is GatingMode.POWERCHOP:
            assert config is not None
            self.controller = PowerChopController(
                config,
                design,
                self.core,
                self.bt.nucleus,
                self.accountant,
                tracer=self.tracer,
            )
        elif mode is GatingMode.TIMEOUT:
            self.timeout_controller = TimeoutVPUController(
                design, self.core, timeout_cycles, self.accountant,
                tracer=self.tracer,
            )

        if self.fastpath_state is not None:
            # Attached after the mode's initial gating so construction-time
            # transitions don't count as runtime invalidations.
            self.core.fastpath_listener = self.fastpath_state

        self.cycles = 0.0
        self._ran = False

    def run(
        self, max_instructions: int = 1_000_000, probes: Sequence = ()
    ) -> SimulationResult:
        """Execute up to ``max_instructions`` guest instructions.

        ``probes`` are :class:`~repro.sim.probes.ProbeState` observers: each
        gets ``on_block`` after every executed block and ``finish`` once the
        result is built.  A run with probes executes on the ``reference``
        loop, whichever backend was selected.
        """
        if self._ran:
            raise RuntimeError("HybridSimulator instances are single-use")
        self._ran = True
        if max_instructions < 1:
            raise ValueError("max_instructions must be >= 1")

        # Every backend is bit-identical to the reference loop (including
        # the obs_level="full" event stream); backends that don't support a
        # feature (probes; full tracing on vectorized) delegate internally.
        cycles = self.backend.run(self, max_instructions, probes)

        self.cycles = cycles
        self.tracer.now = cycles
        result = self._build_result()
        for probe in probes:
            probe.finish(self, result)
        return result

    def _build_result(self) -> SimulationResult:
        core = self.core
        energy = self.accountant.finalize(self.cycles)
        l1 = core.hierarchy.l1
        mlc = core.hierarchy.mlc
        result = SimulationResult(
            benchmark=self.workload.name,
            suite=self.workload.suite,
            design=self.design.name,
            mode=self.mode.value,
            instructions=core.counters.instructions,
            micro_ops=core.counters.micro_ops,
            cycles=self.cycles,
            energy=energy,
            branches=core.counters.branches,
            mispredicts=core.counters.mispredicts,
            l1_hits=l1.hits,
            l1_misses=l1.misses,
            mlc_hits=mlc.hits,
            mlc_misses=mlc.misses,
            mlc_writebacks=mlc.writebacks,
            interpreted_instructions=self.bt.interpreter.interpreted_instructions,
            translations_built=self.bt.translator.translations_built,
            switch_counts=dict(energy.switch_counts),
        )
        result.extra["nucleus_cycles"] = self.bt.nucleus.cycles
        result.extra["translation_cycles"] = self.bt.translation_cycles
        result.extra["prefetch_covered"] = float(core.hierarchy.prefetch_covered)
        controller = self.controller
        if controller is not None:
            result.translation_executions = controller.translation_executions
            result.windows = controller.windows_seen
            result.pvt_lookups = controller.pvt.lookups
            result.pvt_hits = controller.pvt.hits
            result.pvt_misses = controller.pvt.misses
            result.pvt_evictions = controller.pvt.evictions
            result.cde_invocations = controller.cde.invocations
            result.new_phases = controller.cde.new_phases
            result.extra["static_vpu_phases"] = float(
                controller.cde.static_vpu_phases
            )
            result.extra["static_vpu_windows_skipped"] = float(
                controller.cde.static_vpu_windows_skipped
            )
        if self.tracer.metrics_on:
            result.metrics = collect_metrics(self, result).snapshot()
        return result


def run_simulation(
    design: DesignPoint,
    workload: Union[BenchmarkProfile, SyntheticWorkload],
    mode: GatingMode = GatingMode.FULL,
    max_instructions: int = 1_000_000,
    powerchop_config: Optional[PowerChopConfig] = None,
    timeout_cycles: float = 20_000.0,
    seed: Optional[int] = None,
    obs_level: str = "off",
    backend: Optional[str] = None,
) -> SimulationResult:
    """Convenience wrapper: build the workload, run once, return the result.

    Passing a :class:`BenchmarkProfile` (rather than a pre-built workload)
    guarantees a fresh instruction stream, so repeated calls with different
    ``mode`` values compare configurations on identical traces.  ``backend``
    names an execution backend (``reference`` / ``fastpath`` /
    ``vectorized``).
    """
    if isinstance(workload, BenchmarkProfile):
        workload = build_workload(workload, seed)
    simulator = HybridSimulator(
        design,
        workload,
        mode=mode,
        powerchop_config=powerchop_config,
        timeout_cycles=timeout_cycles,
        obs_level=obs_level,
        backend=backend,
    )
    return simulator.run(max_instructions)
