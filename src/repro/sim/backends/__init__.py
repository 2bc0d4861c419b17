"""Execution backends for :class:`~repro.sim.simulator.HybridSimulator`.

A *backend* owns the simulator's inner run loop — the code that walks the
workload trace, steers blocks through the BT runtime, charges cycles and
drives the gating controllers.  Every backend is **bit-identical** to the
reference loop (same :class:`SimulationResult`, same ``obs_level="full"``
event stream, same component state on exit); they differ only in how fast
they get there.  That contract is what lets backend selection stay out of
:meth:`SimJob.key` — cached results are shared freely across backends —
and is enforced by the three-way equivalence suite in
``tests/test_backends.py``.

Built-in backends:

- ``reference``  — one plain loop: materialises every :class:`BlockExec`
  and calls each component through its public method.  The correctness
  oracle, and the only loop that calls probes.
- ``fastpath``   — the fused loop of :mod:`repro.sim.backends.fastpath`:
  per-access, but with inlined component hot paths, batched monotonic
  counters and memoized same-line block replay.  It runs fully traced
  ``vectorized`` runs.
- ``vectorized`` — :mod:`repro.sim.backends.vectorized` (the default):
  records each burst's block trace once with a lean scalar pass that also
  resolves its branches through the predictor, then evaluates the burst's
  timing, cache behaviour, RNG-driven address draws and (in TIMEOUT mode)
  the VPU timeout controller as batched array kernels.  Probe runs, and
  hierarchies whose levels differ in line size, delegate to
  ``reference``; fully traced runs go to ``fastpath``.

Selection rules: ``HybridSimulator(backend="...")`` resolves a name
through :func:`get_backend`; ``None`` selects :data:`DEFAULT_BACKEND`.
A backend's module is imported when it is first resolved, except the
default's, which :mod:`repro.sim.simulator` loads with itself.
Backends whose ``needs_replay_state`` is true get a :class:`FastPathState`
attached as ``core.fastpath_listener`` so gating/policy/window events
conservatively invalidate any memoized replay state.

Backend implementations must live in this package: a lint rule
(``scripts/lint_determinism.py``, rule D003) flags trace-walking run
loops anywhere else under ``repro/``, so loop logic cannot leak back
into ``simulator.py``.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.simulator import HybridSimulator

__all__ = [
    "SimBackend",
    "DEFAULT_BACKEND",
    "FastPathState",
    "available_backends",
    "get_backend",
    "register_backend",
    "resolve_backend_name",
]

#: The default execution backend (bit-identical to ``reference``; the
#: fastest loop).
DEFAULT_BACKEND = "vectorized"


@runtime_checkable
class SimBackend(Protocol):
    """The backend contract: one run loop, bit-identical to the reference.

    ``run`` executes up to ``max_instructions`` guest instructions against
    the (freshly constructed, single-use) simulator and returns total
    cycles; on return every component counter, the BT walk state and the
    workload's stream cursors must hold exactly the values the reference
    loop would have left.  ``probes`` are
    :class:`~repro.sim.probes.ProbeState` observers whose ``on_block`` runs
    after every executed block; only ``reference`` calls them, and every
    other backend hands a run with probes to it.  ``needs_replay_state``
    tells the simulator to create a :class:`FastPathState` and attach it as
    ``core.fastpath_listener`` before the run.
    """

    name: str
    needs_replay_state: bool

    def run(
        self,
        simulator: "HybridSimulator",
        max_instructions: int,
        probes: Sequence,
    ) -> float: ...


class FastPathState:
    """Replay-streak table plus fast-path statistics.

    Both fast loops read it, so it lives here, where a simulator can build
    one without loading the ``fastpath`` loop.  Registered as
    ``core.fastpath_listener`` (and consulted by the PowerChop controller)
    so every event that could mark a phase change — unit gating, a policy
    application, a measurement window being armed, a window boundary —
    conservatively clears the streak table.
    """

    __slots__ = (
        "streaks",
        "blocks_replayed",
        "accesses_elided",
        "invalidations",
        "window_resets",
        "policy_resets",
        "phase_resets",
        "bursts_recorded",
        "blocks_vectorized",
        "pass_a_seconds",
        "pass_b_seconds",
        "scalar_seconds",
    )

    def __init__(self) -> None:
        #: static block pc -> consecutive qualifying executions
        self.streaks: dict = {}
        self.blocks_replayed = 0
        self.accesses_elided = 0
        self.invalidations = 0
        self.window_resets = 0
        self.policy_resets = 0
        self.phase_resets = 0
        #: Vectorized-backend statistics (always zero under ``fastpath``):
        #: recorded bursts and blocks evaluated by batch kernels.
        self.bursts_recorded = 0
        self.blocks_vectorized = 0
        #: Wall-clock split of the vectorized run loop (pass A = recording
        #: walk, pass B = array flushes, scalar = window-boundary blocks);
        #: reported by ``scripts/profile_simulator.py --breakdown``.
        self.pass_a_seconds = 0.0
        self.pass_b_seconds = 0.0
        self.scalar_seconds = 0.0

    def note_gating(self, unit: str) -> None:
        """A unit changed power state (VPU/BPU gate, MLC way-gate/flush)."""
        self.invalidations += 1
        self.streaks.clear()

    def note_window(self) -> None:
        """A PowerChop execution window completed."""
        self.window_resets += 1
        self.streaks.clear()

    def note_policy_action(self) -> None:
        """The controller applied a policy or armed a measurement window."""
        self.policy_resets += 1
        self.streaks.clear()


#: name -> zero-arg factory.  Factories defer imports, so a process loads
#: only the loops it selects (each one compiled costs resident memory).
_FACTORIES: Dict[str, Callable[[], SimBackend]] = {}
_INSTANCES: Dict[str, SimBackend] = {}


def register_backend(name: str, factory: Callable[[], SimBackend]) -> None:
    """Register (or replace) a backend factory under ``name``."""
    if not name or not name.islower():
        raise ValueError(f"backend names are non-empty lowercase, got {name!r}")
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


def available_backends() -> Tuple[str, ...]:
    """Registered backend names, in registration order."""
    return tuple(_FACTORIES)


def get_backend(name: str) -> SimBackend:
    """Resolve a backend name to its (memoised) instance.

    Raises ``ValueError`` for unknown names.
    """
    instance = _INSTANCES.get(name)
    if instance is not None:
        return instance
    factory = _FACTORIES.get(name)
    if factory is None:
        raise ValueError(
            f"unknown backend {name!r}; available: {', '.join(_FACTORIES)}"
        )
    instance = factory()
    _INSTANCES[name] = instance
    return instance


def resolve_backend_name(backend) -> str:
    """Validate a backend name; ``None`` selects :data:`DEFAULT_BACKEND`."""
    if backend is None:
        return DEFAULT_BACKEND
    if backend not in _FACTORIES:
        raise ValueError(
            f"unknown backend {backend!r}; available: {', '.join(_FACTORIES)}"
        )
    return backend


def _make_reference() -> SimBackend:
    from repro.sim.backends.reference import ReferenceBackend

    return ReferenceBackend()


def _make_fastpath() -> SimBackend:
    from repro.sim.backends.fastpath import FastPathBackend

    return FastPathBackend()


def _make_vectorized() -> SimBackend:
    from repro.sim.backends.vectorized import VectorizedBackend

    return VectorizedBackend()


register_backend("reference", _make_reference)
register_backend("fastpath", _make_fastpath)
register_backend("vectorized", _make_vectorized)
