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

- ``reference``  — the probe-ful loop: materialises every
  :class:`BlockExec`, calls each component through its public method.  The
  correctness oracle, and the only loop that supports probes.
- ``fastpath``   — the fused loop of :mod:`repro.sim.backends.fastpath`:
  per-access, but with inlined component hot paths, batched monotonic
  counters and memoized same-line block replay.
- ``vectorized`` — :mod:`repro.sim.backends.vectorized` (requires numpy):
  records each burst's access+branch trace once with a lean scalar pass,
  then evaluates the burst's timing, cache behaviour, RNG-driven address
  draws and (in TIMEOUT mode) the VPU timeout controller as batched array
  kernels.  Probe runs delegate to ``reference`` and fully traced runs to
  ``fastpath``.

Selection rules: ``HybridSimulator(backend="...")`` resolves a name
through :func:`get_backend`; ``None`` selects :data:`DEFAULT_BACKEND`.
Backends whose ``needs_replay_state`` is true get a :class:`FastPathState`
attached as ``core.fastpath_listener`` so gating/policy/window events
conservatively invalidate any memoized replay state.

Backend implementations must live in this package: a lint rule
(``scripts/lint_determinism.py``, rule D003) flags trace-walking run
loops anywhere else under ``repro/``, so loop logic cannot leak back
into ``simulator.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.simulator import HybridSimulator

try:  # pragma: no cover - Protocol is stdlib on every supported version
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - very old pythons only
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls


__all__ = [
    "SimBackend",
    "DEFAULT_BACKEND",
    "available_backends",
    "get_backend",
    "register_backend",
    "resolve_backend_name",
]

#: The default execution backend (bit-identical to ``reference``; the
#: fastest loop that needs no optional dependency).
DEFAULT_BACKEND = "fastpath"


@runtime_checkable
class SimBackend(Protocol):
    """The backend contract: one run loop, bit-identical to the reference.

    ``run`` executes up to ``max_instructions`` guest instructions against
    the (freshly constructed, single-use) simulator and returns total
    cycles; on return every component counter, the BT walk state and the
    workload's stream cursors must hold exactly the values the reference
    loop would have left.  ``needs_replay_state`` tells the simulator to
    create a :class:`~repro.sim.backends.fastpath.FastPathState` and
    attach it as ``core.fastpath_listener`` before the run.
    """

    name: str
    needs_replay_state: bool

    def run(
        self,
        simulator: "HybridSimulator",
        max_instructions: int,
        probes: Sequence,
    ) -> float: ...


#: name -> zero-arg factory.  Factories defer imports so that optional
#: dependencies (numpy for ``vectorized``) are only required when the
#: backend is actually selected.
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

    Raises ``ValueError`` for unknown names, or ``RuntimeError`` when the
    backend exists but its optional dependency is missing.
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
    try:
        from repro.sim.backends.vectorized import VectorizedBackend
    except ImportError as exc:  # pragma: no cover - numpy is a baked-in dep
        raise RuntimeError(
            "the 'vectorized' backend requires numpy; install it or select "
            "backend='fastpath'"
        ) from exc
    return VectorizedBackend()


register_backend("reference", _make_reference)
register_backend("fastpath", _make_fastpath)
register_backend("vectorized", _make_vectorized)
