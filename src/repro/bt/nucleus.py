"""The BT nucleus: interrupt and exception handling (§II-A).

In a hybrid processor the nucleus services host-level interrupts; PowerChop
rides this path — a PVT miss raises an interrupt that transfers control to
the Criticality Decision Engine in the BT software (§IV-C1, via model
specific registers).  The nucleus here accounts the cycle cost of each
interrupt class and dispatches to registered handlers.
"""

from __future__ import annotations

import weakref
from types import MethodType
from typing import TYPE_CHECKING, Callable, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.staticcheck.hints import StaticHints


class Nucleus:
    """Interrupt dispatcher with per-kind cycle costs."""

    def __init__(self) -> None:
        #: kind -> zero-arg callable returning the handler (``None`` once a
        #: weakly held handler's owner is gone).
        self._handlers: Dict[str, Callable[[], Optional[Callable[..., float]]]] = {}
        self._costs: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self.cycles: float = 0.0
        #: Execution context published to interrupt handlers.  The BT
        #: runtime attaches the workload's static-analysis facts here so
        #: the CDE — entered via the ``pvt_miss`` interrupt — can consult
        #: them without a side channel around the interrupt path.
        self.static_hints: Optional["StaticHints"] = None

    def register(
        self, kind: str, handler: Callable[..., float], entry_cost_cycles: float
    ) -> None:
        """Register ``handler`` for interrupt ``kind``.

        ``entry_cost_cycles`` models the trap/MSR-exchange overhead; the
        handler returns any additional cycles it consumed.  A bound method
        is held weakly: its owner (the PowerChop controller) holds this
        nucleus, and a strong reference back would close a cycle that keeps
        every finished simulator alive until a full garbage collection.
        """
        if entry_cost_cycles < 0:
            raise ValueError("interrupt entry cost must be non-negative")
        if isinstance(handler, MethodType):
            self._handlers[kind] = weakref.WeakMethod(handler)
        else:
            self._handlers[kind] = lambda: handler
        self._costs[kind] = entry_cost_cycles

    def raise_interrupt(self, kind: str, *args, **kwargs) -> float:
        """Dispatch an interrupt; returns total cycles consumed."""
        if kind not in self._handlers:
            raise KeyError(f"no handler registered for interrupt {kind!r}")
        handler = self._handlers[kind]()
        if handler is None:
            raise RuntimeError(f"the handler for interrupt {kind!r} no longer exists")
        self.counts[kind] = self.counts.get(kind, 0) + 1
        cycles = self._costs[kind] + handler(*args, **kwargs)
        self.cycles += cycles
        return cycles
