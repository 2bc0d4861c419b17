"""Sweep fabric: the batch runner over the simulation engine.

The engine (:mod:`repro.sim.engine`) knows how to execute, hash and cache
one :class:`~repro.sim.engine.SimJob`; the fabric runs every batch of
them:

- :class:`FabricScheduler` — asyncio batch runner with cache dedup,
  fixed-size shards on a :class:`RestartablePool`, crash isolation (a
  worker's casualties retry once, alone), serial degradation, and
  ``fabric_*`` counters in a :mod:`repro.obs.metrics` registry;
- cache lifecycle services (:func:`cache_stats`, :func:`gc_cache`) over
  the engine cache's LRU budget and counters.

Callers: :mod:`repro.sim.sweep`, ``python -m repro sweep`` and
``python -m repro fabric status|gc``.
"""

from repro.sim.fabric.cache import cache_stats, gc_cache
from repro.sim.fabric.pool import PoolUnavailable, RestartablePool
from repro.sim.fabric.scheduler import FabricScheduler

__all__ = [
    "FabricScheduler",
    "PoolUnavailable",
    "RestartablePool",
    "cache_stats",
    "gc_cache",
]
