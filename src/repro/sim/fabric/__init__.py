"""Sweep fabric: the batch runner and job service over the simulation engine.

The engine (:mod:`repro.sim.engine`) knows how to execute, hash and cache
one :class:`~repro.sim.engine.SimJob`; the fabric runs every batch of
them and survives production-scale ones:

- :class:`FabricScheduler` — asyncio scheduler with cache dedup,
  size-bounded shards, per-job timeouts, bounded retry with exponential
  backoff + seeded jitter, poison-worker isolation on a
  :class:`RestartablePool`, serial degradation, and per-job status
  streaming (queued → running → done/failed/cached) through
  :mod:`repro.obs.metrics`;
- :class:`RetryPolicy` — declarative backoff policy;
- :class:`JobStatus` / :class:`FabricEvent` — the streamed status model;
- cache lifecycle services (:func:`cache_stats`, :func:`gc_cache`) over
  the engine cache's LRU budget and counters.

Callers: :mod:`repro.sim.sweep`, ``python -m repro sweep`` and
``python -m repro fabric submit|status|gc``.
"""

from repro.sim.fabric.cache import cache_stats, gc_cache
from repro.sim.fabric.pool import PoolUnavailable, RestartablePool
from repro.sim.fabric.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.sim.fabric.scheduler import DEFAULT_SHARD_SIZE, FabricScheduler
from repro.sim.fabric.status import (
    TERMINAL_STATUSES,
    FabricEvent,
    JobState,
    JobStatus,
)

__all__ = [
    "DEFAULT_RETRY_POLICY",
    "DEFAULT_SHARD_SIZE",
    "FabricEvent",
    "FabricScheduler",
    "JobState",
    "JobStatus",
    "PoolUnavailable",
    "RestartablePool",
    "RetryPolicy",
    "TERMINAL_STATUSES",
    "cache_stats",
    "gc_cache",
]
