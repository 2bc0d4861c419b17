"""Crash-isolating asyncio batch runner over the simulation engine.

:class:`FabricScheduler` is the engine's batch runner: every batch of
jobs (``repro.sim.sweep`` and ``python -m repro sweep``) goes through it
to the :func:`repro.sim.engine.execute_job` worker function.  One
``run()`` (or ``await run_async()``) call:

1. **Dedups** the batch against the per-process memo and the on-disk
   :class:`~repro.sim.engine.ResultCache`: a memo hit returns the memoised
   record flagged ``from_cache``, a disk hit is memoised, and duplicate
   jobs inside one batch execute once and share a record.
2. **Shards** the remaining unique jobs into shards of 32; each shard's
   jobs run concurrently on a :class:`RestartablePool` (actual
   parallelism bounded by the pool's worker count), shards run in order.
   Without a pool (``workers == 1``, a job that cannot be pickled, or a
   pool that cannot start) an attempt runs in the calling thread, one at
   a time.
3. **Isolates failures**: a job that raises fails after its one attempt
   (simulation is deterministic, so a second would raise again).  A
   worker that dies breaks every attempt in flight, and the pool cannot
   say whose job killed it, so these casualties retry once, alone, after
   their shard: only the culprit fails.  A pool that cannot be created at
   all degrades the run to serial in-process execution.
4. **Counts** jobs, cache events, attempts, retries, crashes and pool
   restarts in a :class:`~repro.obs.metrics.MetricsRegistry` under
   ``fabric_*`` instrument names.

Determinism: a retry changes *when* a job runs, never what it computes,
so a batch's records are bit-identical however many crashes the run
absorbed.
"""

from __future__ import annotations

import asyncio
import pickle
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import (
    JobRecord,
    ResultCache,
    SimJob,
    default_workers,
    execute_job,
    memo_get,
    memo_put,
)
from repro.sim.fabric.pool import PoolUnavailable, RestartablePool

__all__ = ["FabricScheduler"]

#: Unique jobs dispatched concurrently per shard.
_SHARD_SIZE = 32


def _is_picklable(job: SimJob) -> bool:
    try:
        pickle.dumps(job)
        return True
    except Exception:
        return False


class FabricScheduler:
    """Run :class:`SimJob` batches with caching and crash isolation.

    Records come back in job order, bit-identical whatever the worker
    count.  ``workers`` is the process-pool size (default ``REPRO_JOBS``,
    else 1; with 1 every attempt runs in the calling thread); ``cache`` is
    the :class:`~repro.sim.engine.ResultCache` to dedup against and
    publish to (default: one from the environment).  Runs aggregate their
    ``fabric_*`` counters in ``self.registry``.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache: Optional[ResultCache] = None,
    ) -> None:
        self.workers = default_workers() if workers is None else workers
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        self.cache = cache if cache is not None else ResultCache()
        self.registry = MetricsRegistry()

    # ------------------------------------------------------------ running

    def run(self, jobs: Sequence[SimJob]) -> List[JobRecord]:
        """Synchronous wrapper; use :meth:`run_async` inside an event loop."""
        return asyncio.run(self.run_async(jobs))

    async def run_async(self, jobs: Sequence[SimJob]) -> List[JobRecord]:
        jobs = list(jobs)
        records: List[Optional[JobRecord]] = [None] * len(jobs)

        # Cache pass: collect unique missing jobs in first-seen order.
        missing: Dict[str, SimJob] = {}
        slots: Dict[str, List[int]] = {}
        for index, job in enumerate(jobs):
            key = job.key()
            record = memo_get(key)
            if record is not None:
                record = replace(record, from_cache=True)
            else:
                record = self.cache.get(key)
                if record is not None:
                    memo_put(key, record)
            if record is None:
                self._count_cache("miss")
                missing.setdefault(key, job)
                slots.setdefault(key, []).append(index)
                continue
            records[index] = record
            self._count_cache("hit")
            self._count_job("cached")

        keys = list(missing)
        fresh: Dict[str, JobRecord] = {}
        evictions_before = self.cache.evictions

        pool: Optional[RestartablePool] = (
            RestartablePool(self.workers) if self.workers > 1 else None
        )
        try:
            for start in range(0, len(keys), _SHARD_SIZE):
                shard = keys[start : start + _SHARD_SIZE]
                outcomes = await asyncio.gather(
                    *(self._attempt(key, missing[key], pool) for key in shard)
                )
                for key, record in zip(shard, outcomes):
                    if record is None:
                        # A crash breaks every attempt in flight, and the
                        # pool cannot say whose job caused it: each casualty
                        # retries once, alone, so only the culprit fails.
                        self.registry.counter("fabric_retries").inc()
                        record = await self._attempt(key, missing[key], pool)
                    if record is None:
                        record = JobRecord(
                            job_key=key,
                            result=None,
                            error="BrokenProcessPool: worker pool broke mid-job",
                        )
                    self._count_job("done" if record.ok else "failed")
                    fresh[key] = record
        finally:
            if pool is not None:
                pool.close()
                self.registry.counter("fabric_pool_restarts").inc(pool.restarts)

        # Publish fresh successes to both cache layers, then fill slots.
        for key, record in fresh.items():
            if record.ok:
                self.cache.put(key, record)
                memo_put(key, record)
            for index in slots[key]:
                records[index] = record

        self._count_cache(
            "eviction", self.cache.evictions - evictions_before
        )
        return records  # type: ignore[return-value]

    # ---------------------------------------------------------- one job

    async def _attempt(
        self, key: str, job: SimJob, pool: Optional[RestartablePool]
    ) -> Optional[JobRecord]:
        """Run ``job`` once: its record, or None if its worker pool broke."""
        self.registry.counter("fabric_attempts").inc()
        try:
            if pool is not None and pool.available and _is_picklable(job):
                try:
                    future = pool.submit(execute_job, job)
                except PoolUnavailable:
                    # Not the job's fault: the whole run degrades to
                    # serial in-process execution.
                    self.registry.counter("fabric_pool_unavailable").inc()
                else:
                    return await asyncio.wrap_future(future)
            # In the calling thread, so in-process attempts never overlap
            # (a thread per attempt multiplies peak memory).
            return execute_job(job)
        except BrokenProcessPool:
            self.registry.counter("fabric_crashes").inc()
            return None
        except Exception as exc:
            return JobRecord(
                job_key=key, result=None, error=f"{type(exc).__name__}: {exc}"
            )

    # ----------------------------------------------------------- plumbing

    def _count_job(self, status: str) -> None:
        self.registry.counter("fabric_jobs", status=status).inc()

    def _count_cache(self, event: str, amount: int = 1) -> None:
        if amount:
            self.registry.counter("fabric_cache", event=event).inc(amount)
