"""Fault-tolerant asyncio job scheduler over the simulation engine.

:class:`FabricScheduler` is the engine's batch runner: every batch of
jobs (``repro.sim.sweep``, ``python -m repro sweep`` and ``fabric
submit``) goes through it to the :func:`repro.sim.engine.execute_job`
worker function.  One ``run()`` (or ``await run_async()``) call:

1. **Dedups** the batch against the per-process memo and the on-disk
   :class:`~repro.sim.engine.ResultCache`: a memo hit returns the memoised
   record flagged ``from_cache``, a disk hit is memoised, and duplicate
   jobs inside one batch execute once and share a record.
2. **Shards** the remaining unique jobs into size-bounded batches; each
   shard's jobs run concurrently on a :class:`RestartablePool` (actual
   parallelism bounded by the pool's worker count), shards run in order.
   Without a pool (``workers == 1``, a job that cannot be pickled, or a
   pool that cannot start) an attempt runs in the calling thread, one at
   a time.
3. **Executes with robustness**: per-job wall-clock timeout, bounded
   retry with exponential backoff + seeded jitter, crash isolation (a
   poisoned worker costs the jobs it touched one attempt, and they retry
   one at a time after their shard, so only the culprit fails), and
   graceful degradation to serial in-process execution when a process
   pool cannot be created at all.
4. **Streams progress**: every status transition (queued → running →
   done/failed/cached) is appended to ``events``, forwarded to the
   optional ``on_event`` callback, and aggregated in a
   :class:`~repro.obs.metrics.MetricsRegistry` under ``fabric_*``
   instrument names.

Determinism: retries change *when* a job runs, never what it computes —
simulation is seeded and deterministic, so a batch's records are
bit-identical however many crashes and retries the run absorbed.  Jitter
draws from a ``random.Random(seed)`` owned by the scheduler, keeping the
determinism lint's no-ambient-RNG rule intact.
"""

from __future__ import annotations

import asyncio
import pickle
import random
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence

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
from repro.sim.fabric.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.sim.fabric.status import FabricEvent, JobState, JobStatus

__all__ = ["FabricScheduler", "DEFAULT_SHARD_SIZE"]

#: Upper bound on jobs in flight per shard when the caller sets none.
DEFAULT_SHARD_SIZE = 32

#: Exceptions that mean "the worker pool ate this attempt", not "the job
#: itself is broken": a poisoned pool breaks every in-flight future, and a
#: pool restart (after a crash or a timeout elsewhere in the shard)
#: cancels queued ones.  Both are retried against a fresh pool.
_POOL_CASUALTIES = (BrokenProcessPool, asyncio.CancelledError)


def _is_picklable(job: SimJob) -> bool:
    try:
        pickle.dumps(job)
        return True
    except Exception:
        return False


class FabricScheduler:
    """Run :class:`SimJob` batches with caching, retries and crash isolation.

    Records come back in job order, bit-identical whatever the worker
    count.  Parameters:

    - ``workers``: process-pool size (default ``REPRO_JOBS``, else 1);
      with 1 every attempt runs in the calling thread;
    - ``cache``: the :class:`~repro.sim.engine.ResultCache` to dedup
      against and publish to (default: one from the environment);
    - ``retry``: a :class:`RetryPolicy` (default: 3 attempts, 50 ms base
      backoff, 10 % jitter);
    - ``job_timeout``: wall-clock seconds one attempt may run before its
      worker is killed and the attempt counts as failed (``None`` — the
      default — disables the timeout; serial in-process execution cannot
      enforce one either way).  With a timeout, at most ``workers`` pool
      attempts are in flight, so an attempt's clock starts when a worker
      can take it, not while it waits behind the others;
    - ``shard_size``: how many unique jobs are dispatched concurrently;
      ``shard_size=1`` fully serialises dispatch, which also confines a
      poison worker's blast radius to exactly its own job;
    - ``seed``: jitter RNG seed (scheduling only, never results);
    - ``registry``: a :class:`~repro.obs.metrics.MetricsRegistry` to
      aggregate ``fabric_*`` metrics into (default: a fresh one on
      ``self.registry``);
    - ``on_event``: callback receiving each :class:`FabricEvent` as it is
      emitted.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        retry: Optional[RetryPolicy] = None,
        job_timeout: Optional[float] = None,
        shard_size: int = DEFAULT_SHARD_SIZE,
        seed: int = 0,
        registry: Optional[MetricsRegistry] = None,
        on_event: Optional[Callable[[FabricEvent], None]] = None,
    ) -> None:
        self.workers = default_workers() if workers is None else workers
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        if job_timeout is not None and job_timeout <= 0:
            raise ValueError("job_timeout must be positive or None")
        self.cache = cache if cache is not None else ResultCache()
        self.retry = retry if retry is not None else DEFAULT_RETRY_POLICY
        self.job_timeout = job_timeout
        self.shard_size = shard_size
        self.registry = registry if registry is not None else MetricsRegistry()
        self.on_event = on_event
        self.events: List[FabricEvent] = []
        self._rng = random.Random(seed)
        self._pool_ok = True
        self._slots: Optional[asyncio.Semaphore] = None

    # ------------------------------------------------------------ running

    def run(self, jobs: Sequence[SimJob]) -> List[JobRecord]:
        """Synchronous wrapper; use :meth:`run_async` inside an event loop."""
        return asyncio.run(self.run_async(jobs))

    async def run_async(self, jobs: Sequence[SimJob]) -> List[JobRecord]:
        jobs = list(jobs)
        if self.job_timeout is not None:
            self._slots = asyncio.Semaphore(self.workers)
        records: List[Optional[JobRecord]] = [None] * len(jobs)

        # Cache pass: collect unique missing keys in first-seen order.
        states: Dict[str, JobState] = {}
        slots: Dict[str, List[int]] = {}
        for index, job in enumerate(jobs):
            key = job.key()
            memoised = memo_get(key)
            if memoised is not None:
                records[index] = replace(memoised, from_cache=True)
                self._count_cache("hit")
                self._finish_cached(key)
                continue
            record = self.cache.get(key)
            if record is not None:
                memo_put(key, record)
                records[index] = record
                self._count_cache("hit")
                self._finish_cached(key)
                continue
            self._count_cache("miss")
            if key not in states:
                states[key] = JobState(index=index, key=key, job=job)
                self._emit(states[key], JobStatus.QUEUED)
            slots.setdefault(key, []).append(index)

        pending = list(states.values())
        shards = [
            pending[start : start + self.shard_size]
            for start in range(0, len(pending), self.shard_size)
        ]
        evictions_before = self.cache.evictions

        pool: Optional[RestartablePool] = (
            RestartablePool(self.workers) if self.workers > 1 else None
        )
        try:
            for shard_index, shard in enumerate(shards):
                for state in shard:
                    state.shard = shard_index
                stopped = await asyncio.gather(
                    *(self._run_one(state, pool) for state in shard)
                )
                # A crash or a timeout breaks every attempt in flight, and
                # the pool cannot say whose job caused it: the casualties
                # retry one at a time, so only the culprit keeps failing.
                for state, suspect in zip(shard, stopped):
                    if suspect:
                        await self._run_one(state, pool, alone=True)
        finally:
            if pool is not None:
                pool.close()
                self.registry.counter("fabric_pool_restarts").inc(pool.restarts)

        # Publish fresh successes to both cache layers, then fill slots.
        for key, state in states.items():
            record = state.record
            assert record is not None
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

    async def _run_one(
        self, state: JobState, pool: Optional[RestartablePool], alone: bool = False
    ) -> bool:
        """Attempt ``state``'s job until it succeeds or runs out of attempts.

        Unless ``alone``, an attempt that loses the pool (a crash or a
        timeout) with attempts left ends the call early and returns True:
        the caller resumes the job once nothing else is in flight.
        """
        job = state.job
        use_pool = pool is not None and _is_picklable(job)
        last_error = "never attempted"
        attempt = state.attempts
        while attempt < self.retry.max_attempts:
            attempt += 1
            state.attempts = attempt
            state.status = JobStatus.RUNNING
            self._emit(state, JobStatus.RUNNING, attempt)
            self.registry.counter("fabric_attempts").inc()
            started = time.perf_counter()
            generation = -1
            lost_pool = False
            try:
                if use_pool and self._pool_ok and pool is not None:
                    if self._slots is None:
                        generation = pool.generation
                        record = await asyncio.wrap_future(
                            pool.submit(execute_job, job)
                        )
                    else:
                        async with self._slots:
                            generation = pool.generation
                            record = await asyncio.wait_for(
                                asyncio.wrap_future(pool.submit(execute_job, job)),
                                timeout=self.job_timeout,
                            )
                else:
                    # In the calling thread, so in-process attempts never
                    # overlap (a thread per attempt multiplies peak memory).
                    record = execute_job(job)
            except PoolUnavailable as exc:
                # Not the job's fault and not a consumed attempt: degrade
                # the whole run to serial in-process execution.
                self._pool_ok = False
                self.registry.counter("fabric_pool_unavailable").inc()
                self._emit(
                    state,
                    JobStatus.QUEUED,
                    attempt,
                    detail=f"pool unavailable, degrading to serial: {exc}",
                )
                attempt -= 1
                continue
            except (TimeoutError, asyncio.TimeoutError):
                last_error = (
                    f"TimeoutError: attempt exceeded {self.job_timeout}s"
                )
                self.registry.counter("fabric_timeouts").inc()
                lost_pool = True
                if pool is not None:
                    # A running future cannot be cancelled; killing the
                    # worker is the only way to reclaim it.
                    pool.restart_if(generation)
            except _POOL_CASUALTIES as exc:
                last_error = f"{type(exc).__name__}: worker pool broke mid-job"
                self.registry.counter("fabric_crashes").inc()
                lost_pool = True
                if pool is not None:
                    pool.restart_if(generation)
            except Exception as exc:
                last_error = f"{type(exc).__name__}: {exc}"
            else:
                self.registry.histogram("fabric_attempt_seconds").observe(
                    time.perf_counter() - started
                )
                state.status = JobStatus.DONE
                state.record = record
                self._count_job("done")
                self._emit(state, JobStatus.DONE, attempt)
                return False
            self.registry.histogram("fabric_attempt_seconds").observe(
                time.perf_counter() - started
            )
            if not self.retry.exhausted(attempt):
                self.registry.counter("fabric_retries").inc()
                await asyncio.sleep(self.retry.delay(attempt, self._rng))
                if lost_pool and not alone:
                    return True

        state.status = JobStatus.FAILED
        state.error = last_error
        state.record = JobRecord(
            job_key=state.key, result=None, error=last_error
        )
        self._count_job("failed")
        self._emit(state, JobStatus.FAILED, state.attempts, detail=last_error)
        return False

    # ----------------------------------------------------------- plumbing

    def _emit(
        self,
        state: JobState,
        status: JobStatus,
        attempt: int = 0,
        detail: str = "",
    ) -> None:
        event = FabricEvent(
            key=state.key, status=status, attempt=attempt, detail=detail
        )
        state.history.append(event)
        self.events.append(event)
        if self.on_event is not None:
            self.on_event(event)

    def _finish_cached(self, key: str) -> None:
        self._count_job("cached")
        event = FabricEvent(key=key, status=JobStatus.CACHED)
        self.events.append(event)
        if self.on_event is not None:
            self.on_event(event)

    def _count_job(self, status: str) -> None:
        self.registry.counter("fabric_jobs", status=status).inc()

    def _count_cache(self, event: str, amount: int = 1) -> None:
        if amount:
            self.registry.counter("fabric_cache", event=event).inc(amount)
