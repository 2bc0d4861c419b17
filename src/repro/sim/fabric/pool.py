"""A process pool that survives poisoned workers.

``concurrent.futures.ProcessPoolExecutor`` is a one-way street: a worker
that dies (``os._exit``, OOM-kill, segfault) breaks the whole executor,
which then rejects every submission.  :class:`RestartablePool` wraps the
executor with the two behaviours the fabric scheduler needs:

- rebuild on demand — the next ``submit`` after a worker died tears the
  broken executor down, builds a fresh one and counts it in
  :attr:`RestartablePool.restarts`;
- graceful unavailability — if executor/worker creation itself fails
  (e.g. a sandbox forbids ``fork``), ``submit`` raises
  :class:`PoolUnavailable` and the scheduler degrades to serial
  in-process execution instead of aborting the batch.
"""

from __future__ import annotations

from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any, Callable, Optional

__all__ = ["PoolUnavailable", "RestartablePool"]


class PoolUnavailable(RuntimeError):
    """Worker-pool creation failed; callers should run in-process instead."""


class RestartablePool:
    """Lazily-built :class:`ProcessPoolExecutor` that rebuilds itself once broken."""

    def __init__(self, max_workers: int) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers
        self.restarts = 0
        self.available = True
        self._pool: Optional[ProcessPoolExecutor] = None

    def _ensure(self) -> ProcessPoolExecutor:
        if not self.available:
            raise PoolUnavailable("process pool permanently unavailable")
        if self._pool is None:
            try:
                self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
            except Exception as exc:
                self.available = False
                raise PoolUnavailable(f"cannot start process pool: {exc}") from exc
        return self._pool

    def submit(self, fn: Callable[..., Any], *args: Any) -> "Future[Any]":
        """Submit work, (re)building the executor if needed."""
        try:
            return self._ensure().submit(fn, *args)
        except PoolUnavailable:
            raise
        except Exception as exc:
            # A broken executor rejects submissions; rebuild it once.
            self._teardown()
            self.restarts += 1
            try:
                return self._ensure().submit(fn, *args)
            except PoolUnavailable:
                raise
            except Exception:
                self.available = False
                raise PoolUnavailable(f"process pool rejected work: {exc}") from exc

    def _teardown(self) -> None:
        pool, self._pool = self._pool, None
        if pool is None:
            return
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass  # a broken executor may be closing its pipes already

    def close(self) -> None:
        """Shut the pool down at the end of a run (not counted as a restart)."""
        self._teardown()
