"""Cache lifecycle services for the sweep fabric.

The mechanics — LRU eviction against a size budget, hit/miss/eviction
counters, and the :data:`~repro.sim.engine.SCHEMA_MIGRATIONS` chain that
keeps old-schema entries readable across a ``CACHE_SCHEMA_VERSION`` bump
— live on :class:`repro.sim.engine.ResultCache` itself, so every cache
user (``run_job``, ``run_analysis``, the fabric scheduler) gets them.
This module adds the service-level operations the ``python -m repro
fabric`` CLI exposes: a stats report and an explicit garbage-collection
pass.

Eviction rules (also in DESIGN.md §"Sweep fabric"):

- the budget bounds *total bytes of entries*; 0 means unbounded;
- coldest-first: victims are picked by ascending mtime, and a cache hit
  touches its entry, so a just-hit key always outlives a colder one;
- ``put`` evicts *after* writing, so the cache never exceeds its budget
  between operations (a budget smaller than one entry evicts that entry
  — the invariant wins over retention);
- eviction is advisory-safe: a concurrently-deleted entry is skipped,
  a re-read of an evicted key is an ordinary miss that re-executes.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.sim.engine import (
    SCHEMA_MIGRATIONS,
    ResultCache,
    register_schema_migration,
)

__all__ = [
    "SCHEMA_MIGRATIONS",
    "cache_stats",
    "gc_cache",
    "register_schema_migration",
]


def cache_stats(cache: Optional[ResultCache] = None) -> Dict[str, Any]:
    """Occupancy snapshot of the (default) result cache.

    Extends :meth:`ResultCache.stats` with entry-age bounds so ``fabric
    status`` can show how stale the cache is without listing every file.
    """
    cache = cache if cache is not None else ResultCache()
    stats = cache.stats()
    rows = cache.entries()
    stats["oldest_mtime"] = rows[0][1] if rows else None
    stats["newest_mtime"] = rows[-1][1] if rows else None
    stats["over_budget"] = bool(
        cache.budget_bytes and stats["bytes"] > cache.budget_bytes
    )
    return stats


def gc_cache(
    cache: Optional[ResultCache] = None,
    budget_bytes: Optional[int] = None,
) -> Dict[str, Any]:
    """Evict LRU entries until the cache fits its (or the given) budget.

    Returns ``{"evicted": n, "entries": left, "bytes": left_bytes,
    "budget_bytes": effective}``.  With no budget configured anywhere this
    is a no-op — use :meth:`ResultCache.clear` to wipe the cache outright.
    """
    cache = cache if cache is not None else ResultCache()
    effective = cache.budget_bytes if budget_bytes is None else budget_bytes
    evicted = cache.evict_to_budget(effective)
    rows = cache.entries()
    return {
        "evicted": evicted,
        "entries": len(rows),
        "bytes": sum(size for _path, _mtime, size in rows),
        "budget_bytes": effective,
    }
