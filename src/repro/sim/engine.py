"""Unified simulation engine: declarative jobs and result caching.

This is the single way to describe, instrument, run and cache simulations:

- :class:`SimJob` — a frozen, hashable description of one run (benchmark or
  inline profile, design point, gating mode, PowerChop configuration,
  instruction budget, seed, and what to observe: the phase log, the
  ``obs_level`` and the probe set) with a stable content-hash
  :meth:`~SimJob.key`;
- :func:`execute_job` — run one job from scratch (also the process-pool
  worker function, so everything a job references must be picklable);
- :func:`run_job` — execute with two cache layers: a per-process memo (so
  repeated calls return the *same* objects) and a persistent on-disk JSON
  :class:`ResultCache` keyed by job hash, salted by the package version
  and :data:`RESULT_SEMANTICS_VERSION` (an entry written under another
  :data:`CACHE_SCHEMA_VERSION` reads as a miss);
- :func:`run_analysis` — the same two layers for a deterministic workload
  analysis (a read-only walk such as a shard histogram): it runs once and
  its JSON value is replayed afterwards.

Environment knobs: ``REPRO_JOBS`` (default worker count, default 1),
``REPRO_CACHE_DIR`` (cache directory, default ``~/.cache/repro-powerchop``),
``REPRO_CACHE=0`` to disable the on-disk layer entirely and
``REPRO_CACHE_BUDGET`` (bytes; 0 or unset = unbounded) to cap the on-disk
cache size with LRU eviction.

Batches of jobs run on :class:`repro.sim.fabric.FabricScheduler`, the
batch runner over this engine: cache dedup, a process pool and crash
isolation.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.config import PowerChopConfig
from repro.obs.tracer import OBS_LEVELS
from repro.sim.backends import resolve_backend_name
from repro.sim.probes import ProbeSpec
from repro.sim.results import SimulationResult
from repro.sim.simulator import GatingMode, HybridSimulator
from repro.uarch.config import DesignPoint, design_for_suite
from repro.workloads.profiles import BenchmarkProfile, build_workload
from repro.workloads.suites import get_profile

__all__ = [
    "NON_KEY_FIELDS",
    "RESULT_SEMANTICS_VERSION",
    "SimJob",
    "JobRecord",
    "ResultCache",
    "execute_job",
    "failed_record",
    "run_analysis",
    "run_job",
    "clear_memo",
    "memo_get",
    "memo_put",
    "default_workers",
]

#: Bump when the cache payload schema changes (a change in what jobs
#: compute bumps :data:`RESULT_SEMANTICS_VERSION` instead).  Every entry
#: records the schema it was written under; :class:`ResultCache` treats an
#: entry of any other schema as a miss, and the next ``put`` of that key
#: rewrites it under the current one.  v2: POWERCHOP results gained the
#: static-pre-pass counters in ``extra``.  v3: results gained the
#: ``metrics`` registry snapshot (``repro.obs.metrics``,
#: ``METRICS_SCHEMA_VERSION``) and jobs the ``obs_level`` field.  v4: jobs
#: gained the ``backend`` field (excluded from the key — see
#: ``NON_KEY_FIELDS``).
CACHE_SCHEMA_VERSION = 4

#: Bump whenever a code change alters what any job or analysis computes
#: (results, phase logs, probe values, :func:`run_analysis` values).  It
#: salts :meth:`SimJob.key` and the analysis key, so entries written before
#: the bump become unreachable instead of being replayed as stale answers;
#: the package version alone has not moved in many changes.
#: The golden-trace fixtures (``tests/goldens``) record the value they were
#: captured under, and ``scripts/update_goldens.py`` refuses to rewrite a
#: fixture whose decisions changed while the recorded value is current.
RESULT_SEMANTICS_VERSION = 1

#: Job fields deliberately EXCLUDED from :meth:`SimJob.key`.  Two kinds of
#: member:
#:
#: - ``backend``: every execution backend is bit-identical to the
#:   reference loop (enforced by tests/test_backends.py), so runs that
#:   differ only in backend produce the same result and may share cache
#:   entries;
#: - ``configure``: an opaque callable that cannot be content-hashed; its
#:   effect is represented in the key by the mandatory ``cache_tag``
#:   instead (enforced in ``__post_init__``).
#:
#: Adding a field to SimJob?  It must appear either in ``key()`` or here —
#: tests/test_backends.py cross-checks the split is exhaustive.
NON_KEY_FIELDS = frozenset({"backend", "configure"})

_MANAGED_UNITS = ("vpu", "bpu", "mlc")


def _code_version() -> str:
    # Imported lazily: repro/__init__ imports repro.sim, which imports this
    # module, so a top-level ``from repro import __version__`` would run
    # against the half-initialised package.
    from repro import __version__

    return __version__


# ------------------------------------------------------------------- jobs


@dataclass(frozen=True)
class SimJob:
    """Declarative description of one simulation run.

    Exactly one of ``benchmark`` (a suite-registry name) or ``profile`` (an
    inline :class:`BenchmarkProfile`) names the workload; the workload is
    reconstructed from the spec inside each worker process, so jobs stay
    cheap to ship around.  ``design=None`` uses the paper's suite pairing.

    ``configure`` is an escape hatch for imperative simulator tweaks the
    spec cannot express.  Because the callback's effect is invisible to the
    content hash, any job carrying one *must* also carry a non-empty
    ``cache_tag`` that uniquely names the configuration — otherwise cached
    results could be served for a differently-configured run.
    """

    benchmark: str = ""
    profile: Optional[BenchmarkProfile] = None
    design: Optional[DesignPoint] = None
    mode: GatingMode = GatingMode.FULL
    powerchop_config: Optional[PowerChopConfig] = None
    managed_units: Tuple[str, ...] = _MANAGED_UNITS
    timeout_cycles: float = 20_000.0
    max_instructions: int = 1_000_000
    seed: Optional[int] = None
    collect_phase_log: bool = False
    probes: Tuple[ProbeSpec, ...] = ()
    obs_level: str = "off"
    #: Execution backend name ("reference" / "fastpath" / "vectorized";
    #: None = the registry default).  In ``NON_KEY_FIELDS``: backends are
    #: bit-identical, so results are backend-independent.
    backend: Optional[str] = None
    configure: Optional[Callable[[HybridSimulator], None]] = None
    cache_tag: str = ""

    def __post_init__(self) -> None:
        if not self.benchmark and self.profile is None:
            raise ValueError("SimJob needs a benchmark name or an inline profile")
        if self.benchmark and self.profile is not None:
            raise ValueError("pass either benchmark or profile, not both")
        if self.max_instructions < 1:
            raise ValueError("max_instructions must be >= 1")
        if self.timeout_cycles <= 0:
            raise ValueError("timeout_cycles must be positive")
        unknown = set(self.managed_units) - set(_MANAGED_UNITS)
        if unknown:
            raise ValueError(f"unknown managed units {sorted(unknown)}")
        if self.obs_level not in OBS_LEVELS:
            raise ValueError(
                f"obs_level must be one of {OBS_LEVELS}, got {self.obs_level!r}"
            )
        # execute_job keys JobRecord.probes by name, so a second probe of
        # the same name would silently replace the first one's value.
        names = [spec.name for spec in self.probes]
        duplicates = sorted({name for name in names if names.count(name) > 1})
        if duplicates:
            raise ValueError(f"duplicate probe names {duplicates}")
        # Validates the name at job-construction time rather than inside
        # a worker.
        resolve_backend_name(self.backend)
        if self.configure is not None and not self.cache_tag:
            raise ValueError(
                "a configure callback requires a non-empty cache_tag: the "
                "callback's effect is not part of the job hash, so an "
                "untagged job could be served stale results for a "
                "different configuration"
            )

    # ------------------------------------------------------------ resolve

    def resolve_profile(self) -> BenchmarkProfile:
        return self.profile if self.profile is not None else get_profile(self.benchmark)

    def resolve_design(self, profile: Optional[BenchmarkProfile] = None) -> DesignPoint:
        if self.design is not None:
            return self.design
        profile = profile if profile is not None else self.resolve_profile()
        return design_for_suite(profile.suite)

    def resolve_config(self) -> Optional[PowerChopConfig]:
        """The PowerChop config this job runs with (None outside POWERCHOP)."""
        if self.mode is not GatingMode.POWERCHOP:
            return None
        config = self.powerchop_config or PowerChopConfig(
            managed_units=self.managed_units
        )
        if self.collect_phase_log and not config.collect_phase_vectors:
            config = replace(config, collect_phase_vectors=True)
        return config

    # ---------------------------------------------------------------- key

    def key(self) -> str:
        """Stable content hash identifying this job across processes.

        Frozen-dataclass reprs are deterministic functions of their field
        values, which makes them a canonical text form for hashing.  Every
        field participates except the documented ``NON_KEY_FIELDS`` (the
        ``configure`` callback is represented by ``cache_tag``, enforced
        non-empty above).  The package version and
        :data:`RESULT_SEMANTICS_VERSION` salt the hash so old cache entries
        never alias new semantics.  The cache *schema* version is
        deliberately not in the key: entries carry it in-file instead, so
        after a schema bump a job keeps its key, its old entry reads as a
        miss, and the next ``put`` overwrites that entry in place rather
        than leaving an orphan beside it.
        """
        parts = (
            f"version={_code_version()}",
            f"semantics={RESULT_SEMANTICS_VERSION}",
            f"benchmark={self.benchmark}",
            f"profile={self.profile!r}",
            f"design={self.design!r}",
            f"mode={self.mode.value}",
            f"config={self.resolve_config()!r}",
            f"managed={self.managed_units!r}",
            f"timeout={self.timeout_cycles!r}",
            f"budget={self.max_instructions}",
            f"seed={self.seed!r}",
            f"phase_log={self.collect_phase_log!r}",
            f"probes={self.probes!r}",
            f"obs={self.obs_level}",
            f"tag={self.cache_tag}",
        )
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()


@dataclass
class JobRecord:
    """Everything one executed :class:`SimJob` produced.

    A record either succeeded (``result`` set, ``error`` empty) or failed
    (``result is None``, ``error`` holds the reason).  Failed records are
    produced by the batch runner, :class:`repro.sim.fabric.FabricScheduler`,
    so one bad job cannot abort a batch; they are never memoised or
    persisted, so a transient failure is retried on the next submission.
    """

    job_key: str
    result: Optional[SimulationResult]
    phase_log: List[Tuple[Tuple[int, ...], Dict[int, int]]] = field(
        default_factory=list
    )
    probes: Dict[str, Any] = field(default_factory=dict)
    from_cache: bool = False
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error and self.result is not None


def failed_record(key: str, exc: BaseException) -> JobRecord:
    """A failure :class:`JobRecord` describing why a job produced no result."""
    return JobRecord(
        job_key=key, result=None, error=f"{type(exc).__name__}: {exc}"
    )


def execute_job(job: SimJob) -> JobRecord:
    """Run one job from scratch (no caching).  Process-pool worker."""
    profile = job.resolve_profile()
    design = job.resolve_design(profile)
    workload = build_workload(profile, job.seed)
    simulator = HybridSimulator(
        design,
        workload,
        mode=job.mode,
        powerchop_config=job.resolve_config(),
        timeout_cycles=job.timeout_cycles,
        obs_level=job.obs_level,
        backend=job.backend,
    )
    if job.configure is not None:
        job.configure(simulator)
    probe_states = tuple(spec.build() for spec in job.probes)
    result = simulator.run(job.max_instructions, probes=probe_states)
    phase_log = (
        list(simulator.controller.phase_log) if simulator.controller else []
    )
    return JobRecord(
        job_key=job.key(),
        result=result,
        phase_log=phase_log,
        probes={state.name: state.value() for state in probe_states},
    )


# ------------------------------------------------------------------ cache


def _default_budget() -> int:
    """Size budget in bytes from ``REPRO_CACHE_BUDGET`` (0 = unbounded)."""
    raw = os.environ.get("REPRO_CACHE_BUDGET", "0")
    try:
        budget = int(raw)
    except ValueError as exc:
        raise ValueError("REPRO_CACHE_BUDGET must be an integer byte count") from exc
    if budget < 0:
        raise ValueError("REPRO_CACHE_BUDGET must be >= 0")
    return budget


class ResultCache:
    """Persistent on-disk JSON cache, one file per key.

    Entries are :class:`JobRecord` payloads (``get``/``put``) or
    :func:`run_analysis` values (``get_value``/``put_value``); both kinds
    share one read and one write path.  The directory comes from
    ``REPRO_CACHE_DIR`` (default ``~/.cache/repro-powerchop``);
    ``REPRO_CACHE=0`` disables reads and writes.  Entries are invalidated
    implicitly: the package version and :data:`RESULT_SEMANTICS_VERSION`
    salt every key, and any config change alters the key.  Corrupt,
    malformed or unreadable entries are treated as misses, and so is an
    entry written under any ``CACHE_SCHEMA_VERSION`` but the current one;
    the next ``put`` of its key rewrites it under the current schema.

    Lifecycle: ``budget_bytes`` (default ``REPRO_CACHE_BUDGET``; 0 =
    unbounded) caps the total on-disk size.  Every ``put`` evicts
    least-recently-used entries (by file mtime — ``get`` hits touch their
    entry) until the cache fits the budget, so the cache never exceeds it.
    ``hits`` / ``misses`` / ``evictions`` count this instance's observed
    operations; ``write_failures`` counts puts that could not persist
    their entry (an ``OSError`` while writing), which never raise.
    ``clock`` injects a deterministic time source for tests;
    the default is the filesystem's own clock.
    """

    def __init__(
        self,
        root: Optional[Path] = None,
        enabled: Optional[bool] = None,
        budget_bytes: Optional[int] = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        if root is None:
            root = Path(
                os.environ.get(
                    "REPRO_CACHE_DIR",
                    os.path.join(os.path.expanduser("~"), ".cache", "repro-powerchop"),
                )
            )
        self.root = Path(root)
        if enabled is None:
            enabled = os.environ.get("REPRO_CACHE", "1") != "0"
        self.enabled = enabled
        self.budget_bytes = _default_budget() if budget_bytes is None else budget_bytes
        if self.budget_bytes < 0:
            raise ValueError("budget_bytes must be >= 0")
        self.clock = clock
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.write_failures = 0

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def _touch(self, path: Path) -> None:
        """Mark ``path`` most-recently-used (mtime = now / injected clock)."""
        try:
            if self.clock is None:
                os.utime(path)
            else:
                stamp = self.clock()
                os.utime(path, (stamp, stamp))
        except OSError:
            pass  # entry raced away; the next get is simply a miss

    def _read(
        self, key: str, decode: Callable[[Dict[str, Any]], Any], default: Any = None
    ) -> Any:
        """Decode the entry at ``key``, or return ``default`` on a miss.

        Shared by both entry kinds.  An unreadable file, invalid JSON, a
        schema other than :data:`CACHE_SCHEMA_VERSION`, or JSON of the wrong
        shape makes the entry a miss: a missing field raises ``KeyError``,
        and a value of the wrong kind where an object is expected (the
        entry itself, or a field ``decode`` reads) raises
        ``AttributeError`` or ``TypeError``.
        """
        if not self.enabled:
            return default
        path = self._path(key)
        try:
            with open(path) as handle:
                data = json.load(handle)
            if data.get("schema") != CACHE_SCHEMA_VERSION:
                raise ValueError(f"cache schema {data.get('schema')!r}")
            value = decode(data)
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            self.misses += 1
            return default
        self.hits += 1
        self._touch(path)
        return value

    def _write(self, key: str, body: Dict[str, Any]) -> None:
        """Atomically store ``body`` (stamped with schema and version) at ``key``.

        Shared by both entry kinds: a temp file replaced into place, a
        counted failure on ``OSError``, then touch and eviction.
        """
        payload = {"schema": CACHE_SCHEMA_VERSION, "version": _code_version(), **body}
        try:
            text = json.dumps(payload)
        except TypeError:
            return  # a non-JSON probe value; skip persistence, keep the memo
        path = self._path(key)
        tmp = path.with_suffix(".tmp%d" % os.getpid())
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            tmp.write_text(text)
            os.replace(tmp, path)
        except OSError:
            # Full disk, read-only or missing directory: the computation
            # already succeeded, so losing its persistence must not lose
            # the result.  Count the failure and keep the memo.
            self.write_failures += 1
            try:
                tmp.unlink()
            except OSError:
                pass
            return
        self._touch(path)
        self.evict_to_budget()

    def get(self, key: str) -> Optional[JobRecord]:
        def decode(data: Dict[str, Any]) -> JobRecord:
            return JobRecord(
                job_key=key,
                result=SimulationResult.from_dict(data["result"]),
                phase_log=[
                    (tuple(signature), {int(tid): count for tid, count in vector.items()})
                    for signature, vector in data["phase_log"]
                ],
                probes=data.get("probes", {}),
                from_cache=True,
            )

        return self._read(key, decode)

    def put(self, key: str, record: JobRecord) -> None:
        if not self.enabled or record.result is None:
            return
        self._write(
            key,
            {
                "result": record.result.to_dict(),
                "phase_log": [
                    [list(signature), vector] for signature, vector in record.phase_log
                ],
                "probes": record.probes,
            },
        )

    def get_value(self, key: str, default: Any = None) -> Any:
        """The :func:`run_analysis` value stored at ``key``, else ``default``."""
        return self._read(key, lambda data: data["value"], default)

    def put_value(self, key: str, value: Any) -> None:
        """Store a JSON-native :func:`run_analysis` value at ``key``."""
        if self.enabled:
            self._write(key, {"value": value})

    # ------------------------------------------------------- lifecycle

    def entries(self) -> List[Tuple[Path, float, int]]:
        """``(path, mtime, size)`` for every entry, coldest first."""
        rows = []
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                rows.append((path, stat.st_mtime, stat.st_size))
        rows.sort(key=lambda row: (row[1], row[0].name))
        return rows

    def total_bytes(self) -> int:
        return sum(size for _path, _mtime, size in self.entries())

    def evict_to_budget(self, budget_bytes: Optional[int] = None) -> int:
        """Unlink least-recently-used entries until the cache fits.

        Returns how many entries were evicted.  A budget of 0 means
        unbounded (nothing is ever evicted).
        """
        budget = self.budget_bytes if budget_bytes is None else budget_bytes
        if budget <= 0:
            return 0
        rows = self.entries()
        total = sum(size for _path, _mtime, size in rows)
        evicted = 0
        for path, _mtime, size in rows:
            if total <= budget:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            evicted += 1
        self.evictions += evicted
        return evicted

    def stats(self) -> Dict[str, Any]:
        """Lifecycle snapshot: occupancy plus this instance's counters."""
        rows = self.entries()
        return {
            "root": str(self.root),
            "enabled": self.enabled,
            "entries": len(rows),
            "bytes": sum(size for _path, _mtime, size in rows),
            "budget_bytes": self.budget_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "write_failures": self.write_failures,
        }

    def clear(self) -> int:
        """Delete all cache entries; returns how many were removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed


#: Per-process memo: job key -> JobRecord.  Callers that hit the memo get
#: the *same* record object back, which the experiment layer relies on.
_MEMO: Dict[str, JobRecord] = {}

#: Per-process memo of :func:`run_analysis` values: analysis key -> value.
_ANALYSES: Dict[str, Any] = {}

#: ``get_value`` default marking a miss (a stored value may be ``None``).
_MISSING = object()


def clear_memo() -> None:
    """Drop the per-process memos (the on-disk cache is unaffected)."""
    _MEMO.clear()
    _ANALYSES.clear()


def memo_get(key: str) -> Optional[JobRecord]:
    """Look up the per-process memo (used by the fabric scheduler)."""
    return _MEMO.get(key)


def memo_put(key: str, record: JobRecord) -> None:
    """Install a successful record in the per-process memo."""
    if record.ok:
        _MEMO[key] = record


def run_job(job: SimJob, cache: Optional[ResultCache] = None) -> JobRecord:
    """Run one job through the memo and on-disk cache layers."""
    key = job.key()
    record = _MEMO.get(key)
    if record is not None:
        # Same result/phase_log objects as the memoised record; only the
        # from_cache flag differs, so callers can see the hit.
        return replace(record, from_cache=True)
    if cache is None:
        cache = ResultCache()
    record = cache.get(key)
    if record is None:
        record = execute_job(job)
        cache.put(key, record)
    _MEMO[key] = record
    return record


def run_analysis(fn: Callable[..., Any], **params: Any) -> Any:
    """Run the workload analysis ``fn(**params)`` once; replay its value after.

    ``fn`` must be a module-level function (its qualified name is part of
    the key, so closures and lambdas are rejected) whose JSON-native value
    depends only on ``params`` and the code.  The key hashes the package
    version, :data:`RESULT_SEMANTICS_VERSION`, ``fn``'s module-qualified
    name and the sorted ``params`` the way :meth:`SimJob.key` hashes a job,
    so pass every input explicitly and keep ``params`` plain values with
    stable reprs.  Bump :data:`RESULT_SEMANTICS_VERSION` when an analysis's
    output changes.

    Values go through the per-process memo and the :class:`ResultCache`.
    A cold call returns the value after a JSON round trip, so cold and
    warm calls return equal values of the same types (tuples come back as
    lists).  A memo hit returns the same object again: treat it as
    read-only.
    """
    if "<" in fn.__qualname__:
        raise ValueError(
            f"run_analysis needs a module-level function, got {fn.__qualname__!r}"
        )
    parts = (
        f"version={_code_version()}",
        f"semantics={RESULT_SEMANTICS_VERSION}",
        f"analysis={fn.__module__}.{fn.__qualname__}",
        *(f"{name}={value!r}" for name, value in sorted(params.items())),
    )
    key = hashlib.sha256("\n".join(parts).encode()).hexdigest()
    if key in _ANALYSES:
        return _ANALYSES[key]
    cache = ResultCache()
    value = cache.get_value(key, _MISSING)
    if value is _MISSING:
        value = json.loads(json.dumps(fn(**params)))
        cache.put_value(key, value)
    _ANALYSES[key] = value
    return value


# ---------------------------------------------------------------- workers


def default_workers() -> int:
    """Worker count from ``REPRO_JOBS`` (default 1 = serial)."""
    try:
        workers = int(os.environ.get("REPRO_JOBS", "1"))
    except ValueError as exc:
        raise ValueError("REPRO_JOBS must be an integer") from exc
    if workers < 1:
        raise ValueError("REPRO_JOBS must be >= 1")
    return workers
