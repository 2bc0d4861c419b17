"""Sweep-fabric suite: fault injection, cache lifecycle, batch runner.

Covers the acceptance matrix for the fabric, the engine's batch runner:

- retry-success / retry-exhaustion / timeout / batch-survives-poison-worker
  paths, driven by the deterministic ``FaultyExecutor`` injectors from
  conftest;
- property-based (seeded ``random``, no extra deps) cache-lifecycle
  checks: the size budget is never exceeded, LRU never evicts a just-hit
  key before a colder one, and hit/miss/eviction counters reconcile with
  the model's observed operations;
- batch determinism: records are bit-identical and in job order whatever
  the worker count, and a warm disk cache replays them;
- failure isolation: a crashed, raising or unpicklable-result job yields a
  failed :class:`JobRecord` while the rest of the batch completes;
- cost bounds: in-process attempts never overlap, and a warm run never
  lists the cache directory.
"""

import os
import random
import threading
import time

import pytest

from repro.sim import engine
from repro.sim.engine import (
    ResultCache,
    SimJob,
    execute_job,
)
from repro.sim.fabric import (
    FabricScheduler,
    JobStatus,
    PoolUnavailable,
    RestartablePool,
    RetryPolicy,
)
from repro.sim.simulator import GatingMode
from tests.conftest import UnpicklableProbe

FAST = RetryPolicy(max_attempts=2, base_delay=0.01, max_delay=0.05)


@pytest.fixture(autouse=True)
def fresh_engine(monkeypatch, tmp_path):
    """Each test gets an empty memo and its own disk-cache directory."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_CACHE_BUDGET", raising=False)
    engine.clear_memo()
    yield
    engine.clear_memo()


def _job(seed=None, budget=30_000, benchmark="hmmer", mode=GatingMode.FULL):
    return SimJob(
        benchmark=benchmark, mode=mode, max_instructions=budget, seed=seed
    )


def _six_jobs(budget=60_000):
    """A small mixed batch: three modes on one server and one mobile app."""
    return [
        _job(benchmark=name, mode=mode, budget=budget)
        for name in ("hmmer", "msn")
        for mode in (GatingMode.FULL, GatingMode.POWERCHOP, GatingMode.MINIMAL)
    ]


# ------------------------------------------------------------ retry policy


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay=0.1, multiplier=2.0, max_delay=0.3,
            jitter_frac=0.0,
        )
        rng = random.Random(0)
        delays = [policy.delay(n, rng) for n in (1, 2, 3, 4)]
        assert delays == [0.1, 0.2, 0.3, 0.3]  # exponential, then capped

    def test_jitter_bounded_and_seeded(self):
        policy = RetryPolicy(base_delay=1.0, jitter_frac=0.25, max_delay=1.0)
        draws = [policy.delay(1, random.Random(seed)) for seed in range(50)]
        assert all(0.75 <= d <= 1.25 for d in draws)
        assert len(set(draws)) > 1  # jitter actually varies
        # Seeded: the same rng state reproduces the same delay sequence.
        assert [policy.delay(1, random.Random(7)) for _ in range(3)] == [
            policy.delay(1, random.Random(7)) for _ in range(3)
        ]

    def test_exhausted_counts_first_attempt(self):
        assert RetryPolicy(max_attempts=1).exhausted(1)
        assert not RetryPolicy(max_attempts=3).exhausted(2)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter_frac=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)


# --------------------------------------------------------- restartable pool


class TestRestartablePool:
    def test_restart_if_ignores_stale_generation(self):
        pool = RestartablePool(max_workers=1)
        generation = pool.generation
        pool.restart()  # generation moves on
        assert pool.restarts == 1
        pool.restart_if(generation)  # stale caller: must not restart again
        assert pool.restarts == 1
        pool.restart_if(pool.generation)  # live caller: restarts
        assert pool.restarts == 2
        pool.close()

    def test_unavailable_pool_raises_pool_unavailable(self, monkeypatch):
        pool = RestartablePool(max_workers=2)

        def boom(max_workers):
            raise OSError("no fork for you")

        monkeypatch.setattr(
            "repro.sim.fabric.pool.ProcessPoolExecutor", boom
        )
        with pytest.raises(PoolUnavailable):
            pool.submit(int)
        assert not pool.available
        with pytest.raises(PoolUnavailable):  # stays unavailable
            pool.submit(int)


# -------------------------------------------------- cache lifecycle (LRU)


@pytest.fixture(scope="module")
def template_record():
    """One real successful record to persist under synthetic keys."""
    return execute_job(SimJob(benchmark="hmmer", max_instructions=20_000))


class _Clock:
    """Deterministic strictly-increasing mtime source."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class TestCacheLifecycle:
    def _cache(self, tmp_path, budget_entries, entry_size):
        return ResultCache(
            root=tmp_path / "lru",
            budget_bytes=budget_entries * entry_size,
            clock=_Clock(),
        )

    def _entry_size(self, tmp_path, record):
        probe = ResultCache(root=tmp_path / "probe")
        probe.put("size-probe", record)
        return probe.total_bytes()

    def test_lru_never_evicts_just_hit_key_before_colder(
        self, tmp_path, template_record
    ):
        size = self._entry_size(tmp_path, template_record)
        cache = self._cache(tmp_path, 3, size)
        for key in ("k1", "k2", "k3"):
            cache.put(key, template_record)
        assert cache.get("k1") is not None  # touch: k1 is now hottest
        cache.put("k4", template_record)  # over budget: k2 is coldest
        names = {path.name for path, _mtime, _size in cache.entries()}
        assert names == {"k1.json", "k3.json", "k4.json"}
        assert cache.evictions == 1
        assert cache.get("k2") is None  # evicted -> miss

    def test_budget_smaller_than_one_entry_still_holds(
        self, tmp_path, template_record
    ):
        size = self._entry_size(tmp_path, template_record)
        cache = ResultCache(
            root=tmp_path / "tiny", budget_bytes=size - 1, clock=_Clock()
        )
        cache.put("only", template_record)
        assert cache.total_bytes() <= size - 1  # invariant wins: evicted
        assert cache.entries() == []

    def test_zero_budget_means_unbounded(self, tmp_path, template_record):
        cache = ResultCache(root=tmp_path / "unbounded", budget_bytes=0)
        for index in range(8):
            cache.put(f"key{index}", template_record)
        assert len(cache.entries()) == 8
        assert cache.evictions == 0

    def test_budget_env_default(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_BUDGET", "12345")
        assert ResultCache(root=tmp_path).budget_bytes == 12345
        monkeypatch.setenv("REPRO_CACHE_BUDGET", "chonky")
        with pytest.raises(ValueError):
            ResultCache(root=tmp_path)

    def test_property_interleavings_respect_budget_lru_and_counters(
        self, tmp_path, template_record
    ):
        """Seeded random put/get interleavings against a model cache.

        Invariants after every operation: total bytes <= budget; the
        resident key set is exactly the model's LRU survivors (so no
        eviction ever picks a hotter key over a colder one); and the
        hit/miss/eviction counters equal the model's observed counts.
        """
        size = self._entry_size(tmp_path, template_record)
        budget_entries = 4
        cache = self._cache(tmp_path, budget_entries, size)
        rng = random.Random(1234)
        universe = [f"key{n}" for n in range(10)]
        model_lru: list = []  # coldest ... hottest
        hits = misses = evictions = 0

        for _step in range(300):
            key = rng.choice(universe)
            if rng.random() < 0.5:
                cache.put(key, template_record)
                if key in model_lru:
                    model_lru.remove(key)
                model_lru.append(key)
                while len(model_lru) > budget_entries:
                    model_lru.pop(0)
                    evictions += 1
            else:
                record = cache.get(key)
                if key in model_lru:
                    assert record is not None, f"model expected hit on {key}"
                    model_lru.remove(key)
                    model_lru.append(key)
                    hits += 1
                else:
                    assert record is None, f"model expected miss on {key}"
                    misses += 1
            assert cache.total_bytes() <= budget_entries * size
            resident = {path.name[: -len(".json")] for path, _m, _s in cache.entries()}
            assert resident == set(model_lru)
        assert (cache.hits, cache.misses, cache.evictions) == (
            hits,
            misses,
            evictions,
        ), "counters must reconcile with observed operations"
        assert evictions > 0 and hits > 0 and misses > 0  # the run was interesting


# ------------------------------------------------------- schema migration


class TestSchemaMigration:
    @pytest.fixture(autouse=True)
    def _pristine_migrations(self):
        saved = dict(engine.SCHEMA_MIGRATIONS)
        engine.SCHEMA_MIGRATIONS.clear()
        yield
        engine.SCHEMA_MIGRATIONS.clear()
        engine.SCHEMA_MIGRATIONS.update(saved)

    def test_v4_records_readable_after_bump_via_migration(
        self, monkeypatch, tmp_path, template_record
    ):
        cache = ResultCache(root=tmp_path / "mig")
        old_version = engine.CACHE_SCHEMA_VERSION
        job = SimJob(benchmark="hmmer", max_instructions=20_000)
        key = job.key()
        cache.put(key, template_record)

        monkeypatch.setattr(engine, "CACHE_SCHEMA_VERSION", old_version + 1)
        assert job.key() == key, "schema version must not salt the job key"
        assert cache.get(key) is None, "no migration registered -> miss"

        @engine.register_schema_migration(old_version)
        def _up(payload):
            payload = dict(payload)
            payload["schema"] = old_version + 1
            return payload

        migrated = cache.get(key)
        assert migrated is not None
        assert migrated.from_cache
        assert migrated.result.to_dict() == template_record.result.to_dict()

    def test_migration_chain_and_cycle_guard(
        self, monkeypatch, tmp_path, template_record
    ):
        cache = ResultCache(root=tmp_path / "chain")
        old_version = engine.CACHE_SCHEMA_VERSION
        cache.put("k", template_record)
        monkeypatch.setattr(engine, "CACHE_SCHEMA_VERSION", old_version + 2)

        @engine.register_schema_migration(old_version)
        def _one(payload):
            return {**payload, "schema": old_version + 1}

        assert cache.get("k") is None  # chain stops one short -> miss

        @engine.register_schema_migration(old_version + 1)
        def _two(payload):
            return {**payload, "schema": old_version + 2}

        assert cache.get("k") is not None  # full chain now reaches current

        # A migration that loops forever must be detected, not spin.
        @engine.register_schema_migration(old_version + 1)
        def _loop(payload):
            return {**payload, "schema": old_version}

        assert cache.get("k") is None


# --------------------------------------------------------- the scheduler


def _counter(scheduler, name):
    return scheduler.registry.snapshot()["counters"].get(name, 0)


class TestFabricScheduler:
    def test_basic_batch_order_duplicates_and_events(self):
        jobs = [_job(seed=1), _job(seed=2), _job(seed=1)]
        scheduler = FabricScheduler(workers=1, retry=FAST)
        records = scheduler.run(jobs)
        assert [r.ok for r in records] == [True, True, True]
        assert records[0] is records[2]  # duplicates share one record
        assert [r.from_cache for r in records] == [False, False, False]
        statuses = [e.status for e in scheduler.events]
        assert statuses.count(JobStatus.QUEUED) == 2  # unique jobs only
        assert statuses.count(JobStatus.DONE) == 2
        assert statuses[0] is JobStatus.QUEUED
        done_counter = _counter(scheduler, "fabric_jobs{status=done}")
        assert done_counter == 2

    def test_parallel_matches_serial_bit_identical(self, monkeypatch, tmp_path):
        jobs = _six_jobs()

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
        engine.clear_memo()
        serial = FabricScheduler(workers=1, retry=FAST).run(jobs)

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "parallel"))
        monkeypatch.setenv("REPRO_JOBS", "4")
        engine.clear_memo()
        scheduler = FabricScheduler(retry=FAST)
        assert scheduler.workers == 4
        parallel = scheduler.run(jobs)

        assert [r.from_cache for r in parallel] == [False] * len(jobs)
        assert [r.job_key for r in parallel] == [r.job_key for r in serial]
        serial_dicts = [r.result.to_dict() for r in serial]
        parallel_dicts = [r.result.to_dict() for r in parallel]
        assert serial_dicts == parallel_dicts  # same order, same values
        assert [r.phase_log for r in parallel] == [r.phase_log for r in serial]
        assert [r.result.benchmark for r in parallel] == [j.benchmark for j in jobs]
        assert [r.result.mode for r in parallel] == [j.mode.value for j in jobs]

    def test_warm_disk_cache_is_10x_faster(self):
        jobs = _six_jobs(budget=250_000)

        start = time.perf_counter()
        cold = FabricScheduler(workers=1, retry=FAST).run(jobs)
        cold_elapsed = time.perf_counter() - start

        engine.clear_memo()  # force the disk layer, not the memo
        start = time.perf_counter()
        warm = FabricScheduler(workers=1, retry=FAST).run(jobs)
        warm_elapsed = time.perf_counter() - start

        assert all(r.from_cache for r in warm)
        assert [r.result.to_dict() for r in warm] == [
            r.result.to_dict() for r in cold
        ]
        assert cold_elapsed >= 10 * warm_elapsed, (
            f"warm cache not >=10x faster: cold {cold_elapsed:.3f}s, "
            f"warm {warm_elapsed:.3f}s"
        )

    def test_warm_run_never_lists_the_cache(self, monkeypatch):
        jobs = [_job(seed=1), _job(seed=2)]
        FabricScheduler(workers=1, retry=FAST).run(jobs)
        engine.clear_memo()

        def no_listing(cache):
            raise AssertionError("a warm run listed every cache entry")

        monkeypatch.setattr(ResultCache, "entries", no_listing)
        records = FabricScheduler(workers=1, retry=FAST).run(jobs)
        assert all(r.from_cache for r in records)

    def test_in_process_attempts_never_overlap(self, monkeypatch):
        """Without a pool, attempts run one at a time in the calling thread."""
        lock = threading.Lock()
        in_flight = [0]
        peak = [0]
        threads = set()

        def tracked(job):
            with lock:
                in_flight[0] += 1
                peak[0] = max(peak[0], in_flight[0])
                threads.add(threading.get_ident())
            try:
                time.sleep(0.05)  # widen any overlap
                return execute_job(job)
            finally:
                with lock:
                    in_flight[0] -= 1

        monkeypatch.setattr("repro.sim.fabric.scheduler.execute_job", tracked)
        jobs = [_job(seed=seed, budget=5_000) for seed in range(4)]
        records = FabricScheduler(workers=1, retry=FAST).run(jobs)
        assert all(r.ok for r in records)
        assert peak[0] == 1
        assert threads == {threading.get_ident()}

    def test_unpicklable_result_fails_one_job_not_the_batch(self):
        poisoned = SimJob(
            benchmark="hmmer",
            max_instructions=30_000,
            probes=(UnpicklableProbe(),),
        )
        jobs = [_job(seed=1), poisoned, _job(seed=2)]
        records = FabricScheduler(workers=2, retry=FAST).run(jobs)
        assert [r.ok for r in records] == [True, False, True]
        assert records[1].result is None
        assert records[1].error
        # The failure is not memoised or persisted: resubmitting retries it.
        assert engine.memo_get(poisoned.key()) is None
        assert ResultCache().get(poisoned.key()) is None

    def test_warm_run_is_all_cached(self):
        jobs = [_job(seed=1), _job(seed=2)]
        FabricScheduler(workers=1, retry=FAST).run(jobs)
        engine.clear_memo()  # force the disk layer
        scheduler = FabricScheduler(workers=1, retry=FAST)
        records = scheduler.run(jobs)
        assert all(r.from_cache for r in records)
        assert _counter(scheduler, "fabric_jobs{status=cached}") == 2
        assert _counter(scheduler, "fabric_cache{event=hit}") == 2
        assert {e.status for e in scheduler.events} == {JobStatus.CACHED}

    def test_batch_completes_when_cache_writes_fail(self, tmp_path):
        blocker = tmp_path / "regular-file"
        blocker.write_text("not a directory")
        cache = ResultCache(root=blocker / "cache")
        jobs = [_job(seed=1), _job(seed=2)]
        records = FabricScheduler(workers=1, retry=FAST, cache=cache).run(jobs)
        assert [r.ok for r in records] == [True, True]
        assert cache.write_failures == 2

    def test_retry_success_after_one_crash(self, crashing_job):
        """Crash-once: the job's first worker dies, the retry lands."""
        jobs = [
            crashing_job("crash", once=True),
            _job(seed=11),
            _job(seed=12),
        ]
        scheduler = FabricScheduler(
            workers=2,
            retry=RetryPolicy(max_attempts=4, base_delay=0.01, max_delay=0.05),
        )
        records = scheduler.run(jobs)
        assert [r.ok for r in records] == [True, True, True]
        assert _counter(scheduler, "fabric_crashes") >= 1
        assert _counter(scheduler, "fabric_retries") >= 1
        assert _counter(scheduler, "fabric_pool_restarts") >= 1
        assert _counter(scheduler, "fabric_jobs{status=failed}") == 0

    def test_retry_exhaustion_yields_failed_record(self, crashing_job):
        scheduler = FabricScheduler(workers=1, retry=FAST)
        records = scheduler.run([crashing_job("raise"), _job(seed=13)])
        assert [r.ok for r in records] == [False, True]
        assert "RuntimeError: injected fault" in records[0].error
        assert records[0].result is None
        assert _counter(scheduler, "fabric_retries") == 1  # 2 attempts
        assert _counter(scheduler, "fabric_jobs{status=failed}") == 1
        failed_events = [
            e for e in scheduler.events if e.status is JobStatus.FAILED
        ]
        assert len(failed_events) == 1 and failed_events[0].attempt == 2

    def test_crash_fails_only_the_culprit(self, crashing_job):
        """A crash breaks every attempt in flight; the casualties retry
        alone, so only the job that kills its worker fails."""
        jobs = [_job(seed=1), crashing_job("crash")]
        jobs += [_job(seed=seed) for seed in range(2, 6)]
        scheduler = FabricScheduler(workers=2, retry=FAST)
        records = scheduler.run(jobs)
        assert [r.ok for r in records] == [True, False, True, True, True, True]
        assert "worker pool broke" in records[1].error
        assert _counter(scheduler, "fabric_jobs{status=done}") == 5

    @pytest.mark.timeout(120)
    def test_batch_survives_poison_worker(self, crashing_job):
        """Acceptance: job k of N crashes its worker on every attempt.

        The fabric returns N records — N-1 succeeded, 1 failed after the
        configured retries — and the metrics report the retry/failure
        counts.  ``shard_size=1`` serialises dispatch, confining each
        crash to its own job.
        """
        jobs = [
            _job(seed=21),
            _job(seed=22),
            crashing_job("crash"),  # job k: poisons its worker, always
            _job(seed=23),
        ]
        scheduler = FabricScheduler(workers=2, shard_size=1, retry=FAST)
        records = scheduler.run(jobs)
        assert len(records) == len(jobs)
        assert [r.ok for r in records] == [True, True, False, True]
        assert "worker pool broke" in records[2].error
        assert _counter(scheduler, "fabric_crashes") == FAST.max_attempts
        assert _counter(scheduler, "fabric_retries") == FAST.max_attempts - 1
        assert _counter(scheduler, "fabric_jobs{status=failed}") == 1
        assert _counter(scheduler, "fabric_jobs{status=done}") == 3

    @pytest.mark.timeout(90)
    def test_hang_times_out_and_batch_completes(self, crashing_job):
        """Hang-injection: the per-job timeout reclaims the stuck worker."""
        jobs = [crashing_job("hang"), _job(seed=31)]
        scheduler = FabricScheduler(
            workers=2,
            shard_size=1,
            job_timeout=1.5,
            retry=RetryPolicy(max_attempts=1),
        )
        records = scheduler.run(jobs)
        assert [r.ok for r in records] == [False, True]
        assert "TimeoutError" in records[0].error
        assert _counter(scheduler, "fabric_timeouts") == 1
        assert _counter(scheduler, "fabric_pool_restarts") >= 1

    @pytest.mark.timeout(90)
    def test_hang_timeout_then_retry_succeeds(self, crashing_job):
        """Hang-once: first attempt times out, the retry completes."""
        jobs = [crashing_job("hang", once=True)]
        scheduler = FabricScheduler(
            workers=2,
            job_timeout=1.5,
            retry=RetryPolicy(max_attempts=2, base_delay=0.01),
        )
        records = scheduler.run(jobs)
        assert records[0].ok
        assert _counter(scheduler, "fabric_timeouts") == 1
        assert _counter(scheduler, "fabric_retries") == 1

    @pytest.mark.timeout(90)
    def test_timeout_clock_starts_when_a_worker_takes_the_job(self, crashing_job):
        """Healthy jobs queued behind a busy pool do not time out.

        Four 1 s jobs on two workers take about 2 s; a 1.7 s timeout that
        counted the wait in the executor's queue would fail the last two.
        """
        jobs = [
            crashing_job("slow", seconds=1.0, tag=f"slow-{index}")
            for index in range(4)
        ]
        scheduler = FabricScheduler(
            workers=2,
            job_timeout=1.7,
            retry=RetryPolicy(max_attempts=1),
        )
        records = scheduler.run(jobs)
        assert [r.ok for r in records] == [True] * 4
        assert _counter(scheduler, "fabric_timeouts") == 0

    def test_degrades_to_serial_when_pool_unavailable(self, monkeypatch):
        def no_pool(self):
            self.available = False
            raise PoolUnavailable("injected: no subprocesses here")

        monkeypatch.setattr(RestartablePool, "_ensure", no_pool)
        scheduler = FabricScheduler(workers=4, retry=FAST)
        records = scheduler.run([_job(seed=41), _job(seed=42)])
        assert [r.ok for r in records] == [True, True]
        assert _counter(scheduler, "fabric_pool_unavailable") >= 1
        assert _counter(scheduler, "fabric_jobs{status=done}") == 2

    def test_unpicklable_jobs_run_in_process(self):
        calls = []

        def tweak(simulator):  # local closure: not picklable
            calls.append(os.getpid())

        jobs = [
            SimJob(
                benchmark="hmmer",
                max_instructions=30_000,
                configure=tweak,
                cache_tag="fabric-noop-tweak",
            ),
            _job(),
        ]
        records = FabricScheduler(workers=2, retry=FAST).run(jobs)
        assert [r.ok for r in records] == [True, True]
        assert records[0].job_key != records[1].job_key  # tag salts the key
        # The closure can't travel to a pool worker; the job must have run
        # in-process, once — and, changing nothing, bit-identically to the
        # plain one.
        assert calls == [os.getpid()]
        assert records[0].result.to_dict() == records[1].result.to_dict()

    def test_validation(self):
        with pytest.raises(ValueError):
            FabricScheduler(workers=0)
        with pytest.raises(ValueError):
            FabricScheduler(shard_size=0)
        with pytest.raises(ValueError):
            FabricScheduler(job_timeout=0.0)
