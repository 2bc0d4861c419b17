"""Tests for the unified simulation engine (jobs, probes, cache)."""

import json

import pytest

from repro.bt.runtime import ExecMode
from repro.core.config import PowerChopConfig
from repro.core.criticality import CriticalityThresholds
from repro.sim import engine
from repro.sim.engine import (
    ResultCache,
    SimJob,
    execute_job,
    run_job,
)
from repro.sim.fabric import FabricScheduler
from repro.sim.probes import IPCSeriesProbe
from repro.sim.results import SimulationResult
from repro.sim.simulator import GatingMode, HybridSimulator
from repro.uarch.config import MOBILE, SERVER, design_for_suite
from repro.workloads.profiles import build_workload
from repro.workloads.suites import get_profile


@pytest.fixture(autouse=True)
def fresh_engine(monkeypatch, tmp_path):
    """Each test gets an empty memo and its own disk-cache directory."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    engine.clear_memo()
    yield
    engine.clear_memo()


class TestSimJobValidation:
    def test_needs_benchmark_or_profile(self):
        with pytest.raises(ValueError):
            SimJob()

    def test_rejects_both_benchmark_and_profile(self):
        with pytest.raises(ValueError):
            SimJob(benchmark="hmmer", profile=get_profile("hmmer"))

    def test_rejects_bad_budget_and_units(self):
        with pytest.raises(ValueError):
            SimJob(benchmark="hmmer", max_instructions=0)
        with pytest.raises(ValueError):
            SimJob(benchmark="hmmer", managed_units=("vpu", "gpu"))

    def test_configure_requires_cache_tag(self):
        def tweak(simulator):
            simulator.core.apply_bpu_state(False)

        with pytest.raises(ValueError, match="cache_tag"):
            SimJob(benchmark="hmmer", configure=tweak)
        job = SimJob(benchmark="hmmer", configure=tweak, cache_tag="small-bpu")
        assert job.cache_tag == "small-bpu"

    def test_key_is_stable_and_content_sensitive(self):
        a = SimJob(benchmark="hmmer", max_instructions=50_000)
        b = SimJob(benchmark="hmmer", max_instructions=50_000)
        assert a.key() == b.key()
        assert a.key() != SimJob(benchmark="hmmer", max_instructions=50_001).key()
        assert a.key() != SimJob(benchmark="namd", max_instructions=50_000).key()
        assert (
            a.key()
            != SimJob(
                benchmark="hmmer", max_instructions=50_000, mode=GatingMode.POWERCHOP
            ).key()
        )

    def test_key_distinguishes_configs(self):
        base = SimJob(benchmark="hmmer", mode=GatingMode.POWERCHOP)
        tuned = SimJob(
            benchmark="hmmer",
            mode=GatingMode.POWERCHOP,
            powerchop_config=PowerChopConfig(
                thresholds=CriticalityThresholds(vpu=0.05)
            ),
        )
        assert base.key() != tuned.key()

    def test_inline_profile_resolves_design(self, tiny_profile):
        job = SimJob(profile=tiny_profile, max_instructions=10_000)
        assert job.resolve_profile() is tiny_profile
        assert job.resolve_design() is design_for_suite("test")


class TestResultSerialization:
    def test_round_trip(self):
        record = execute_job(
            SimJob(
                benchmark="hmmer", mode=GatingMode.POWERCHOP, max_instructions=80_000
            )
        )
        data = record.result.to_dict()
        rebuilt = SimulationResult.from_dict(json.loads(json.dumps(data)))
        assert rebuilt == record.result
        assert rebuilt.ipc == record.result.ipc
        assert rebuilt.energy.avg_power_w == record.result.energy.avg_power_w
        assert data["derived"]["ipc"] == record.result.ipc


class TestResultCache:
    def test_miss_then_hit_round_trips(self):
        job = SimJob(
            benchmark="hmmer",
            mode=GatingMode.POWERCHOP,
            max_instructions=80_000,
            collect_phase_log=True,
        )
        cache = ResultCache()
        assert cache.get(job.key()) is None
        record = run_job(job, cache=cache)
        assert not record.from_cache
        engine.clear_memo()
        again = run_job(job, cache=ResultCache())
        assert again.from_cache
        assert again.result == record.result
        # Phase log survives the JSON round trip with exact types.
        assert again.phase_log == record.phase_log
        assert again.phase_log, "PowerChop jobs collect phase vectors"
        signature, vector = again.phase_log[0]
        assert isinstance(signature, tuple)
        assert all(isinstance(tid, int) for tid in vector)

    def test_config_change_invalidates(self):
        cache = ResultCache()
        base = SimJob(benchmark="hmmer", mode=GatingMode.POWERCHOP, max_instructions=60_000)
        run_job(base, cache=cache)
        engine.clear_memo()
        tuned = SimJob(
            benchmark="hmmer",
            mode=GatingMode.POWERCHOP,
            max_instructions=60_000,
            powerchop_config=PowerChopConfig(window_size=500),
        )
        assert cache.get(tuned.key()) is None

    def test_corrupt_entry_is_a_miss(self):
        job = SimJob(benchmark="hmmer", max_instructions=60_000)
        cache = ResultCache()
        run_job(job, cache=cache)
        path = cache.root / f"{job.key()}.json"
        schema = engine.CACHE_SCHEMA_VERSION
        for text in (
            "{not json",
            "[]",
            "null",
            "3",
            f'{{"schema": {schema}, "result": []}}',
        ):
            path.write_text(text)
            engine.clear_memo()
            assert ResultCache().get(job.key()) is None, text
            assert ResultCache().get_value(job.key(), "miss") == "miss", text

    def test_disable_via_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        job = SimJob(benchmark="hmmer", max_instructions=60_000)
        cache = ResultCache()
        assert not cache.enabled
        run_job(job, cache=cache)
        assert not cache.root.is_dir() or not list(cache.root.glob("*.json"))

    def test_clear(self):
        cache = ResultCache()
        run_job(SimJob(benchmark="hmmer", max_instructions=60_000), cache=cache)
        assert cache.clear() == 1
        assert cache.clear() == 0

    def test_failed_write_keeps_the_result(self, tmp_path):
        # A root beneath a regular file cannot be created, even by root
        # (chmod does not stop root).
        blocker = tmp_path / "regular-file"
        blocker.write_text("not a directory")
        cache = ResultCache(root=blocker / "cache")
        job = SimJob(benchmark="hmmer", max_instructions=60_000)
        record = run_job(job, cache=cache)
        assert record.ok and not record.from_cache
        assert cache.write_failures == 1
        assert cache.stats()["write_failures"] == 1
        again = run_job(job, cache=cache)  # memoised despite the failed write
        assert again.from_cache and again.result is record.result

    def test_failed_replace_removes_the_temp_file(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache")
        record = execute_job(SimJob(benchmark="hmmer", max_instructions=60_000))
        # A directory squatting on the entry's path fails os.replace after
        # the temp file is written.
        (cache.root / "squatted.json" / "occupant").mkdir(parents=True)
        cache.put("squatted", record)
        assert cache.write_failures == 1
        assert [path.name for path in cache.root.iterdir()] == ["squatted.json"]

    def test_semantics_version_salts_the_key_not_the_payload(self, monkeypatch):
        job = SimJob(benchmark="hmmer", max_instructions=60_000)
        cache = ResultCache()
        run_job(job, cache=cache)
        entry = json.loads((cache.root / f"{job.key()}.json").read_text())
        assert set(entry) == {"schema", "version", "result", "phase_log", "probes"}
        old_key = job.key()
        monkeypatch.setattr(
            engine, "RESULT_SEMANTICS_VERSION", engine.RESULT_SEMANTICS_VERSION + 1
        )
        assert job.key() != old_key
        assert cache.get(job.key()) is None  # the pre-bump entry is never served


class TestSweepRunnerDeterminism:
    def test_unpicklable_jobs_fall_back_to_serial(self):
        def tweak(simulator):  # local closure: not picklable
            simulator.core.apply_bpu_state(False)

        jobs = [
            SimJob(
                benchmark="hmmer",
                max_instructions=60_000,
                configure=tweak,
                cache_tag="small-bpu",
            ),
            SimJob(benchmark="hmmer", max_instructions=60_000),
        ]
        records = FabricScheduler(workers=4).run(jobs)
        assert [r.ok for r in records] == [True, True]
        # The configured run really forced the small BPU: worse misprediction.
        assert (
            records[0].result.mispredict_rate >= records[1].result.mispredict_rate
        )


def _legacy_timeseries_ipc(design, profile, configure, max_instructions, sample):
    """The pre-engine hand-rolled loop from experiments.common (no tail)."""
    workload = build_workload(profile)
    simulator = HybridSimulator(design, workload, GatingMode.FULL)
    configure(simulator)
    core, bt = simulator.core, simulator.bt
    series = []
    cycles = 0.0
    last_cycles = 0.0
    last_instr = 0
    boundary = sample
    for block_exec in workload.trace(max_instructions):
        exec_mode, bt_cycles, _entered = bt.on_block(block_exec.block)
        cycles += bt_cycles
        cycles += core.execute_block(block_exec, exec_mode is ExecMode.INTERPRETED)
        instructions = core.counters.instructions
        if instructions >= boundary:
            delta_c = cycles - last_cycles
            delta_i = instructions - last_instr
            series.append(delta_i / delta_c if delta_c else 0.0)
            last_cycles, last_instr = cycles, instructions
            boundary += sample
    return series


class TestProbes:
    @pytest.mark.parametrize(
        "bench_name,design",
        [("gems", SERVER), ("msn", MOBILE)],
        ids=["server", "mobile"],
    )
    def test_ipc_probe_matches_legacy_loop(self, bench_name, design):
        from repro.experiments.common import timeseries_ipc

        profile = get_profile(bench_name)

        def keep_default(simulator):
            pass

        legacy = _legacy_timeseries_ipc(
            design, profile, keep_default, 400_000, 50_000
        )
        probed = timeseries_ipc(design, profile, None, 400_000, 50_000)
        assert legacy, "legacy loop produced samples"
        assert probed[: len(legacy)] == legacy  # bit-identical prefix
        assert len(probed) - len(legacy) <= 1  # plus at most the tail sample

    def test_ipc_probe_emits_trailing_half_window(self):
        profile = get_profile("hmmer")

        def keep_default(simulator):
            pass

        from repro.experiments.common import timeseries_ipc

        # ~130k instructions with 50k samples: boundaries at 50k and 100k,
        # plus a ~30k >= 25k trailing window the old loop silently dropped.
        legacy = _legacy_timeseries_ipc(
            SERVER, profile, keep_default, 130_000, 50_000
        )
        probed = timeseries_ipc(SERVER, profile, None, 130_000, 50_000)
        assert len(legacy) == 2
        assert len(probed) == 3
        assert probed[:2] == legacy
        assert probed[2] > 0

    def test_probe_specs_in_job_and_cache(self):
        job = SimJob(
            benchmark="hmmer",
            mode=GatingMode.POWERCHOP,
            max_instructions=80_000,
            collect_phase_log=True,
            probes=(IPCSeriesProbe(sample_instructions=20_000),),
        )
        cache = ResultCache()
        record = run_job(job, cache=cache)
        assert len(record.probes["ipc_series"]) >= 3
        assert record.phase_log  # collect_phase_vectors auto-enabled
        engine.clear_memo()
        warm = run_job(job, cache=ResultCache())
        assert warm.from_cache
        assert warm.probes["ipc_series"] == record.probes["ipc_series"]
        assert warm.phase_log == record.phase_log

    def test_duplicate_probe_names_rejected(self):
        # JobRecord.probes is keyed by name: a second "ipc_series" would
        # silently replace the first series.
        with pytest.raises(ValueError, match="ipc_series"):
            SimJob(
                benchmark="hmmer",
                max_instructions=60_000,
                probes=(IPCSeriesProbe(10_000), IPCSeriesProbe(20_000)),
            )

    def test_probe_set_changes_job_key(self):
        plain = SimJob(benchmark="hmmer", max_instructions=50_000)
        probed = SimJob(
            benchmark="hmmer",
            max_instructions=50_000,
            probes=(IPCSeriesProbe(sample_instructions=10_000),),
        )
        assert plain.key() != probed.key()


class TestWarmReplay:
    def test_experiments_replay_without_simulating(self, monkeypatch):
        from repro.experiments import fig02_bpu_phases, fig03_mlc_phases
        from repro.experiments import table_thresholds

        monkeypatch.setenv("REPRO_SCALE", "0.01")

        def regenerate():
            return (
                table_thresholds.run(benchmarks=("hmmer",)).render(),
                fig02_bpu_phases.ipc_series(
                    max_instructions=120_000, sample_instructions=40_000
                ),
                fig03_mlc_phases.ipc_series(
                    max_instructions=120_000, sample_instructions=40_000
                ),
            )

        cold = regenerate()
        engine.clear_memo()  # force the disk layer

        def no_simulation(*args, **kwargs):
            raise AssertionError("a warm regeneration re-simulated a run")

        monkeypatch.setattr(engine, "execute_job", no_simulation)
        monkeypatch.setattr(HybridSimulator, "run", no_simulation)
        assert regenerate() == cold


    def test_analyses_replay_without_walking(self, monkeypatch):
        from repro.experiments import fig01_vpu_phases, fig15_vector_prevalence
        from repro.experiments import table_drowsy
        from repro.workloads.generator import SyntheticWorkload

        monkeypatch.setenv("REPRO_SCALE", "0.01")

        def regenerate():
            return (
                fig01_vpu_phases.run(max_instructions=200_000).render(),
                fig15_vector_prevalence.run(benchmarks=["namd"]).render(),
                table_drowsy.run(benchmarks=("hmmer",)).render(),
            )

        cold = regenerate()
        engine.clear_memo()  # force the disk layer

        def no_execution(*args, **kwargs):
            raise AssertionError("a warm regeneration simulated or walked")

        monkeypatch.setattr(engine, "execute_job", no_execution)
        monkeypatch.setattr(HybridSimulator, "run", no_execution)
        monkeypatch.setattr(SyntheticWorkload, "trace", no_execution)
        assert regenerate() == cold


def _toy_analysis(n, label):
    """A module-level analysis: tuples and ints and floats, JSON-native."""
    return {"label": label, "squares": tuple(i * i for i in range(n)), "half": n / 2}


@pytest.fixture
def analysis_caches(monkeypatch):
    """Every ResultCache that run_analysis creates, in order."""
    created = []

    class Recording(ResultCache):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    monkeypatch.setattr(engine, "ResultCache", Recording)
    return created


class TestRunAnalysis:
    def test_cold_and_warm_values_are_equal_with_types(self, analysis_caches):
        cold = engine.run_analysis(_toy_analysis, n=3, label="x")
        assert cold == {"label": "x", "squares": [0, 1, 4], "half": 1.5}
        assert analysis_caches[0].misses == 1
        assert engine.run_analysis(_toy_analysis, n=3, label="x") is cold  # memo
        engine.clear_memo()
        warm = engine.run_analysis(_toy_analysis, n=3, label="x")
        assert analysis_caches[1].hits == 1  # read back from disk
        assert warm == cold
        for value in (cold, warm):
            assert type(value["squares"]) is list
            assert type(value["squares"][1]) is int
            assert type(value["half"]) is float

    def test_key_covers_every_param_and_the_semantics_version(self, monkeypatch):
        root = ResultCache().root

        def entries():
            return len(list(root.glob("*.json")))

        engine.run_analysis(_toy_analysis, n=3, label="x")
        engine.run_analysis(_toy_analysis, n=3, label="x")
        assert entries() == 1
        engine.run_analysis(_toy_analysis, n=4, label="x")
        assert entries() == 2
        engine.run_analysis(_toy_analysis, n=3, label="y")
        assert entries() == 3
        monkeypatch.setattr(
            engine, "RESULT_SEMANTICS_VERSION", engine.RESULT_SEMANTICS_VERSION + 1
        )
        engine.run_analysis(_toy_analysis, n=3, label="x")
        assert entries() == 4

    def test_failed_write_keeps_the_value(self, monkeypatch, tmp_path, analysis_caches):
        blocker = tmp_path / "regular-file"
        blocker.write_text("not a directory")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(blocker / "cache"))
        value = engine.run_analysis(_toy_analysis, n=2, label="x")
        assert value == {"label": "x", "squares": [0, 1], "half": 1.0}
        assert analysis_caches[0].write_failures == 1

    def test_disabled_cache_still_returns_the_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        value = engine.run_analysis(_toy_analysis, n=2, label="x")
        assert value == {"label": "x", "squares": [0, 1], "half": 1.0}
        root = ResultCache().root
        assert not root.is_dir() or not list(root.glob("*.json"))

    def test_rejects_closures(self):
        def local(n):
            return n

        with pytest.raises(ValueError, match="module-level"):
            engine.run_analysis(local, n=1)
        with pytest.raises(ValueError, match="module-level"):
            engine.run_analysis(lambda n: n, n=1)


class TestRunCachedShim:
    def test_configure_without_tag_raises(self):
        from repro.experiments.common import run_cached

        with pytest.raises(ValueError, match="cache_tag"):
            run_cached(
                "hmmer",
                GatingMode.FULL,
                configure=lambda simulator: None,
            )

    def test_workers_env_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "zero")
        with pytest.raises(ValueError):
            engine.default_workers()
        monkeypatch.setenv("REPRO_JOBS", "0")
        with pytest.raises(ValueError):
            engine.default_workers()
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert engine.default_workers() == 3
