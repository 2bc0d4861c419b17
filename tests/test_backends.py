"""Backend registry + three-way bit-equivalence: reference / fastpath / vectorized.

Every registered execution backend promises *exact* equivalence with the
reference loop — every :class:`SimulationResult` field, every ``extra``
entry, and the deep component state (cache set contents, predictor
tables, prefetcher streams, RNG-visible history).  Tier-1 proves the
three-way match on five profiles across all four gating modes; the
exhaustive 29-profile sweep lives behind the slow marker.
"""

import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.config import PowerChopConfig
from repro.isa.branches import LoopBranch, StaticBranch
from repro.isa.instructions import InstructionMix
from repro.isa.blocks import BasicBlock, CodeRegion
from repro.sim.backends import (
    DEFAULT_BACKEND,
    available_backends,
    get_backend,
    resolve_backend_name,
    vectorized,
)
from repro.sim.backends.vectorized import _fold_cycles, _walk_table
from repro.sim.engine import NON_KEY_FIELDS, SimJob
from repro.sim.simulator import GatingMode, HybridSimulator
from repro.uarch.branch.unit import BranchUnit
from repro.uarch.cache.cache import SetAssocCache
from repro.uarch.config import design_for_suite
from repro.workloads.generator import MemoryBehavior, PhaseSpec, SyntheticWorkload
from repro.workloads.profiles import build_workload
from repro.workloads.suites import ALL_BENCHMARKS, get_profile

#: Same sampling as tests/test_fastpath.py: one profile per suite family,
#: exercising distinct unit behaviours.  Two mobilebench entries with
#: ``random_frac > 0`` (google 0.25, amazon 0.2) prove the RNG-planned
#: batch path — these streams previously took a per-access fallback.
SAMPLED_PROFILES = ("bzip2", "milc", "blackscholes", "google", "amazon", "libquantum")

_QUICK = PowerChopConfig(window_size=100, warmup_windows=1)

ALL_MODES = (
    GatingMode.FULL,
    GatingMode.MINIMAL,
    GatingMode.POWERCHOP,
    GatingMode.TIMEOUT,
)


def _run(name, mode, backend, seed=7, max_instructions=120_000, obs_level="off"):
    profile = get_profile(name)
    simulator = HybridSimulator(
        design_for_suite(profile.suite),
        build_workload(profile, seed),
        mode,
        powerchop_config=_QUICK if mode is GatingMode.POWERCHOP else None,
        obs_level=obs_level,
        backend=backend,
    )
    result = simulator.run(max_instructions)
    return simulator, result


def _sets_in_order(cache):
    """Each set's (line, dirty) entries, LRU first.

    Dict ``==`` ignores insertion order, which is the LRU recency order.
    """
    return [list(s.items()) for s in cache._sets]


def _deep_state(simulator):
    """Component state a result dict can't see; must still match exactly."""
    core = simulator.core
    h = core.hierarchy
    bpu = core.bpu
    state = {
        "l1_sets": _sets_in_order(h.l1),
        "mlc_sets": _sets_in_order(h.mlc),
        "llc_sets": _sets_in_order(h.llc) if h.llc is not None else None,
        "writebacks": [c.writebacks for c in (h.l1, h.mlc, h.llc) if c is not None],
        "levels": list(h.level_counts),
        "local_hist": list(bpu.large.local._histories),
        "local_ctr": list(bpu.large.local._counters),
        "gshare_ctr": list(bpu.large.global_pred._counters),
        "gshare_ghr": bpu.large.global_pred.ghr,
        "chooser": list(bpu.large._chooser),
        "small_hist": list(bpu.small._histories),
        "small_ctr": list(bpu.small._counters),
        "btb": list(bpu.large_btb._entries),
        "small_btb": list(bpu.small_btb._entries),
        "btb_stats": [(b.hits, b.misses) for b in (bpu.large_btb, bpu.small_btb)],
        "bpu_tallies": (bpu.lookups, bpu.mispredicts, bpu.btb_misses),
        "history_bits": simulator.workload.history.bits,
        "counters": core.counters.snapshot(),
        "vpu": (core.vpu.native_ops, core.vpu.emulated_ops),
    }
    if h.prefetcher is not None:
        state["prefetcher"] = (
            list(h.prefetcher._streams),
            list(h.prefetcher._stamps),
            h.prefetcher._clock,
        )
    return state


def _assert_identical(name, mode, max_instructions=120_000):
    ref_sim, ref = _run(name, mode, "reference", max_instructions=max_instructions)
    ref_dict = ref.to_dict()
    ref_state = _deep_state(ref_sim)
    for backend in ("fastpath", "vectorized"):
        sim, result = _run(name, mode, backend, max_instructions=max_instructions)
        assert result.to_dict() == ref_dict, (
            f"{name}/{mode.value}/{backend} result diverged"
        )
        assert _deep_state(sim) == ref_state, (
            f"{name}/{mode.value}/{backend} component state diverged"
        )


# ------------------------------------------------------------ tier-1 matrix


@pytest.mark.parametrize("profile_name", SAMPLED_PROFILES)
@pytest.mark.parametrize("mode", ALL_MODES)
def test_backends_bit_identical(profile_name, mode):
    _assert_identical(profile_name, mode)


# --------------------------------------------------------- exhaustive sweep


@pytest.mark.slow
@pytest.mark.parametrize("profile_name", [p.name for p in ALL_BENCHMARKS])
@pytest.mark.parametrize("mode", ALL_MODES)
def test_backends_bit_identical_all_profiles(profile_name, mode):
    _assert_identical(profile_name, mode, max_instructions=200_000)


# ----------------------------------------------------------------- registry


def test_registry_lists_all_backends():
    assert available_backends() == ("reference", "fastpath", "vectorized")


@pytest.mark.parametrize("name", ["reference", "fastpath", "vectorized"])
def test_get_backend_roundtrip(name):
    backend = get_backend(name)
    assert backend.name == name
    # Instances are memoized: the registry hands back the same object.
    assert get_backend(name) is backend


def test_get_backend_unknown_name():
    with pytest.raises(ValueError, match="unknown backend"):
        get_backend("warp-drive")


def test_resolve_backend_name():
    assert resolve_backend_name(None) == DEFAULT_BACKEND
    assert resolve_backend_name("vectorized") == "vectorized"
    with pytest.raises(ValueError, match="unknown backend"):
        resolve_backend_name("warp-drive")


def test_simulator_exposes_backend():
    design = design_for_suite("spec")
    sim = HybridSimulator(
        design, _single_phase_workload(0.0), GatingMode.FULL, backend="vectorized"
    )
    assert sim.backend_name == "vectorized"
    assert sim.backend is get_backend("vectorized")
    assert sim.fastpath_state is not None  # vectorized needs replay state


def test_simulator_reference_backend_has_no_replay_state():
    design = design_for_suite("spec")
    sim = HybridSimulator(
        design, _single_phase_workload(0.0), GatingMode.FULL, backend="reference"
    )
    assert sim.fastpath_state is None
    assert sim.core.fastpath_listener is None
    sim.run(10_000)  # runs the reference loop without error


def test_default_backend_job_never_imports_fastpath_or_numpy_random():
    """The default path loads only the loop it runs, and no numpy.random.

    Compiling an unused loop or importing ``numpy.random`` costs a few MB
    of resident memory that every default run (and every pool worker)
    would carry.  A fresh interpreter starts with a clean ``sys.modules``.
    """
    code = (
        "import sys\n"
        "from repro.sim.engine import SimJob, execute_job\n"
        "from repro.sim.simulator import GatingMode\n"
        "for mode in GatingMode:\n"
        "    execute_job(SimJob(benchmark='google', mode=mode,"
        " max_instructions=5000))\n"
        "names = ('repro.sim.backends.fastpath', 'repro.sim.backends.reference',"
        " 'numpy.random')\n"
        "print(sorted(n for n in names if n in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ----------------------------------------------------------- engine caching


def test_simjob_backend_excluded_from_cache_key():
    """Backends are bit-identical, so they may share cache entries."""
    keys = {
        SimJob(benchmark="bzip2", backend=backend).key()
        for backend in (None, "reference", "fastpath", "vectorized")
    }
    assert len(keys) == 1


def test_simjob_rejects_unknown_backend():
    with pytest.raises(ValueError, match="unknown backend"):
        SimJob(benchmark="bzip2", backend="warp-drive")


def test_non_key_fields_split_is_exhaustive():
    """Every SimJob field is either hashed by key() or in NON_KEY_FIELDS."""
    key_fields = {
        "benchmark",
        "profile",
        "design",
        "mode",
        "powerchop_config",
        "managed_units",
        "timeout_cycles",
        "max_instructions",
        "seed",
        "collect_phase_log",
        "probes",
        "obs_level",
        "cache_tag",
    }
    all_fields = {field.name for field in dataclasses.fields(SimJob)}
    assert all_fields == key_fields | NON_KEY_FIELDS
    assert not key_fields & NON_KEY_FIELDS


def test_key_fields_actually_vary_the_key():
    base = SimJob(benchmark="bzip2")
    assert base.key() != SimJob(benchmark="bzip2", seed=1).key()
    assert base.key() != SimJob(benchmark="bzip2", max_instructions=2).key()
    assert base.key() != SimJob(benchmark="bzip2", mode=GatingMode.MINIMAL).key()


# ------------------------------------------------- vectorized burst replay


def _single_phase_workload(random_frac, segment_blocks=64):
    mix = InstructionMix(scalar=5, vector=0, loads=3, stores=1, has_branch=True)
    blocks = []
    for i in range(4):
        pc = 0x1000 + i * 0x40
        branch = StaticBranch(pc=pc + (mix.total - 1) * 4, model=LoopBranch(16))
        blocks.append(
            BasicBlock(pc, mix, branch, taken_succ=(i + 1) % 4, fall_succ=(i + 1) % 4)
        )
    region = CodeRegion(0, blocks)
    behavior = MemoryBehavior(
        working_set_kb=1.0, pattern="loop", stride=8, random_frac=random_frac
    )
    phase = PhaseSpec("only", region, behavior)
    return SyntheticWorkload(
        "unit", "spec", [phase], [("only", segment_blocks)], seed=3
    )


def test_vectorized_records_bursts_on_deterministic_streams():
    design = design_for_suite("spec")
    sim = HybridSimulator(
        design, _single_phase_workload(0.0), GatingMode.FULL, backend="vectorized"
    )
    sim.run(50_000)
    state = sim.fastpath_state
    assert state.bursts_recorded > 0
    assert state.blocks_vectorized > 0
    assert state.blocks_fallback == 0


def test_vectorized_batches_random_streams():
    """random_frac > 0 batches through the bulk RNG plan — no fallback."""
    design = design_for_suite("spec")
    sim = HybridSimulator(
        design, _single_phase_workload(0.3), GatingMode.FULL, backend="vectorized"
    )
    sim.run(50_000)
    state = sim.fastpath_state
    assert state.bursts_recorded > 0
    assert state.blocks_vectorized > 0
    assert state.blocks_fallback == 0


def test_vectorized_idle_windows_extend_bursts():
    """Policy-idle window boundaries must not flush the burst.

    A long single-phase segment under POWERCHOP settles into a stable
    policy quickly; once the PVT holds a matching policy every boundary is
    idle, so the burst replays across many windows and the flush count
    stays far below the window count.
    """
    design = design_for_suite("spec")
    wl = _single_phase_workload(0.0, segment_blocks=5000)
    sim = HybridSimulator(
        design,
        wl,
        GatingMode.POWERCHOP,
        powerchop_config=_QUICK,
        backend="vectorized",
    )
    result = sim.run(50_000)
    state = sim.fastpath_state
    assert result.windows > 10
    assert state.bursts_recorded < result.windows / 2


#: Burst caps small enough to cut every steady stretch at arbitrary blocks.
_CUT_POINTS = [(7, 20_000), (64, 120_000)]

#: ``_QUICK`` POWERCHOP runs that, by 120k, gate the large BPU off and on
#: and flip ``force_small`` for the CDE's small-predictor window.
_BPU_SWITCHING = ("hmmer", "msn")


def _count_bpu_switches(monkeypatch):
    """Count the BPU's gate-offs, gate-ons and ``force_small`` flips."""
    counts = {"gate_off": 0, "gate_on": 0, "force_small": 0}
    gate_off, gate_on = BranchUnit.gate_off, BranchUnit.gate_on

    def counted_gate_off(self):
        counts["gate_off"] += self.large_on
        gate_off(self)

    def counted_gate_on(self):
        counts["gate_on"] += not self.large_on
        gate_on(self)

    # The value lives in the instance dict under its own name, so the
    # attribute still reads after the property is removed.
    def get_force_small(self):
        return self.__dict__.get("force_small", False)

    def set_force_small(self, value):
        counts["force_small"] += value != get_force_small(self)
        self.__dict__["force_small"] = value

    monkeypatch.setattr(BranchUnit, "gate_off", counted_gate_off)
    monkeypatch.setattr(BranchUnit, "gate_on", counted_gate_on)
    monkeypatch.setattr(
        BranchUnit, "force_small", property(get_force_small, set_force_small),
        raising=False,
    )
    return counts


def _assert_exact_at_cut_points(monkeypatch, name, mode, cap, budget, obs_level):
    """Returns the reference run's BPU switch counts."""
    with pytest.MonkeyPatch.context() as mp:
        switches = _count_bpu_switches(mp)
        ref_sim, ref = _run(name, mode, "reference", max_instructions=budget,
                            obs_level=obs_level)
    monkeypatch.setattr(vectorized, "_BURST_BLOCKS", cap, raising=False)
    sim, result = _run(name, mode, "vectorized", max_instructions=budget,
                       obs_level=obs_level)
    state = sim.fastpath_state
    assert state.blocks_vectorized > cap
    assert state.bursts_recorded * cap >= state.blocks_vectorized  # cap held
    assert result.to_dict() == ref.to_dict()
    assert _deep_state(sim) == _deep_state(ref_sim)
    return switches


@pytest.mark.parametrize("cap, budget", _CUT_POINTS)
@pytest.mark.parametrize(
    "mode, profile_name",
    [
        (mode, name)
        for mode in (GatingMode.FULL, GatingMode.MINIMAL, GatingMode.POWERCHOP)
        for name in ("bzip2", "milc", "lbm", "google")
    ]
    + [(GatingMode.POWERCHOP, name) for name in _BPU_SWITCHING],
)
def test_vectorized_exact_at_any_cut_point(monkeypatch, profile_name, mode, cap, budget):
    """Pass B composes exactly however the burst record is cut.

    The ``_BPU_SWITCHING`` runs also cut across every predictor mode the
    walk resolves branches in.
    """
    switches = _assert_exact_at_cut_points(
        monkeypatch, profile_name, mode, cap, budget, "off"
    )
    if profile_name in _BPU_SWITCHING and budget == 120_000:
        assert switches["gate_off"] > 0, switches
        assert switches["gate_on"] > 0, switches
        assert switches["force_small"] > 0, switches


@pytest.mark.slow
@pytest.mark.parametrize("obs_level", ["off", "metrics"])
@pytest.mark.parametrize("cap, budget", _CUT_POINTS)
@pytest.mark.parametrize("profile_name", SAMPLED_PROFILES + ("gems", "msn"))
@pytest.mark.parametrize(
    "mode", [GatingMode.FULL, GatingMode.MINIMAL, GatingMode.POWERCHOP]
)
def test_vectorized_exact_at_any_cut_point_all(
    monkeypatch, profile_name, mode, cap, budget, obs_level
):
    _assert_exact_at_cut_points(monkeypatch, profile_name, mode, cap, budget, obs_level)


# ------------------------------------- queued fills and their read points


def _fill_log(monkeypatch):
    """Log the vectorized loop's fill queues in run order.

    Entries: ``("add", cache, lines)`` per queued run of fills,
    ``("settle", cache, lines)`` per settle of a non-empty queue,
    ``("touch", hit)`` per continuation-head touch and ``("ways", cache,
    old, new)`` per way re-gating.
    """
    log = []
    fills = vectorized._FreshFills
    add, settle, touch = fills.add, fills.settle, fills.touch_last
    regate = SetAssocCache.set_active_ways

    def logged_add(self, lines, dirty):
        log.append(("add", self.cache.name, len(lines)))
        add(self, lines, dirty)

    def logged_settle(self):
        if self.n:
            log.append(("settle", self.cache.name, self.n))
        settle(self)

    def logged_touch(self, line, write):
        hit = touch(self, line, write)
        log.append(("touch", hit))
        return hit

    def logged_regate(self, n_ways):
        log.append(("ways", self.name, self.active_ways, n_ways))
        return regate(self, n_ways)

    monkeypatch.setattr(fills, "add", logged_add)
    monkeypatch.setattr(fills, "settle", logged_settle)
    monkeypatch.setattr(fills, "touch_last", logged_touch)
    monkeypatch.setattr(SetAssocCache, "set_active_ways", logged_regate)
    return log


def _assert_vectorized_matches(ref_run, vec_run):
    ref_sim, ref = ref_run
    sim, result = vec_run
    assert result.to_dict() == ref.to_dict()
    assert _deep_state(sim) == _deep_state(ref_sim)


#: ``_QUICK`` POWERCHOP runs that shrink the MLC once by 120k, in the
#: middle of a streaming phase, and the dirty lines that flushes.
_MLC_SHRINKS = {"milc": 1074, "lbm": 684}


@pytest.mark.parametrize("profile_name", sorted(_MLC_SHRINKS))
def test_fills_settle_before_a_boundary_regates_the_mlc(monkeypatch, profile_name):
    """A non-idle boundary settles the queued MLC fills before its policy."""
    ref_run = _run(profile_name, GatingMode.POWERCHOP, "reference")
    log = _fill_log(monkeypatch)
    vec_run = _run(profile_name, GatingMode.POWERCHOP, "vectorized")
    _assert_vectorized_matches(ref_run, vec_run)
    mlc = vec_run[0].core.hierarchy.mlc
    assert mlc.flushed_dirty == _MLC_SHRINKS[profile_name]
    shrink = next(
        i for i, e in enumerate(log)
        if e[0] == "ways" and e[1] == "MLC" and e[3] < e[2]
    )
    mlc_queue = [e for e in log[:shrink] if e[0] != "ways" and e[1:2] == ("MLC",)]
    assert mlc_queue[-1][0] == "settle" and mlc_queue[-1][2] > 0


def _two_stream_workload():
    """Two streaming phases that cut each other off mid-line.

    A block makes 4 accesses 8 bytes apart, so every other block ends
    inside a 64-byte line, and odd segment lengths hand the other phase
    the CPU there.  Each phase resumes on the line it left, while the
    other phase's fresh fills are queued.
    """
    mix = InstructionMix(scalar=5, vector=0, loads=3, stores=1, has_branch=True)
    phases = []
    for p, name in enumerate(("a", "b")):
        blocks = []
        for i in range(4):
            pc = 0x1000 * (p + 1) + i * 0x40
            branch = StaticBranch(pc=pc + (mix.total - 1) * 4, model=LoopBranch(16))
            blocks.append(BasicBlock(pc, mix, branch, (i + 1) % 4, (i + 1) % 4))
        behavior = MemoryBehavior(working_set_kb=64.0, pattern="stream", stride=8)
        phases.append(PhaseSpec(name, CodeRegion(p, blocks), behavior))
    return SyntheticWorkload(
        "two-streams", "spec", phases, [("a", 301), ("b", 257)], seed=3
    )


def _run_two_streams(mode, backend):
    simulator = HybridSimulator(
        design_for_suite("spec"),
        _two_stream_workload(),
        mode,
        powerchop_config=_QUICK if mode is GatingMode.POWERCHOP else None,
        backend=backend,
    )
    return simulator, simulator.run(60_000)


@pytest.mark.parametrize("mode", [GatingMode.MINIMAL, GatingMode.POWERCHOP])
def test_fills_settle_before_a_continuation_probe(monkeypatch, mode):
    """A resumed phase's first head takes the exact path over queued fills."""
    ref_run = _run_two_streams(mode, "reference")
    log = _fill_log(monkeypatch)
    vec_run = _run_two_streams(mode, "vectorized")
    _assert_vectorized_matches(ref_run, vec_run)
    missed = [i for i, e in enumerate(log) if e == ("touch", False)]
    assert any(log[i + 1][0] == "settle" for i in missed), log[:40]


@pytest.mark.parametrize("profile_name", ["milc", "lbm"])
def test_fills_settle_at_the_end_of_the_run(monkeypatch, profile_name):
    """A streaming MINIMAL run ends with every level's fills still queued."""
    ref_run = _run(profile_name, GatingMode.MINIMAL, "reference")
    log = _fill_log(monkeypatch)
    vec_run = _run(profile_name, GatingMode.MINIMAL, "vectorized")
    _assert_vectorized_matches(ref_run, vec_run)
    # A flush that cuts a line hands its next flush a hit on the queue.
    assert ("touch", True) in log
    tail = log[-3:]
    assert [e[:2] for e in tail] == [("settle", n) for n in ("L1D", "MLC", "LLC")]
    assert all(e[2] > 0 for e in tail)


def _traced_peak(max_instructions, random_frac):
    sim = HybridSimulator(
        design_for_suite("spec"),
        _single_phase_workload(random_frac, segment_blocks=10**7),
        GatingMode.FULL,
        backend="vectorized",
    )
    tracemalloc.start()
    try:
        sim.run(max_instructions)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _assert_peak_flat(monkeypatch, random_frac):
    monkeypatch.setattr(vectorized, "_BURST_BLOCKS", 512, raising=False)
    short = _traced_peak(20_000, random_frac)
    long = _traced_peak(80_000, random_frac)
    assert long < 1.5 * short, (short, long)


def test_vectorized_memory_bounded_by_burst_cap(monkeypatch):
    """One endless steady segment: pass B's peak must not grow with the run."""
    _assert_peak_flat(monkeypatch, 0.0)


def test_vectorized_memory_bounded_with_rng_plan(monkeypatch):
    """The same on a mixed stream, whose every flush plans its RNG draws."""
    _assert_peak_flat(monkeypatch, 0.3)


def test_vectorized_timeout_mode_records_bursts():
    """TIMEOUT runs in the burst loop; its controller is a scan in pass B."""
    design = design_for_suite("spec")
    sim = HybridSimulator(
        design, _single_phase_workload(0.0), GatingMode.TIMEOUT, backend="vectorized"
    )
    sim.run(50_000)
    state = sim.fastpath_state
    assert state.bursts_recorded > 0
    assert state.blocks_vectorized > 0


# ------------------------------------------- vectorized TIMEOUT closed form

#: table_timeout_sweep's apps and periods (100 to 100K cycles).
_TIMEOUT_APPS = ("hmmer", "namd", "h264ref", "milc", "gobmk")
_TIMEOUT_PERIODS = (100.0, 1_000.0, 5_000.0, 20_000.0, 100_000.0)
#: The apps that switch the VPU many times by 20k instructions.
_SWITCHING_APPS = ("namd", "h264ref", "milc")


def _timeout_run(name, period, backend, max_instructions, obs_level):
    profile = get_profile(name)
    simulator = HybridSimulator(
        design_for_suite(profile.suite),
        build_workload(profile, 7),
        GatingMode.TIMEOUT,
        timeout_cycles=period,
        obs_level=obs_level,
        backend=backend,
    )
    return simulator, simulator.run(max_instructions)


def _timeout_state(simulator):
    """The controller's state and the accountant's VPU segment."""
    ctl = simulator.timeout_controller
    acc = simulator.accountant
    seg_start = acc._seg_start["vpu"]
    assert type(seg_start) is float  # a numpy scalar would leak into results
    return {
        "gate_ons": ctl.gate_ons,
        "gate_offs": ctl.gate_offs,
        "last_vector_cycle": ctl._last_vector_cycle,
        "vpu_on": simulator.core.states.vpu_on,
        "vpu_segment": (acc._vpu_state, seg_start, dict(acc._vpu_cycles)),
        "switch_counts": dict(acc.switch_counts),
    }


def _assert_timeout_exact(name, period, max_instructions, obs_level="off"):
    ref_sim, ref = _timeout_run(name, period, "reference", max_instructions,
                                obs_level)
    sim, result = _timeout_run(name, period, "vectorized", max_instructions,
                               obs_level)
    assert sim.fastpath_state.blocks_vectorized > 0  # the closed form ran
    assert result.to_dict() == ref.to_dict()
    assert _deep_state(sim) == _deep_state(ref_sim)
    assert _timeout_state(sim) == _timeout_state(ref_sim)
    return ref_sim.timeout_controller


@pytest.mark.parametrize("period", _TIMEOUT_PERIODS)
@pytest.mark.parametrize("profile_name", _SWITCHING_APPS)
def test_vectorized_timeout_exact(profile_name, period):
    """The pass-B scan makes the scalar controller's every transition."""
    ctl = _assert_timeout_exact(profile_name, period, 120_000)
    if period <= 1_000.0:
        assert ctl.gate_offs > 0 and ctl.gate_ons > 0


@pytest.mark.parametrize("period", [100.0, 1_000.0])
@pytest.mark.parametrize("cap, budget", _CUT_POINTS)
@pytest.mark.parametrize("profile_name", _SWITCHING_APPS)
def test_vectorized_timeout_exact_at_any_cut_point(
    monkeypatch, profile_name, cap, budget, period
):
    """The controller's state carries across flushes wherever they fall."""
    monkeypatch.setattr(vectorized, "_BURST_BLOCKS", cap, raising=False)
    ctl = _assert_timeout_exact(profile_name, period, budget)
    assert ctl.gate_offs > 0


@pytest.mark.slow
@pytest.mark.parametrize("period", _TIMEOUT_PERIODS)
@pytest.mark.parametrize("profile_name", _TIMEOUT_APPS)
def test_vectorized_timeout_exact_sweep(profile_name, period):
    """All of table_timeout_sweep, with the metrics snapshot compared too."""
    _assert_timeout_exact(profile_name, period, 300_000, obs_level="metrics")


@pytest.mark.parametrize("seed", range(4))
def test_fold_cycles_replays_the_timeout_controller_on_ties(seed):
    """Whole-cycle blocks make gaps equal to the period common.

    ``step`` gates the VPU off only when the gap *exceeds* the period, so
    the fold must leave a tie alone too.  The flush is cut in uneven parts
    to carry the controller's state across folds.
    """
    gen = np.random.default_rng(seed)
    n = 600
    bc = gen.integers(1, 4, n).astype(np.float64)
    nv = (gen.random(n) < 0.08).astype(np.int64)
    charges = {int(p): 2.0 for p in gen.choice(n, 30, replace=False)}
    cuts = [0, 7, 100, 101, 350, n]
    sims = [
        HybridSimulator(design_for_suite("spec"), _single_phase_workload(0.0),
                        GatingMode.TIMEOUT, timeout_cycles=4.0)
        for _ in range(2)
    ]
    ctl = sims[0].timeout_controller
    want = 0.0
    for i, (cycles, uses_vpu) in enumerate(zip(bc.tolist(), nv.tolist())):
        want += ctl.step(uses_vpu > 0, want)
        want += charges.get(i, 0)
        want += cycles
    got = 0.0
    for a, b in zip(cuts, cuts[1:]):
        trans = [(p - a, v) for p, v in sorted(charges.items()) if a <= p < b]
        got = _fold_cycles(got, bc[a:b].copy(), trans, nv[a:b],
                           sims[1].timeout_controller)
    assert got == want
    assert ctl.gate_offs > 0
    assert _timeout_state(sims[1]) == _timeout_state(sims[0])


def test_vectorized_probe_runs_delegate_to_reference():
    from repro.sim.probes import MetricsProbe

    ref_sim, ref = _run("bzip2", GatingMode.POWERCHOP, "reference")
    profile = get_profile("bzip2")
    sim = HybridSimulator(
        design_for_suite(profile.suite),
        build_workload(profile, 7),
        GatingMode.POWERCHOP,
        powerchop_config=_QUICK,
        backend="vectorized",
    )
    probe = MetricsProbe().build()
    result = sim.run(120_000, probes=(probe,))
    assert result.to_dict() == ref.to_dict()
    assert sim.fastpath_state.bursts_recorded == 0  # reference loop ran


def test_vectorized_mixed_line_sizes_delegate_to_reference():
    """The burst loop probes every level with the L1's line index."""

    def run(backend):
        sim = HybridSimulator(
            design_for_suite("spec"), _single_phase_workload(0.0),
            GatingMode.FULL, backend=backend,
        )
        h = sim.core.hierarchy
        h.llc = SetAssocCache(h.llc.size_kb, h.llc.assoc, 128, name="LLC")
        return sim, sim.run(20_000)

    ref_sim, ref = run("reference")
    sim, result = run("vectorized")
    assert result.to_dict() == ref.to_dict()
    assert _deep_state(sim) == _deep_state(ref_sim)
    assert sim.fastpath_state.bursts_recorded == 0  # reference loop ran


def test_walk_table_is_memoized_per_region():
    wl = _single_phase_workload(0.0)
    region = wl.phases["only"].region
    table = _walk_table(region)
    assert _walk_table(region) is table
    branches, steps = table
    assert branches == [block.branch for block in region.blocks]
    assert [s[1] for s in steps] == [block.pc for block in region.blocks]
    assert [s[2] for s in steps] == [block.n_instr for block in region.blocks]
    assert [s[5] for s in steps] == [block.branch.pc for block in region.blocks]


def test_attr_arrays_memoized_and_match_blocks():
    wl = _single_phase_workload(0.0)
    region = wl.phases["only"].region
    arrays = region.attr_arrays()
    assert region.attr_arrays() is arrays
    n_instr, n_mem, n_loads, n_vec = arrays
    assert n_instr.tolist() == [block.n_instr for block in region.blocks]
    assert n_mem.tolist() == [block.n_mem for block in region.blocks]
    assert n_loads.tolist() == [block.n_loads for block in region.blocks]
    assert n_vec.tolist() == [block.n_vec for block in region.blocks]
