"""Fast-path equivalence: run_fast must be bit-identical to the reference.

The steady-phase fast path (:mod:`repro.sim.backends.fastpath`) promises *exact*
equivalence with the reference execution loop — every
:class:`SimulationResult` field, every ``extra`` entry, the metrics
snapshot, and the full ``obs_level="full"`` event stream.  Tier-1 proves
it on five profiles across all four gating modes; the exhaustive
29-profile sweep lives behind the slow marker.
"""

import pytest

from repro.core.config import PowerChopConfig
from repro.isa.branches import LoopBranch, StaticBranch
from repro.isa.instructions import InstructionMix
from repro.isa.blocks import BasicBlock, CodeRegion
from repro.sim.backends.fastpath import FastPathState
from repro.sim.simulator import GatingMode, HybridSimulator
from repro.uarch.config import design_for_suite
from repro.workloads.generator import MemoryBehavior, PhaseSpec, SyntheticWorkload
from repro.workloads.profiles import build_workload
from repro.workloads.suites import ALL_BENCHMARKS, get_profile

#: Same sampling as tests/test_obs_identity.py: one profile per suite
#: family, exercising distinct unit behaviours.
SAMPLED_PROFILES = ("bzip2", "milc", "blackscholes", "google", "libquantum")

_QUICK = PowerChopConfig(window_size=100, warmup_windows=1)

ALL_MODES = (
    GatingMode.FULL,
    GatingMode.MINIMAL,
    GatingMode.POWERCHOP,
    GatingMode.TIMEOUT,
)


def _run(name, mode, backend, obs_level="off", seed=7, max_instructions=120_000):
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


def _events(simulator):
    return [(e.ts, e.kind, repr(e.payload)) for e in simulator.tracer.events()]


def _assert_identical(name, mode, obs_level="off", max_instructions=120_000):
    ref_sim, ref = _run(
        name, mode, "reference", obs_level, max_instructions=max_instructions
    )
    fast_sim, fast = _run(
        name, mode, "fastpath", obs_level, max_instructions=max_instructions
    )
    assert ref.to_dict() == fast.to_dict(), f"{name}/{mode.value} result diverged"
    assert _events(ref_sim) == _events(fast_sim), f"{name}/{mode.value} events diverged"


# ------------------------------------------------------------ tier-1 matrix


@pytest.mark.parametrize("profile_name", SAMPLED_PROFILES)
@pytest.mark.parametrize("mode", ALL_MODES)
def test_fastpath_bit_identical(profile_name, mode):
    _assert_identical(profile_name, mode)


@pytest.mark.parametrize("profile_name", SAMPLED_PROFILES)
def test_fastpath_event_stream_identical_full_obs(profile_name):
    """obs_level="full": same results AND the same typed event stream."""
    _assert_identical(profile_name, GatingMode.POWERCHOP, obs_level="full")


def test_fastpath_metrics_identical():
    """obs_level="metrics": the registry snapshot matches exactly."""
    _ref_sim, ref = _run("bzip2", GatingMode.POWERCHOP, "reference", "metrics")
    _fast_sim, fast = _run("bzip2", GatingMode.POWERCHOP, "fastpath", "metrics")
    assert ref.to_dict() == fast.to_dict()
    assert ref.metrics == fast.metrics


# --------------------------------------------------------- exhaustive sweep


@pytest.mark.slow
@pytest.mark.parametrize("profile_name", [p.name for p in ALL_BENCHMARKS])
@pytest.mark.parametrize("mode", ALL_MODES)
def test_fastpath_bit_identical_all_profiles(profile_name, mode):
    _assert_identical(profile_name, mode, max_instructions=200_000)


# ------------------------------------------------------------- unit pieces


def _single_phase_workload(random_frac):
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
    return SyntheticWorkload("unit", "spec", [phase], [("only", 64)], seed=3)


def test_random_frac_streams_never_replay_blocks():
    """random_frac > 0 must take the per-access path (RNG draws consumed)."""
    design = design_for_suite("spec")
    sim = HybridSimulator(
        design, _single_phase_workload(0.3), GatingMode.FULL, backend="fastpath"
    )
    sim.run(50_000)
    assert sim.fastpath_state.blocks_replayed == 0
    assert sim.fastpath_state.accesses_elided == 0


def test_deterministic_loop_replays_blocks():
    """A tiny deterministic loop working set reaches the replay path."""
    design = design_for_suite("spec")
    fast_sim = HybridSimulator(
        design, _single_phase_workload(0.0), GatingMode.FULL, backend="fastpath"
    )
    fast_result = fast_sim.run(50_000)
    assert fast_sim.fastpath_state.blocks_replayed > 0
    assert fast_sim.fastpath_state.accesses_elided > 0
    # ... and the replayed run still matches the reference bit-for-bit.
    ref_sim = HybridSimulator(
        design, _single_phase_workload(0.0), GatingMode.FULL, backend="reference"
    )
    assert ref_sim.run(50_000).to_dict() == fast_result.to_dict()


def test_invalidation_hooks_clear_streaks():
    state = FastPathState()
    state.streaks[0x1000] = 7
    state.note_gating("vpu")
    assert state.streaks == {} and state.invalidations == 1
    state.streaks[0x1000] = 7
    state.note_window()
    assert state.streaks == {} and state.window_resets == 1
    state.streaks[0x1000] = 7
    state.note_policy_action()
    assert state.streaks == {} and state.policy_resets == 1


def test_gating_transitions_notify_listener():
    design = design_for_suite("spec")
    sim = HybridSimulator(
        design, _single_phase_workload(0.0), GatingMode.FULL, backend="fastpath"
    )
    before = sim.fastpath_state.invalidations
    sim.core.apply_vpu_state(False)
    sim.core.apply_bpu_state(False)
    sim.core.apply_mlc_state(1)
    assert sim.fastpath_state.invalidations == before + 3

