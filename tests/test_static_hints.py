"""Tests for the static criticality pre-pass (StaticHints -> CDE -> runtime).

The contract under test: hints may only ever *accelerate* the decision the
dynamic profiler would have reached — policies stay bit-identical, the VPU
is simply gated during profiling windows instead of after them.
"""

from types import SimpleNamespace

import pytest

from repro.core.cde import CriticalityDecisionEngine, WindowStats
from repro.core.config import PowerChopConfig
from repro.sim.simulator import GatingMode, HybridSimulator
from repro.staticcheck import StaticHints, build_hints, summarize_region
from repro.uarch.config import SERVER, design_for_suite
from repro.workloads.profiles import build_workload
from repro.workloads.suites import get_profile

from tests.test_staticcheck import make_block, make_loop_region

SIG = (1, 2, 3, 4)


def make_vector_region(region_id=1):
    region = make_loop_region(region_id)
    block = make_block(0x4000, vector=6, taken=0, fall=0)
    block.region_id = region_id
    region.blocks[2].fall_succ = 3
    region.blocks.append(block)
    return region


def make_hints():
    """Region 0 provably VPU-dead, region 1 vector-carrying."""
    return StaticHints(
        {
            0: summarize_region(make_loop_region(0)),
            1: summarize_region(make_vector_region(1)),
        }
    )


def translation(tid, region_id, n_vector=0):
    return SimpleNamespace(tid=tid, region_id=region_id, n_vector=n_vector)


def window(simd=0, *, large=True):
    return WindowStats(
        instructions=1000,
        simd_instructions=simd,
        mlc_hits=0,
        mlc_accesses=0,
        branches=100,
        mispredicts=2,
        bpu_large_active=large,
        mlc_at_full_ways=True,
    )


class TestStaticHints:
    def test_vpu_dead_region_set(self):
        hints = make_hints()
        assert hints.vpu_dead_regions == frozenset({0})

    def test_signature_requires_every_tid_proven(self):
        hints = make_hints()
        for tid in SIG:
            hints.note_translation(translation(tid, region_id=0))
        assert hints.signature_vpu_dead(SIG)
        assert hints.translations_noted == 4
        # One tid from the vector region spoils the whole signature.
        hints.note_translation(translation(9, region_id=1, n_vector=3))
        assert not hints.signature_vpu_dead((1, 2, 3, 9))

    def test_unknown_tids_count_as_not_proven(self):
        hints = make_hints()
        hints.note_translation(translation(1, region_id=0))
        assert not hints.signature_vpu_dead((1, 99))
        assert not hints.signature_vpu_dead(())

    def test_vector_carrying_translation_never_marked_dead(self):
        # Belt-and-braces: even if the region were misclassified, a
        # translation that demonstrably contains vector ops is not dead.
        hints = make_hints()
        hints.note_translation(translation(1, region_id=0, n_vector=2))
        assert not hints.signature_vpu_dead((1,))

    def test_build_hints_over_workload_regions(self):
        workload = build_workload(get_profile("hmmer"))
        hints = build_hints(
            {s.region.region_id: s.region for s in workload.phases.values()}
        )
        assert hints.vpu_dead_regions  # hmmer is vector-free


def make_cde(hints, **config_kwargs):
    config = PowerChopConfig(use_static_hints=True, **config_kwargs)
    return CriticalityDecisionEngine(config, SERVER, static_hints=hints)


def proven_hints():
    hints = make_hints()
    for tid in SIG:
        hints.note_translation(translation(tid, region_id=0))
    return hints


class TestCDEWithHints:
    def test_hinted_phase_gates_vpu_during_profiling(self):
        cde = make_cde(proven_hints())
        action, states = cde.on_pvt_miss(SIG, current_vpu_on=True)
        assert action == "profile"
        assert states.vpu_on is False
        assert cde.static_vpu_phases == 1
        assert cde.static_vpu_windows_skipped == 1

    def test_windows_already_gated_are_not_counted_as_skipped(self):
        cde = make_cde(proven_hints())
        cde.on_pvt_miss(SIG, current_vpu_on=False)
        assert cde.static_vpu_phases == 1
        assert cde.static_vpu_windows_skipped == 0

    def test_pinned_score_survives_measured_windows(self):
        cde = make_cde(proven_hints())
        cde.on_pvt_miss(SIG)
        assert cde.feed_profile_window(SIG, window(large=True)) is None
        cde.on_pvt_miss(SIG)
        policy = cde.feed_profile_window(SIG, window(large=False))
        assert policy is not None
        assert policy.vpu_on is False
        assert cde.known_policy(SIG) == policy

    def test_unproven_signature_profiles_dynamically(self):
        cde = make_cde(proven_hints())
        action, states = cde.on_pvt_miss((7, 8, 9, 10), current_vpu_on=True)
        assert action == "profile"
        assert states.vpu_on is True
        assert cde.static_vpu_phases == 0

    def test_hints_ignored_without_vpu_in_managed_units(self):
        cde = make_cde(proven_hints(), managed_units=("bpu", "mlc"))
        assert cde.hints is None
        _action, states = cde.on_pvt_miss(SIG, current_vpu_on=True)
        assert states.vpu_on is True
        assert cde.static_vpu_phases == 0

    def test_hints_ignored_when_config_opts_out(self):
        config = PowerChopConfig()  # use_static_hints defaults to False
        cde = CriticalityDecisionEngine(config, SERVER, static_hints=proven_hints())
        assert cde.hints is None


def run_once(benchmark, *, hints, n=600_000):
    """One POWERCHOP run on the reference loop, and its CDE."""
    profile = get_profile(benchmark)
    config = PowerChopConfig(use_static_hints=hints)
    simulator = HybridSimulator(
        design_for_suite(profile.suite),
        build_workload(profile),
        GatingMode.POWERCHOP,
        powerchop_config=config,
        backend="reference",
    )
    result = simulator.run(n)
    return result, simulator.controller.cde


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def hmmer_ab(self):
        baseline, base_cde = run_once("hmmer", hints=False)
        hinted, hint_cde = run_once("hmmer", hints=True)
        return baseline, base_cde, hinted, hint_cde

    def test_hints_skip_profiling_windows(self, hmmer_ab):
        _baseline, base_cde, hinted, hint_cde = hmmer_ab
        assert base_cde.hints is None
        assert hint_cde.hints is not None
        assert hint_cde.static_vpu_phases >= 1
        assert hint_cde.static_vpu_windows_skipped >= 1
        assert hinted.extra["static_vpu_windows_skipped"] >= 1.0

    def test_policy_decisions_bit_identical(self, hmmer_ab):
        _baseline, base_cde, _hinted, hint_cde = hmmer_ab
        assert base_cde.decided_policies() == hint_cde.decided_policies()
        assert base_cde.decided_policies()  # non-vacuous comparison

    def test_same_work_less_energy(self, hmmer_ab):
        baseline, _bd, hinted, _hd = hmmer_ab
        assert hinted.instructions == baseline.instructions
        assert hinted.energy.avg_power_w <= baseline.energy.avg_power_w

    def test_no_hints_fire_on_vector_dense_workload(self):
        baseline, _base_cde = run_once("bodytrack", hints=False, n=400_000)
        hinted, hint_cde = run_once("bodytrack", hints=True, n=400_000)
        assert hint_cde.hints is not None
        assert not hint_cde.hints.vpu_dead_regions
        assert hint_cde.static_vpu_phases == 0
        # With no hints firing, the runs are indistinguishable — identical
        # energy accounting, not merely identical policies.
        assert hinted.cycles == baseline.cycles
        assert hinted.energy.avg_power_w == baseline.energy.avg_power_w
        assert hinted.energy.avg_leakage_w == baseline.energy.avg_leakage_w
