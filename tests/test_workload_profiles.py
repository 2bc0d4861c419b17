"""Tests for the benchmark profile registry (the paper's 29-app study set)."""

import pytest

from repro.workloads.profiles import BenchmarkProfile, PhaseDecl, RegionSpec, build_workload
from repro.workloads.generator import MemoryBehavior
from repro.workloads.suites import (
    ALL_BENCHMARKS,
    MOBILEBENCH,
    PARSEC,
    SPEC_FP,
    SPEC_INT,
    SUITES,
    get_profile,
    mobile_benchmarks,
    server_benchmarks,
)


class TestRegistry:
    def test_twenty_nine_applications(self):
        assert len(ALL_BENCHMARKS) == 29

    def test_suite_sizes(self):
        assert len(SPEC_INT) == 10
        assert len(SPEC_FP) == 8
        assert len(PARSEC) == 6
        assert len(MOBILEBENCH) == 5

    def test_names_unique(self):
        names = [p.name for p in ALL_BENCHMARKS]
        assert len(names) == len(set(names))

    def test_seeds_unique(self):
        seeds = [p.seed for p in ALL_BENCHMARKS]
        assert len(seeds) == len(set(seeds))

    def test_lookup(self):
        assert get_profile("gobmk").suite == "SPEC-INT"
        with pytest.raises(KeyError):
            get_profile("doom")

    def test_design_pairing(self):
        assert all(p.suite == "MobileBench" for p in mobile_benchmarks())
        assert all(p.suite != "MobileBench" for p in server_benchmarks())
        assert len(server_benchmarks()) + len(mobile_benchmarks()) == 29

    def test_suites_mapping(self):
        assert set(SUITES) == {"SPEC-INT", "SPEC-FP", "PARSEC", "MobileBench"}

    def test_every_profile_has_description(self):
        assert all(p.description for p in ALL_BENCHMARKS)


class TestProfileShapes:
    """Profiles must encode the behaviours the paper reports per app."""

    @pytest.mark.parametrize("name", ["namd", "dedup", "perlbench", "h264ref"])
    def test_sparse_vector_apps(self, name):
        profile = get_profile(name)
        assert any(p.region.vector_style == "sparse" for p in profile.phases)

    @pytest.mark.parametrize("name", ["milc", "lbm", "blackscholes", "cactusADM"])
    def test_dense_vector_apps(self, name):
        profile = get_profile(name)
        assert any(p.region.vector_style == "dense" for p in profile.phases)

    @pytest.mark.parametrize("name", ["milc", "libquantum", "streamcluster", "lbm"])
    def test_streaming_apps(self, name):
        profile = get_profile(name)
        assert any(p.memory.pattern == "stream" for p in profile.phases)

    def test_spec_int_mostly_scalar(self):
        for profile in SPEC_INT:
            dense = [p for p in profile.phases if p.region.vector_style == "dense"]
            # gobmk's pattern matcher is the only dense-vector SPEC-INT phase
            assert not dense or profile.name == "gobmk"

    def test_gems_alternates_resident_and_streaming(self):
        profile = get_profile("gems")
        patterns = {p.memory.pattern for p in profile.phases}
        assert patterns == {"loop", "stream"}

    def test_all_profiles_instantiate(self):
        for profile in ALL_BENCHMARKS:
            workload = build_workload(profile)
            assert workload.name == profile.name
            assert len(workload.phases) == len(profile.phases)


class TestProfileValidation:
    def _phase(self, name="p"):
        return PhaseDecl(
            name=name,
            region=RegionSpec(),
            memory=MemoryBehavior(),
            blocks=100,
        )

    def test_duplicate_phase_names_rejected(self):
        with pytest.raises(ValueError):
            BenchmarkProfile(
                name="x",
                suite="test",
                phases=(self._phase("a"), self._phase("a")),
                schedule=("a",),
            )

    def test_unknown_schedule_entry_rejected(self):
        with pytest.raises(ValueError):
            BenchmarkProfile(
                name="x",
                suite="test",
                phases=(self._phase("a"),),
                schedule=("a", "b"),
            )

    def test_phase_lookup(self):
        profile = BenchmarkProfile(
            name="x", suite="test", phases=(self._phase("a"),), schedule=("a",)
        )
        assert profile.phase("a").name == "a"
        with pytest.raises(KeyError):
            profile.phase("z")

