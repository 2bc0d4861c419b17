"""Unit tests for address streams, region building and trace generation."""

import random
from dataclasses import replace

import pytest

from repro.isa.branches import LoopBranch
from repro.workloads.generator import (
    AddressStream,
    MemoryBehavior,
    RegionBuilder,
    SyntheticWorkload,
)
from repro.workloads.mixes import LOCAL_HEAVY, PREDICTABLE
from repro.workloads.profiles import build_workload
from repro.workloads.suites import get_profile


class TestMemoryBehavior:
    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryBehavior(pattern="zigzag")
        with pytest.raises(ValueError):
            MemoryBehavior(working_set_kb=0)
        with pytest.raises(ValueError):
            MemoryBehavior(stride=0)
        with pytest.raises(ValueError):
            MemoryBehavior(random_frac=1.5)


class TestAddressStream:
    def test_loop_wraps_within_working_set(self):
        behavior = MemoryBehavior(working_set_kb=1, pattern="loop", stride=64)
        stream = AddressStream(behavior, base=0x10000)
        addrs = stream.take(40)
        assert all(0x10000 <= a < 0x10000 + 1024 for a in addrs)
        assert addrs[0] == addrs[16]  # 1024/64 = 16 distinct lines

    def test_stream_monotonic(self):
        behavior = MemoryBehavior(working_set_kb=64, pattern="stream", stride=8)
        stream = AddressStream(behavior, base=0)
        addrs = stream.take(1000)
        assert addrs == sorted(addrs)

    def test_random_within_working_set(self):
        behavior = MemoryBehavior(working_set_kb=4, pattern="random")
        stream = AddressStream(behavior, base=0x2000, seed=1)
        addrs = stream.take(500)
        assert all(0x2000 <= a < 0x2000 + 4096 for a in addrs)
        assert len(set(addrs)) > 100

    def test_random_frac_mixes(self):
        behavior = MemoryBehavior(
            working_set_kb=64, pattern="loop", stride=8, random_frac=0.5
        )
        stream = AddressStream(behavior, base=0, seed=2)
        addrs = stream.take(400)
        deltas = [b - a for a, b in zip(addrs, addrs[1:])]
        assert any(d != 8 for d in deltas)  # random jumps present

    def test_take_matches_next(self):
        behavior = MemoryBehavior(working_set_kb=2, pattern="loop", stride=16)
        a = AddressStream(behavior, base=0)
        b = AddressStream(behavior, base=0)
        assert a.take(50) == [b.next() for _ in range(50)]

    def test_deterministic_by_seed(self):
        behavior = MemoryBehavior(working_set_kb=8, pattern="random")
        a = AddressStream(behavior, base=0, seed=9)
        b = AddressStream(behavior, base=0, seed=9)
        assert a.take(100) == b.take(100)


class TestRegionBuilder:
    def _build(self, seed=0, **kwargs):
        rng = random.Random(seed)
        builder = RegionBuilder(rng, pc_base=0x400000)
        defaults = dict(
            region_id=0,
            n_blocks=16,
            avg_block_size=12,
            mem_frac=0.3,
            store_frac=0.3,
            vector_frac=0.0,
            vector_style="none",
            branch_mix=dict(PREDICTABLE),
            bias=0.92,
        )
        defaults.update(kwargs)
        return builder.build(**defaults)

    def test_unique_pcs(self):
        region = self._build()
        pcs = region.block_pcs()
        assert len(pcs) == len(set(pcs))

    def test_successors_valid(self):
        region = self._build(seed=3)
        for block in region.blocks:
            assert 0 <= block.taken_succ < region.n_blocks
            assert 0 <= block.fall_succ < region.n_blocks

    def test_sparse_vector_on_side_blocks_only(self):
        region = self._build(vector_style="sparse", side_block_prob=0.5, seed=5)
        main_has_vec = any(
            b.n_vec > 0 for b in region.blocks if b.branch is not None
        )
        side_has_vec = any(
            b.n_vec > 0 for b in region.blocks if b.branch is None
        )
        assert not main_has_vec
        assert side_has_vec

    def test_dense_vector_on_main_path(self):
        region = self._build(
            vector_style="dense", vector_frac=0.3, branch_mix=dict(LOCAL_HEAVY)
        )
        assert sum(b.n_vec for b in region.blocks if b.branch is not None) > 0

    def test_loop_backedges_exist(self):
        region = self._build(branch_mix={"loop": 1.0}, seed=11)
        backedges = 0
        index = {b.pc: i for i, b in enumerate(region.blocks)}
        for i, block in enumerate(region.blocks):
            if block.branch and isinstance(block.branch.model, LoopBranch):
                if block.taken_succ < i:
                    backedges += 1
        assert backedges > 0

    def test_invalid_vector_style(self):
        with pytest.raises(ValueError):
            self._build(vector_style="wide")


class TestSyntheticWorkload:
    def test_trace_respects_budget(self, tiny_profile):
        workload = build_workload(tiny_profile)
        total = sum(be.block.n_instr for be in workload.trace(50_000))
        assert 50_000 <= total < 50_400

    def test_trace_deterministic(self, tiny_profile):
        a = [
            (be.block.pc, be.taken, tuple(be.addresses))
            for be in build_workload(tiny_profile).trace(30_000)
        ]
        b = [
            (be.block.pc, be.taken, tuple(be.addresses))
            for be in build_workload(tiny_profile).trace(30_000)
        ]
        assert a == b

    def test_different_seeds_differ(self, tiny_profile):
        a = [be.block.pc for be in build_workload(tiny_profile, seed=1).trace(20_000)]
        b = [be.block.pc for be in build_workload(tiny_profile, seed=2).trace(20_000)]
        assert a != b

    def test_schedule_repeats_when_bounded(self, tiny_profile):
        workload = build_workload(tiny_profile)
        phases = {be.phase_name for be in workload.trace(400_000)}
        assert phases == {"vector_loop", "scalar_chase"}

    def test_address_spaces_disjoint_across_phases(self, tiny_profile):
        workload = build_workload(tiny_profile)
        by_phase = {}
        for be in workload.trace(100_000):
            if be.addresses:
                by_phase.setdefault(be.phase_name, set()).update(
                    a >> 30 for a in be.addresses
                )
        slots = list(by_phase.values())
        assert len(slots) == 2
        assert not (slots[0] & slots[1])

    def test_unknown_phase_in_schedule_rejected(self, tiny_profile):
        workload = build_workload(tiny_profile)
        with pytest.raises(ValueError):
            SyntheticWorkload(
                "bad",
                "test",
                list(workload.phases.values()),
                [("missing", 10)],
                seed=0,
            )

    def test_real_profile_traces(self):
        workload = build_workload(get_profile("hmmer"))
        count = sum(1 for _ in workload.trace(20_000))
        assert count > 500

    @pytest.mark.parametrize("name", ["google", "milc"])
    def test_address_free_walk_matches_full_walk(self, name):
        # google mixes random accesses into its loops (random_frac > 0);
        # milc streams.  Short schedule visits make the budget span
        # several repeats of the schedule.
        profile = get_profile(name)
        profile = replace(
            profile,
            phases=tuple(replace(decl, blocks=300) for decl in profile.phases),
        )
        full = list(build_workload(profile).trace(100_000))
        bare_workload = build_workload(profile)
        bare = list(bare_workload.trace(100_000, addresses=False))
        per_pass = sum(n for _phase, n in bare_workload.schedule)
        assert len(full) > 2 * per_pass
        assert any(be.addresses for be in full)
        assert [(be.block.pc, be.taken, be.phase_name) for be in bare] == [
            (be.block.pc, be.taken, be.phase_name) for be in full
        ]
        assert all(be.addresses == () for be in bare)
        assert all(p.stream is None for p in bare_workload.phases.values())
