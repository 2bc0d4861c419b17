"""Tests for the static-analysis framework (repro.staticcheck)."""

import json

import pytest

from repro.__main__ import main
from repro.isa.blocks import INSTR_BYTES, BasicBlock, CodeRegion
from repro.isa.branches import (
    BiasedBranch,
    GlobalCorrelatedBranch,
    LoopBranch,
    PatternBranch,
    RandomBranch,
    StaticBranch,
)
from repro.isa.instructions import InstructionMix
from repro.staticcheck import (
    Severity,
    analyze_profile,
    analyze_region,
    branch_entropy_bits,
    reachable_blocks,
    static_taken_probability,
    summarize_region,
    verify_region,
)
from repro.workloads.suites import ALL_BENCHMARKS, get_profile


def make_block(pc, *, scalar=5, vector=0, loads=2, stores=1, branch_model=None,
               taken=0, fall=0):
    """One valid block; a branch model places the branch on the last slot."""
    mix = InstructionMix(
        scalar=scalar,
        vector=vector,
        loads=loads,
        stores=stores,
        has_branch=branch_model is not None,
    )
    branch = None
    if branch_model is not None:
        branch = StaticBranch(
            pc=pc + (mix.total - 1) * INSTR_BYTES, model=branch_model
        )
    return BasicBlock(pc, mix, branch, taken_succ=taken, fall_succ=fall)


def make_loop_region(region_id=0):
    """A clean 3-block loop: 0 -> 1 -> (back to 0 | fall to 2) -> 0."""
    b0 = make_block(0x1000, taken=1, fall=1)
    b1 = make_block(0x2000, branch_model=LoopBranch(4), taken=0, fall=2)
    b2 = make_block(0x3000, taken=0, fall=0)
    return CodeRegion(region_id, [b0, b1, b2], entry=0)


class TestVerifier:
    def codes(self, region):
        return {d.code for d in verify_region(region)}

    def test_clean_region_has_no_diagnostics(self):
        assert verify_region(make_loop_region()) == []

    def test_out_of_range_successor(self):
        region = make_loop_region()
        region.blocks[2].fall_succ = 99  # post-construction rewire
        assert "E-SUCC-RANGE" in self.codes(region)

    def test_entry_out_of_range(self):
        region = make_loop_region()
        region.entry = 7
        codes = self.codes(region)
        assert "E-ENTRY-RANGE" in codes
        # Reachability checks are suppressed when the entry itself is bad.
        assert "W-UNREACHABLE" not in codes

    def test_unreachable_block(self):
        region = make_loop_region()
        region.blocks[1].taken_succ = 0
        region.blocks[1].fall_succ = 0  # block 2 now orphaned
        diags = verify_region(region)
        assert any(
            d.code == "W-UNREACHABLE" and d.block == 2 for d in diags
        )

    def test_branch_mix_mismatch(self):
        region = make_loop_region()
        region.blocks[1].branch = None  # mix still claims has_branch
        assert "E-BRANCH-MIX" in self.codes(region)

    def test_branch_pc_outside_block(self):
        region = make_loop_region()
        region.blocks[1].branch.pc = 0x9000
        assert "E-BRANCH-PC" in self.codes(region)

    def test_duplicate_pc(self):
        region = make_loop_region()
        region.blocks[2].pc = region.blocks[0].pc
        assert "E-DUP-PC" in self.codes(region)

    def test_overlapping_byte_ranges(self):
        region = make_loop_region()
        region.blocks[1].pc = region.blocks[0].pc + INSTR_BYTES
        assert "E-PC-OVERLAP" in self.codes(region)

    def test_misaligned_pc(self):
        region = make_loop_region()
        region.blocks[0].pc = 0x1001
        assert "W-PC-ALIGN" in self.codes(region)

    def test_dead_taken_edge_on_unconditional_block(self):
        region = make_loop_region()
        region.blocks[0].taken_succ = 2  # fall_succ stays 1; edge is dead
        assert "W-UNCOND-DIVERGE" in self.codes(region)

    def test_trap_subgraph_cannot_return_to_entry(self):
        # 0 -> 1 -> (2 | 0); 2 self-loops, so control entering it is stuck.
        b0 = make_block(0x1000, taken=1, fall=1)
        b1 = make_block(0x2000, branch_model=LoopBranch(4), taken=2, fall=0)
        b2 = make_block(0x3000, taken=2, fall=2)
        region = CodeRegion(5, [b0, b1, b2], entry=0)
        diags = verify_region(region)
        assert any(d.code == "W-NO-RETURN" and d.block == 2 for d in diags)

    def test_diagnostics_are_actionable(self):
        region = make_loop_region()
        region.blocks[2].fall_succ = 99
        diag = verify_region(region)[0]
        rendered = diag.render()
        assert diag.message
        assert diag.code in rendered
        assert "region" in rendered
        assert diag.severity is Severity.ERROR


class TestDataflow:
    def test_taken_probabilities(self):
        assert static_taken_probability(LoopBranch(4)) == pytest.approx(0.75)
        assert static_taken_probability(
            PatternBranch([True, False, True, True])
        ) == pytest.approx(0.75)
        assert static_taken_probability(BiasedBranch(0.2)) == pytest.approx(0.2)
        assert static_taken_probability(
            GlobalCorrelatedBranch()
        ) == pytest.approx(0.5)

    def test_entropy_bounds(self):
        assert branch_entropy_bits(LoopBranch(8)) == 0.0
        assert branch_entropy_bits(PatternBranch([True, False])) == 0.0
        assert branch_entropy_bits(RandomBranch()) == pytest.approx(1.0)
        assert branch_entropy_bits(BiasedBranch(0.9)) == pytest.approx(
            0.469, abs=1e-3
        )

    def test_vector_free_region_is_vpu_dead(self):
        summary = summarize_region(make_loop_region())
        assert summary.vpu_dead
        assert summary.static_vector_ops == 0
        assert summary.vector_frac == 0.0
        assert summary.converged
        assert 0.0 < summary.load_density < 1.0

    def test_vector_region_is_not_vpu_dead(self):
        region = make_loop_region()
        b = make_block(0x4000, vector=6, taken=0, fall=0)
        b.region_id = region.region_id
        region.blocks[2].fall_succ = 3
        region.blocks.append(b)
        summary = summarize_region(region)
        assert not summary.vpu_dead
        assert summary.static_vector_ops == 6
        assert summary.vector_frac > 0.0

    def test_unreachable_vector_ops_do_not_spoil_the_proof(self):
        region = make_loop_region()
        orphan = make_block(0x4000, vector=6, taken=0, fall=0)
        orphan.region_id = region.region_id
        region.blocks.append(orphan)  # nothing points at it
        assert 3 not in reachable_blocks(region)
        summary = summarize_region(region)
        assert summary.vpu_dead
        assert summary.static_vector_ops == 0
        assert summary.n_reachable == 3

    def test_loop_only_region_has_zero_branch_entropy(self):
        summary = summarize_region(make_loop_region())
        assert summary.branch_entropy_bits == 0.0

    def test_invalid_entry_yields_empty_summary(self):
        region = make_loop_region()
        region.entry = 9
        summary = summarize_region(region)
        assert summary.n_reachable == 0
        assert summary.static_instructions == 0
        assert summary.converged
        assert summary.load_density == 0.0


class TestProfiles:
    def test_all_builtin_profiles_are_clean(self):
        for profile in ALL_BENCHMARKS:
            analysis = analyze_profile(profile)
            assert analysis.n_errors == 0, analysis.render()
            assert analysis.n_warnings == 0, analysis.render()

    def test_known_vpu_dead_benchmarks(self):
        assert analyze_profile(get_profile("hmmer")).vpu_dead_regions
        # bodytrack is vector-dense; no region should be provably dead.
        assert not analyze_profile(get_profile("bodytrack")).vpu_dead_regions

    def test_analysis_is_deterministic(self):
        profile = get_profile("gobmk")
        assert (
            analyze_profile(profile).to_dict()
            == analyze_profile(profile).to_dict()
        )

    def test_info_note_marks_vpu_dead_regions(self):
        analysis = analyze_region(make_loop_region())
        assert any(d.code == "I-VPU-DEAD" for d in analysis.diagnostics)


class TestCLI:
    def test_single_workload(self, capsys):
        assert main(["staticcheck", "-w", "hmmer"]) == 0
        out = capsys.readouterr().out
        assert "hmmer" in out
        assert "0 error(s)" in out

    def test_json_output(self, capsys):
        assert main(["staticcheck", "-w", "gobmk", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["errors"] == 0
        assert payload["profiles"][0]["benchmark"] == "gobmk"

    def test_verbose_includes_summaries(self, capsys):
        assert main(["staticcheck", "-w", "hmmer", "-v"]) == 0
        out = capsys.readouterr().out
        assert "H(branch)" in out
        assert "I-VPU-DEAD" in out

    def test_unknown_workload_fails_fast(self):
        with pytest.raises(KeyError):
            main(["staticcheck", "-w", "no-such-benchmark"])

    def test_json_schema_is_pinned(self, capsys):
        # Consumers (CI artifacts, dashboards) key on this shape; bump
        # STATICCHECK_JSON_SCHEMA when it changes.
        from repro.__main__ import STATICCHECK_JSON_SCHEMA

        assert main(["staticcheck", "-w", "gobmk", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert STATICCHECK_JSON_SCHEMA == 1
        assert payload["schema_version"] == STATICCHECK_JSON_SCHEMA
        assert set(payload) == {
            "schema_version",
            "profiles",
            "errors",
            "warnings",
            "ok",
        }

    def test_default_scope_is_the_study_set(self, capsys):
        assert main(["staticcheck", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [p["benchmark"] for p in payload["profiles"]] == [
            p.name for p in ALL_BENCHMARKS
        ]
        with pytest.raises(KeyError):
            get_profile("dgemm")
