"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import main
from repro.sim.results import SimulationResult


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "gobmk" in out
        assert "MobileBench" in out

    def test_designs(self, capsys):
        assert main(["designs"]) == 0
        out = capsys.readouterr().out
        assert "server" in out and "mobile" in out

    def test_run_powerchop(self, capsys):
        assert main(["run", "hmmer", "-n", "150000"]) == 0
        out = capsys.readouterr().out
        assert "hmmer" in out
        assert "vpu gated" in out
        assert "PVT" in out

    def test_run_full_mode(self, capsys):
        assert main(["run", "hmmer", "-n", "100000", "-m", "full"]) == 0
        out = capsys.readouterr().out
        assert "[full]" in out

    def test_run_explicit_design(self, capsys):
        assert main(["run", "hmmer", "-n", "100000", "-d", "mobile"]) == 0
        assert "mobile" in capsys.readouterr().out

    def test_compare(self, capsys):
        assert main(["compare", "hmmer", "-n", "150000"]) == 0
        out = capsys.readouterr().out
        assert "powerchop" in out and "minimal" in out

    def test_run_json_round_trips(self, capsys):
        assert main(["run", "hmmer", "-n", "120000", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["benchmark"] == "hmmer"
        assert payload["derived"]["ipc"] > 0
        restored = SimulationResult.from_dict(payload)
        assert restored.to_dict() == payload

    def test_compare_json(self, capsys):
        assert main(["compare", "hmmer", "-n", "120000", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["results"]) == {"full", "powerchop", "minimal"}
        assert payload["comparison"]["full"]["slowdown"] == 0.0
        full = SimulationResult.from_dict(payload["results"]["full"])
        assert full.mode == "full"

    def test_sweep_json_and_cache(self, capsys):
        argv = [
            "sweep", "hmmer", "namd",
            "-m", "full,minimal", "-n", "80000", "-j", "1", "--json",
        ]
        assert main(argv) == 0
        cold = json.loads(capsys.readouterr().out)
        assert len(cold) == 4
        assert main(argv) == 0
        warm = json.loads(capsys.readouterr().out)
        assert all(entry["from_cache"] for entry in warm)
        assert [e["result"] for e in warm] == [e["result"] for e in cold]

    def test_sweep_table(self, capsys):
        assert main(["sweep", "hmmer", "-n", "80000"]) == 0
        out = capsys.readouterr().out
        assert "slowdown/power_red" in out
        assert "hmmer" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "hmmer", "-n", "0"],
            ["sweep", "hmmer", "-j", "0"],
            ["sweep", "hmmer", "-n", "0"],
            ["fabric", "gc", "--budget", "-5"],
        ],
    )
    def test_out_of_range_numbers_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "must be" in capsys.readouterr().err

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError):
            main(["run", "doom", "-n", "1000"])

    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestThresholdPresets:
    def test_presets_are_ordered(self):
        from repro.core.criticality import CriticalityThresholds

        conservative = CriticalityThresholds.conservative()
        default = CriticalityThresholds()
        aggressive = CriticalityThresholds.aggressive()
        assert conservative.vpu < default.vpu < aggressive.vpu
        assert conservative.mlc_high < default.mlc_high < aggressive.mlc_high
