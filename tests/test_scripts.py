"""Smoke tests for the repository scripts."""

import json
import runpy
import sys

import pytest


class TestProfileSimulator:
    def test_throughput_helper(self):
        sys.path.insert(0, "scripts")
        try:
            import profile_simulator
        finally:
            sys.path.pop(0)
        from repro.sim.simulator import GatingMode

        rate = profile_simulator.throughput("hmmer", 100_000, GatingMode.FULL)
        assert rate > 10_000  # anything slower means the hot loop regressed

    def test_main_runs(self, monkeypatch, capsys):
        monkeypatch.setattr(
            sys, "argv", ["profile_simulator.py", "hmmer", "100000"]
        )
        runpy.run_path("scripts/profile_simulator.py", run_name="__main__")
        out = capsys.readouterr().out
        assert "guest-instructions/s" in out
        assert "powerchop" in out

    def test_breakdown_reports_bursts_within_the_cap(self, monkeypatch, capsys):
        from repro.sim.backends.vectorized import _BURST_BLOCKS

        monkeypatch.setattr(
            sys,
            "argv",
            ["profile_simulator.py", "milc", "300000", "--backend",
             "vectorized", "--breakdown", "--json"],
        )
        runpy.run_path("scripts/profile_simulator.py", run_name="__main__")
        breakdown = json.loads(capsys.readouterr().out)["breakdown"]
        assert breakdown["bursts"] > 0
        assert 0 < breakdown["blocks_per_burst"] <= _BURST_BLOCKS


    def test_breakdown_rejects_backends_without_pass_timers(self, monkeypatch, capsys):
        sys.path.insert(0, "scripts")
        try:
            import profile_simulator
        finally:
            sys.path.pop(0)

        def throughput(*args, **kwargs):
            raise AssertionError("measured before rejecting the arguments")

        monkeypatch.setattr(profile_simulator, "throughput", throughput)
        with pytest.raises(SystemExit) as exc:
            profile_simulator.main(["hmmer", "20000", "--backend", "reference",
                                    "--breakdown"])
        assert exc.value.code == 2
        assert "error: --breakdown needs a backend with pass timers" in (
            capsys.readouterr().err
        )


class TestBenchThroughput:
    def _script(self):
        sys.path.insert(0, "scripts")
        try:
            import bench_throughput
        finally:
            sys.path.pop(0)
        return bench_throughput

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--repeats", "0"], "--repeats"),
            (["--budget", "0"], "--budget"),
            (["--tolerance", "1"], "--tolerance"),
            (["--tolerance", "1.5"], "--tolerance"),
            (["--tolerance", "-0.1"], "--tolerance"),
            (["--tolerance", "nan"], "--tolerance"),
        ],
    )
    def test_rejects_arguments_before_measuring(self, monkeypatch, capsys, argv, flag):
        script = self._script()

        def measure(*args, **kwargs):
            raise AssertionError("measured before rejecting the arguments")

        monkeypatch.setattr(script, "measure", measure)
        with pytest.raises(SystemExit) as exc:
            script.main(argv)
        assert exc.value.code == 2
        assert f"error: {flag} must be" in capsys.readouterr().err

    def test_measure_repeats_in_rounds_over_all_cells(self, monkeypatch):
        script = self._script()
        calls = []
        speeds = iter([1e6, 3e6, 2e6, 4e6, 5e6, 1e6, 2e6, 6e6])

        def measure_once(name, budget, mode, backend):
            calls.append((backend, name, mode.value))
            return next(speeds)

        monkeypatch.setattr(script, "MODES", script.MODES[:2])
        monkeypatch.setattr(script, "measure_once", measure_once)
        rates = script.measure(["milc", "gobmk"], 1000, 2, ["fastpath"])
        cells = [("fastpath", name, mode) for name in ("milc", "gobmk")
                 for mode in ("full", "powerchop")]
        assert calls == cells + cells  # no cell repeats before every cell ran
        assert rates == {"fastpath": {"milc": {"full": 5.0, "powerchop": 3.0},
                                      "gobmk": {"full": 2.0, "powerchop": 6.0}}}

    @staticmethod
    def _rates(scale, modes=("full", "powerchop", "minimal", "timeout")):
        return {
            backend: {"milc": {mode: round(scale * factor, 3) for mode in modes}}
            for backend, factor in (("fastpath", 1.0), ("vectorized", 2.0))
        }

    def test_update_records_no_ratio_against_earlier_entries(
        self, monkeypatch, tmp_path
    ):
        script = self._script()
        out = tmp_path / "bench.json"
        old = {"label": "old", "rates": self._rates(1.0),
               "speedup_vs_previous": {"fastpath": {"milc": {"full": 1.1}}}}
        out.write_text(json.dumps({"history": [], "current": old}))
        monkeypatch.setattr(script, "measure", lambda *a, **k: self._rates(3.0))
        assert script.main(["--update", "--output", str(out), "--profiles", "milc",
                            "--backend", "fastpath", "--backend", "vectorized"]) == 0
        record = json.loads(out.read_text())
        assert record["history"] == [old]  # earlier entries keep their fields
        current = record["current"]
        assert "speedup_vs_previous" not in current
        assert current["vectorized_speedup_vs_fastpath"]["milc"]["timeout"] == 2.0

    def test_check_skips_cells_the_committed_entry_lacks(
        self, monkeypatch, tmp_path, capsys
    ):
        script = self._script()
        assert "timeout" in {mode.value for mode in script.MODES}
        out = tmp_path / "bench.json"
        committed = self._rates(1.0, modes=("full", "powerchop", "minimal"))
        out.write_text(json.dumps({"history": [], "current": {"rates": committed}}))
        fresh = self._rates(1.0)
        for modes in fresh.values():
            modes["milc"]["timeout"] = 0.001  # no committed cell to regress from
        monkeypatch.setattr(script, "measure", lambda *a, **k: fresh)
        argv = ["--check", "--output", str(out), "--profiles", "milc",
                "--backend", "fastpath", "--backend", "vectorized"]
        assert script.main(argv) == 0
        fresh["fastpath"]["milc"]["full"] = 0.5  # a committed cell regressed
        assert script.main(argv) == 1
        assert "fastpath/milc/full" in capsys.readouterr().out


class TestDeterminismLint:
    def _lint(self):
        sys.path.insert(0, "scripts")
        try:
            import lint_determinism
        finally:
            sys.path.pop(0)
        return lint_determinism

    def _codes(self, lint, source, tmp_path):
        bad = tmp_path / "case.py"
        bad.write_text(source)
        return [v[2] for v in lint.lint_file(bad)]

    def test_repo_is_clean(self, capsys):
        lint = self._lint()
        assert lint.main(["src/repro", "scripts"]) == 0
        assert "0 violation(s)" in capsys.readouterr().out

    def test_flags_unseeded_module_level_draws(self, tmp_path):
        lint = self._lint()
        assert self._codes(
            lint, "import random\nx = random.random()\n", tmp_path
        ) == ["D001"]
        assert self._codes(
            lint, "from random import shuffle\n", tmp_path
        ) == ["D001"]
        assert self._codes(
            lint, "import numpy as np\nx = np.random.rand(3)\n", tmp_path
        ) == ["D001"]

    def test_allows_seeded_generators(self, tmp_path):
        lint = self._lint()
        source = (
            "import random\nimport numpy as np\n"
            "rng = random.Random(7)\nx = rng.random()\n"
            "g = np.random.default_rng(7)\n"
        )
        assert self._codes(lint, source, tmp_path) == []

    def test_flags_unfrozen_spec_dataclasses(self, tmp_path):
        lint = self._lint()
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass\nclass SimJob:\n    a: int = 0\n"
        )
        assert self._codes(lint, source, tmp_path) == ["D002"]
        frozen = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\nclass SimJob:\n    a: int = 0\n"
        )
        assert self._codes(lint, frozen, tmp_path) == []

    def test_flags_unfrozen_probe_subclasses(self, tmp_path):
        lint = self._lint()
        source = (
            "from dataclasses import dataclass\n"
            "from repro.sim.probes import ProbeSpec\n"
            "@dataclass\nclass MyProbe(ProbeSpec):\n    a: int = 0\n"
        )
        assert self._codes(lint, source, tmp_path) == ["D002"]

    def test_main_exits_nonzero_on_violation(self, tmp_path, capsys):
        lint = self._lint()
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.randint(0, 9)\n")
        assert lint.main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "D001" in out and "bad.py" in out

    _RUN_LOOP = (
        "def my_loop(core, workload):\n"
        "    for block in workload.trace(100):\n"
        "        core.execute_block(block)\n"
    )

    def test_flags_run_loops_outside_backends(self, tmp_path):
        lint = self._lint()
        assert self._codes(lint, self._RUN_LOOP, tmp_path) == ["D003"]

    def test_allows_run_loops_inside_backends_package(self, tmp_path):
        lint = self._lint()
        pkg = tmp_path / "repro" / "sim" / "backends"
        pkg.mkdir(parents=True)
        inside = pkg / "custom.py"
        inside.write_text(self._RUN_LOOP)
        assert lint.lint_file(inside) == []

    def test_allows_readonly_trace_scans(self, tmp_path):
        lint = self._lint()
        scan = (
            "def count_blocks(workload):\n"
            "    n = 0\n"
            "    for block in workload.trace(100):\n"
            "        n += 1\n"
            "    return n\n"
        )
        assert self._codes(lint, scan, tmp_path) == []

    def test_flags_hand_built_simulations_in_experiments(self, tmp_path):
        lint = self._lint()
        source = (
            "from repro.sim import simulator\n"
            "from repro.sim.simulator import run_simulation\n"
            "def a(design, workload):\n"
            "    return simulator.HybridSimulator(design, workload).run(10)\n"
            "def b(name):\n"
            "    return run_simulation(name)\n"
            "def c(workload):\n"
            "    return [b.block.n_vec for b in workload.trace(100)]\n"
        )
        pkg = tmp_path / "repro" / "experiments"
        pkg.mkdir(parents=True)
        inside = pkg / "case.py"
        inside.write_text(source)
        assert [v[2] for v in lint.lint_file(inside)] == ["D006"] * 3
        assert self._codes(lint, source, tmp_path) == []  # experiments only

    def _backend_codes(self, lint, source, tmp_path):
        """Lint ``source`` as if it lived in repro/sim/backends."""
        pkg = tmp_path / "repro" / "sim" / "backends"
        pkg.mkdir(parents=True, exist_ok=True)
        case = pkg / "case.py"
        case.write_text(source)
        return [v[2] for v in lint.lint_file(case)]

    def test_flags_direct_rng_draws_in_backends(self, tmp_path):
        lint = self._lint()
        assert self._backend_codes(
            lint, "def f(stream):\n    return stream._rng.getrandbits(30)\n",
            tmp_path,
        ) == ["D004"]
        assert self._backend_codes(
            lint, "def f(stream):\n    draw = stream._random\n", tmp_path
        ) == ["D004"]

    def test_rng_pragma_suppresses_d004(self, tmp_path):
        lint = self._lint()
        source = (
            "def f(stream):\n"
            "    draw = stream._random  # lint: rng-mirrored\n"
            "    bits = stream._rng.getrandbits  # lint: rng-mirrored\n"
        )
        assert self._backend_codes(lint, source, tmp_path) == []

    def test_d004_only_applies_inside_backends(self, tmp_path):
        lint = self._lint()
        outside = "def f(stream):\n    return stream._rng.getrandbits(30)\n"
        assert self._codes(lint, outside, tmp_path) == []

    def test_flags_mutable_default_arguments(self, tmp_path):
        lint = self._lint()
        assert self._codes(
            lint, "def f(xs=[]):\n    return xs\n", tmp_path
        ) == ["D005"]
        assert self._codes(
            lint, "def f(*, table=dict()):\n    return table\n", tmp_path
        ) == ["D005"]
        assert self._codes(
            lint, "g = lambda seen=set(): seen\n", tmp_path
        ) == ["D005"]

    def test_allows_immutable_defaults(self, tmp_path):
        lint = self._lint()
        source = (
            "def f(xs=(), name='x', n=0, table=None):\n"
            "    return xs, name, n, table\n"
        )
        assert self._codes(lint, source, tmp_path) == []


class TestUpdateGoldens:
    def _script(self):
        sys.path.insert(0, "scripts")
        try:
            import update_goldens
        finally:
            sys.path.pop(0)
        return update_goldens

    @staticmethod
    def _capture(version, kind):
        def capture(spec):
            return {
                "schema": 1,
                "result_semantics": version,
                "name": spec.name,
                "events": [{"kind": kind}],
            }

        return capture

    def _fixtures(self, tmp_path):
        return {path.name: path.read_text() for path in tmp_path.iterdir()}

    def test_refuses_changed_fixture_without_a_bump(
        self, monkeypatch, tmp_path, capsys
    ):
        script = self._script()
        current = script.RESULT_SEMANTICS_VERSION
        monkeypatch.setattr(script, "capture_golden", self._capture(current, "unit_gate"))
        assert script.main(tmp_path) == 0  # no fixtures yet: written
        written = self._fixtures(tmp_path)
        assert len(written) == len(script.GOLDEN_SPECS)
        assert script.main(tmp_path) == 0  # same content: no bump needed
        monkeypatch.setattr(script, "capture_golden", self._capture(current, "unit_regate"))
        assert script.main(tmp_path) == 1
        assert self._fixtures(tmp_path) == written  # nothing written
        assert "RESULT_SEMANTICS_VERSION" in capsys.readouterr().out

    def test_rewrites_changed_fixture_after_a_bump(self, monkeypatch, tmp_path):
        script = self._script()
        old = script.RESULT_SEMANTICS_VERSION
        monkeypatch.setattr(script, "capture_golden", self._capture(old, "unit_gate"))
        assert script.main(tmp_path) == 0
        monkeypatch.setattr(script, "RESULT_SEMANTICS_VERSION", old + 1)
        monkeypatch.setattr(script, "capture_golden", self._capture(old + 1, "unit_regate"))
        assert script.main(tmp_path) == 0
        for text in self._fixtures(tmp_path).values():
            fixture = json.loads(text)
            assert fixture["result_semantics"] == old + 1
            assert fixture["events"] == [{"kind": "unit_regate"}]


class TestGenerateExperimentsScript:
    def test_experiment_list_importable(self):
        sys.path.insert(0, "scripts")
        try:
            import generate_experiments_md as gen
        finally:
            sys.path.pop(0)
        ids = [eid for eid, _claim, _run in gen.EXPERIMENTS]
        assert len(ids) == len(set(ids))
        assert "fig12" in ids and "headline" in ids
        for _eid, claim, runner in gen.EXPERIMENTS:
            assert callable(runner)
            assert claim
