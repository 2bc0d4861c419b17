"""Tests for the benchmark's own code.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run as bench_run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

from repro.sim import engine  # noqa: E402
from repro.sim.engine import SimJob  # noqa: E402
from repro.sim.simulator import GatingMode  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def record():
    return engine.execute_job(SimJob(benchmark="gobmk", max_instructions=5_000, seed=3))


# --------------------------------------------------------- output check


def test_output_check_flags_perturbed_result(record):
    good = workloads.digest_record(record)
    perturbed = replace(record, result=replace(record.result, cycles=record.result.cycles + 1))
    ledger = bench_run.Ledger()
    ledger.check_digests("pass", {"job": workloads.digest_record(perturbed)}, {"job": good})
    ledger.check_digests("pass", {"job": good}, {"job": good})
    assert (ledger.attempted, ledger.failed) == (2, 1)


def test_output_check_flags_failed_record_and_missing_output(record):
    failed = engine.failed_record(record.job_key, RuntimeError("boom"))
    ledger = bench_run.Ledger()
    ledger.check_digests("setup", {"job": workloads.digest_record(failed)}, None)
    ledger.check_digests("pass", {}, {"job": workloads.digest_record(record)})
    assert (ledger.attempted, ledger.failed) == (2, 2)


def test_output_check_flags_count_mismatch():
    ledger = bench_run.Ledger()
    ledger.check_counts("pass", {"hits": 3, "evictions": 1}, {"hits": 3, "evictions": 2})
    assert (ledger.attempted, ledger.failed) == (2, 1)


def test_pinned_outputs_cover_every_workload():
    expected = workloads.load_expected()
    ids = [experiment_id for experiment_id in tracing.EXPERIMENT_IDS]
    assert sorted(expected["eval"]["digests"]) == sorted(ids)
    for name in ("sweep", "sim"):
        assert sorted(expected[name]) == ["1", "2"]
    for seed in ("1", "2"):
        assert set(expected["sweep"][seed]["counts"]) == {"hits", "misses", "dedups", "evictions"}
        assert len(expected["sweep"][seed]["digests"]) == 29 * 4 * workloads.Sweep.JOB_SEEDS
        assert len(expected["sim"][seed]["digests"]) == len(workloads.Sim.PROFILES) * 4


# ------------------------------------------------------------- wrappers


def _bindings():
    """Every attribute of every loaded repro module and of its classes."""
    out = {}
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            out[(module_name, attr)] = value
            if isinstance(value, type):
                for member, inner in list(vars(value).items()):
                    out[(module_name, attr, member)] = inner
    return out


def test_wrappers_restore_the_original_functions(tmp_path):
    tracer = tracing.Tracer(tmp_path)
    tracer.install()  # imports every traced module
    tracer.uninstall()
    before = _bindings()
    with tracer.installed():
        during = _bindings()
        changed = [key for key, value in before.items() if during.get(key) is not value]
    after = _bindings()
    assert {"execute_job", "run_job", "build_workload"} <= {key[1] for key in changed}
    assert not [key for key, value in before.items() if after.get(key) is not value]


def test_wrappers_restore_after_a_failed_install(tmp_path, monkeypatch):
    tracer = tracing.Tracer(tmp_path)
    before = _bindings()
    monkeypatch.setattr(tracing.Tracer, "_patch", _patch_then_fail(tracing.Tracer._patch))
    with pytest.raises(RuntimeError, match="injected"):
        tracer.install()
    monkeypatch.undo()
    after = _bindings()
    assert not [key for key, value in before.items() if after.get(key) is not value]


def _patch_then_fail(original):
    calls = []

    def patch(self, *args):
        calls.append(args)
        if len(calls) == 5:
            raise RuntimeError("injected")
        return original(self, *args)

    return patch


def test_traced_job_records_layers_and_path(tmp_path):
    tracer = tracing.Tracer(tmp_path)
    job = SimJob(benchmark="gobmk", mode=GatingMode.TIMEOUT, max_instructions=5_000,
                 seed=3, backend="vectorized")
    untraced = engine.execute_job(job)
    with tracer.installed():
        traced = engine.execute_job(job)
    assert workloads.digest_record(traced) == workloads.digest_record(untraced)
    spans = tracer.spans
    names = {span["name"] for span in spans}
    assert {"engine.execute", "workloads.build", "simulator.init", "simulator.run",
            "backends.fastpath", "power.finalize"} <= names
    assert all(span["attrs"].get("job") == traced.job_key for span in tracing.annotate(spans))
    assert tracing.paths(spans) == {"vectorized->fastpath (timeout)": 1}
    layers = tracing.layer_metrics(spans, 0.0)
    assert layers["backends.delegated.timeout"] == 1
    assert layers["backends.fastpath.runs"] == 1
    assert layers["backends.fastpath.minstr"] == traced.result.instructions / 1e6


# ------------------------------------------------------ metric contract


def test_metric_names_units_and_caps(spec):
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    names = end_to_end + per_layer + [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(per_layer) <= 128
    assert 2 <= len(spec["workloads"]) <= 8
    assert all(UNIT.fullmatch(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_per_layer_metrics_match_the_ledger(spec):
    layers = tracing.layer_metrics([], 0.0)
    assert list(layers) == [m["name"] for m in spec["per_layer"]]
    assert all(bench_run.unit_of(m["name"]) == m["unit"] for m in spec["per_layer"])


def test_run_fails_without_the_program(tmp_path, spec):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        spec["command"] + ["--workload", "sim", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
