"""Golden-trace regression tests.

Each pinned (profile, seed, config) triple must reproduce its checked-in
decision-event sequence exactly.  A failure here means PowerChop's gating
behaviour changed: if that was intentional, regenerate the fixtures with
``python scripts/update_goldens.py`` and review the diff; if not, it's a
regression.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.obs.goldens import GOLDEN_SPECS, capture_golden, diff_goldens

GOLDEN_DIR = Path(__file__).parent / "goldens"


def _load(name):
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())


@pytest.fixture(scope="module")
def captures():
    """Capture every golden spec once per test module."""
    return {spec.name: capture_golden(spec) for spec in GOLDEN_SPECS}


def test_fixture_files_match_specs():
    on_disk = {path.stem for path in GOLDEN_DIR.glob("*.json")}
    assert on_disk == {spec.name for spec in GOLDEN_SPECS}


@pytest.mark.parametrize("spec", GOLDEN_SPECS, ids=lambda spec: spec.name)
def test_replay_matches_fixture(spec, captures):
    expected = _load(spec.name)
    problems = diff_goldens(expected, captures[spec.name])
    assert not problems, "golden trace diverged:\n" + "\n".join(problems)


@pytest.mark.parametrize("spec", GOLDEN_SPECS, ids=lambda spec: spec.name)
def test_fixtures_are_nonempty(spec):
    # A golden with no events locks down nothing; specs are chosen for
    # decision density (policy decisions AND gate/regate activity).
    events = _load(spec.name)["events"]
    assert len(events) >= 10
    kinds = {event["kind"] for event in events}
    assert "policy_decision" in kinds
    assert "unit_gate" in kinds


def test_capture_is_deterministic(captures):
    spec = GOLDEN_SPECS[0]
    again = capture_golden(spec)
    assert again == captures[spec.name]


class TestDiff:
    def test_identical_traces_have_no_problems(self, captures):
        fixture = captures[GOLDEN_SPECS[0].name]
        assert diff_goldens(fixture, copy.deepcopy(fixture)) == []

    def test_reports_first_divergent_event(self, captures):
        expected = captures[GOLDEN_SPECS[0].name]
        tampered = copy.deepcopy(expected)
        tampered["events"][0]["payload"]["source"] = "tampered"
        problems = diff_goldens(expected, tampered)
        assert any("event 0 diverges" in line for line in problems)

    def test_reports_length_mismatch(self, captures):
        expected = captures[GOLDEN_SPECS[0].name]
        truncated = copy.deepcopy(expected)
        truncated["events"].pop()
        problems = diff_goldens(expected, truncated)
        assert any("event count" in line for line in problems)

    def test_reports_schema_mismatch(self, captures):
        expected = captures[GOLDEN_SPECS[0].name]
        stale = copy.deepcopy(expected)
        stale["schema"] = 0
        assert any("schema" in line for line in diff_goldens(stale, expected))

    def test_reports_result_semantics_mismatch(self, captures):
        expected = captures[GOLDEN_SPECS[0].name]
        stale = copy.deepcopy(expected)
        stale["result_semantics"] -= 1
        problems = diff_goldens(stale, expected)
        assert any("result_semantics" in line for line in problems)
