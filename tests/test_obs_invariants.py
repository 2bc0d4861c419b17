"""Trace/metrics invariants: properties every instrumented run must hold.

- VPU and BPU gate/regate events strictly alternate, and every event's
  ``from`` state equals the previous event's ``to`` (chain consistency);
  the MLC has more than two states, so it gets chain consistency only.
- A gated VPU interval executes zero native vector operations, and the
  energy accountant charges the VPU zero dynamic energy for it (dynamic
  VPU energy is exactly ``native_ops x op_energy``).
- Metrics-registry totals agree with the event stream.
- The ``include_trailing_window`` flush rule keeps a trailing partial
  window iff it covers at least half a sample.
"""

from collections import defaultdict

import pytest

from repro.obs.events import EventKind
from repro.sim.probes import include_trailing_window
from repro.sim.simulator import GatingMode, HybridSimulator
from repro.uarch.config import SERVER
from repro.workloads.profiles import build_workload


@pytest.fixture(scope="module")
def traced():
    """One fully-traced POWERCHOP run shared by the invariant checks."""
    from repro.core.config import PowerChopConfig
    from repro.workloads.suites import get_profile

    simulator = HybridSimulator(
        SERVER,
        build_workload(get_profile("bzip2"), 7),
        GatingMode.POWERCHOP,
        powerchop_config=PowerChopConfig(window_size=100, warmup_windows=1),
        obs_level="full",
    )
    result = simulator.run(300_000)
    return simulator, result


def _unit_events(simulator, unit):
    return [
        event
        for event in simulator.tracer.events()
        if event.kind in (EventKind.UNIT_GATE, EventKind.UNIT_REGATE)
        and event.payload["unit"] == unit
    ]


class TestGateRegateAlternation:
    @pytest.mark.parametrize("unit", ["vpu", "bpu"])
    def test_strict_alternation(self, traced, unit):
        simulator, _result = traced
        events = _unit_events(simulator, unit)
        # Units start powered on, so the first transition must be a gate.
        expected = EventKind.UNIT_GATE
        for event in events:
            assert event.kind is expected, f"{unit}: consecutive {event.kind}"
            expected = (
                EventKind.UNIT_REGATE
                if event.kind is EventKind.UNIT_GATE
                else EventKind.UNIT_GATE
            )

    @pytest.mark.parametrize("unit", ["vpu", "bpu", "mlc"])
    def test_chain_consistency(self, traced, unit):
        simulator, _result = traced
        previous_to = 8 if unit == "mlc" else 1  # initial full-power state
        for event in _unit_events(simulator, unit):
            assert event.payload["from"] == previous_to
            assert event.payload["from"] != event.payload["to"]
            previous_to = event.payload["to"]

    def test_mlc_direction_matches_kind(self, traced):
        simulator, _result = traced
        for event in _unit_events(simulator, "mlc"):
            if event.kind is EventKind.UNIT_GATE:
                assert event.payload["to"] < event.payload["from"]
            else:
                assert event.payload["to"] > event.payload["from"]

    def test_final_event_state_matches_core(self, traced):
        simulator, _result = traced
        states = simulator.core.states
        finals = {"vpu": int(states.vpu_on), "bpu": int(states.bpu_large_on),
                  "mlc": states.mlc_ways}
        for unit, expected in finals.items():
            events = _unit_events(simulator, unit)
            if events:
                assert events[-1].payload["to"] == expected


class TestGatedIntervalsAreIdle:
    def test_vpu_gated_intervals_run_zero_native_ops(self, traced):
        """The events prove it: native_ops is flat across gated spans."""
        simulator, _result = traced
        events = _unit_events(simulator, "vpu")
        assert events, "run produced no VPU gating to check"
        gated_at = None
        for event in events:
            if event.kind is EventKind.UNIT_GATE:
                gated_at = event.payload["native_ops"]
            elif gated_at is not None:
                assert event.payload["native_ops"] == gated_at, (
                    "native vector ops executed while the VPU was gated"
                )
                gated_at = None
        if gated_at is not None:  # run ended gated
            assert simulator.core.vpu.native_ops == gated_at

    def test_accounting_charges_vpu_dynamic_only_for_native_ops(self, traced):
        """unit_dynamic_j[vpu] == native_ops x op energy — so gated
        intervals (zero native-op delta) carry zero dynamic energy."""
        from repro.power.mcpat import CorePowerModel

        simulator, result = traced
        expected = (
            simulator.core.vpu.native_ops
            * CorePowerModel(simulator.design).vpu_op_energy_j()
        )
        assert result.energy.unit_dynamic_j["vpu"] == pytest.approx(expected)


class TestMetricsAgreeWithEvents:
    def test_switch_counts_match_gate_events(self, traced):
        simulator, result = traced
        by_unit = defaultdict(int)
        for event in simulator.tracer.events():
            if event.kind in (EventKind.UNIT_GATE, EventKind.UNIT_REGATE):
                by_unit[event.payload["unit"]] += 1
        # The ring did not wrap in this short run, so the event stream is
        # complete and must tally with the accountant's switch counts.
        assert simulator.tracer.dropped == 0
        for unit, count in by_unit.items():
            assert result.switch_counts[unit] == count

    def test_emitted_counter_matches_buffer(self, traced):
        simulator, result = traced
        tracer = simulator.tracer
        assert tracer.emitted == len(tracer) + tracer.dropped
        counters = result.metrics["counters"]
        assert counters["obs_events_emitted"] == tracer.emitted
        assert counters["obs_events_dropped"] == tracer.dropped


class TestWindowAgreement:
    def test_flush_rule(self):
        assert not include_trailing_window(0, 100)
        assert not include_trailing_window(49, 100)
        assert include_trailing_window(50, 100)  # exactly half: included
        assert include_trailing_window(99, 100)
        assert not include_trailing_window(-5, 100)
