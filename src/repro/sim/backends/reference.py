"""The reference execution backend: the correctness oracle.

This is the original :meth:`HybridSimulator.run` loop body, moved behind
the :class:`~repro.sim.backends.SimBackend` protocol.  Every block is
materialised as a :class:`BlockExec` and walked through the public
component methods — no inlining, no batching, no memoization — so this
loop *defines* the simulator's semantics.  The ``fastpath`` and
``vectorized`` backends are proven bit-identical against it by
``tests/test_backends.py``.

One loop body serves every run.  It keeps the tracer clock current on
every block (only emit sites guarded by ``tracer.active`` read it) and
calls each probe's ``on_block`` when probes are attached.  This is the
only backend that supports probes; the others delegate probe-carrying
runs here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.bt.runtime import ExecMode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.simulator import HybridSimulator


class ReferenceBackend:
    """The reference loop (see module docstring)."""

    name = "reference"
    needs_replay_state = False

    def run(
        self,
        simulator: "HybridSimulator",
        max_instructions: int,
        probes: Sequence = (),
    ) -> float:
        core = simulator.core
        bt = simulator.bt
        controller = simulator.controller
        timeout_controller = simulator.timeout_controller
        tracer = simulator.tracer
        execute_block = core.execute_block
        on_block = bt.on_block
        interpreted = ExecMode.INTERPRETED
        cycles = 0.0

        for block_exec in simulator.workload.trace(max_instructions):
            # Keep the tracer clock current so components without a cycle
            # count in scope can still timestamp their events.
            tracer.now = cycles
            if timeout_controller is not None:
                cycles += timeout_controller.on_block(block_exec, cycles)
            exec_mode, bt_cycles, entered = on_block(block_exec.block)
            cycles += bt_cycles
            if entered is not None and controller is not None:
                cycles += controller.on_translation_entry(entered, cycles)
            cycles += execute_block(block_exec, exec_mode is interpreted)
            if probes:
                instructions = core.counters.instructions
                for probe in probes:
                    probe.on_block(block_exec, cycles, instructions)

        return cycles
