#!/usr/bin/env python3
"""Developer utility: profile the simulator's hot loop.

Prints simulation throughput (guest instructions per second) per gating
mode and, with ``--cprofile``, the top functions by cumulative time.  Used
to keep the full 29-app benchmark suite within its time budget.

Usage:
    python scripts/profile_simulator.py [benchmark] [instructions]
        [--cprofile] [--json] [--backend NAME] [--breakdown]

``--json`` emits ``{"mode": instr_per_second, ...}`` on stdout (for
scripts/bench_throughput.py and the CI perf-smoke job); ``--backend``
selects the execution backend (reference / fastpath / vectorized; default
``repro.sim.backends.DEFAULT_BACKEND``).

``--breakdown`` runs one extra POWERCHOP simulation and reports where its
wall-clock went: pass A (the recording walk, which also resolves the
branches), pass B (the array flush kernels), and scalar (window-boundary
blocks executed out of line), plus how many bursts pass B flushed and
their mean length in blocks (``bursts``, ``blocks_per_burst``).  It
needs a backend that keeps those timers (``needs_replay_state``):
``--breakdown`` with ``--backend reference`` exits with status 2 before
measuring anything.  With
``--json`` the output becomes ``{"rates": ..., "breakdown": ...}`` — the
flat shape is kept whenever ``--breakdown`` is absent, so existing
consumers are unaffected.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import time

from repro.sim.backends import DEFAULT_BACKEND, available_backends, get_backend
from repro.sim.simulator import GatingMode, HybridSimulator
from repro.uarch.config import design_for_suite
from repro.workloads.profiles import build_workload
from repro.workloads.suites import get_profile


def throughput(
    benchmark: str, budget: int, mode: GatingMode, backend: str = DEFAULT_BACKEND
) -> float:
    profile = get_profile(benchmark)
    design = design_for_suite(profile.suite)
    workload = build_workload(profile)
    simulator = HybridSimulator(design, workload, mode, backend=backend)
    start = time.perf_counter()
    result = simulator.run(budget)
    elapsed = time.perf_counter() - start
    return result.instructions / elapsed


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("benchmark", nargs="?", default="gobmk")
    parser.add_argument("instructions", nargs="?", type=int, default=1_000_000)
    parser.add_argument(
        "--backend",
        default=DEFAULT_BACKEND,
        choices=available_backends(),
        help=f"execution backend to measure (default: {DEFAULT_BACKEND})",
    )
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--cprofile", action="store_true")
    parser.add_argument(
        "--breakdown",
        action="store_true",
        help="report the run loop's wall-clock split (pass A walk / "
        "pass B flushes / scalar boundary blocks) and its burst count "
        "from one POWERCHOP run",
    )
    args = parser.parse_args(argv)
    if args.breakdown and not get_backend(args.backend).needs_replay_state:
        parser.error(
            "--breakdown needs a backend with pass timers; "
            f"{args.backend!r} keeps none"
        )

    rates = {}
    for mode in (GatingMode.FULL, GatingMode.POWERCHOP, GatingMode.MINIMAL):
        rates[mode.value] = throughput(
            args.benchmark, args.instructions, mode, args.backend
        )

    breakdown = None
    if args.breakdown:
        profile = get_profile(args.benchmark)
        design = design_for_suite(profile.suite)
        workload = build_workload(profile)
        simulator = HybridSimulator(
            design, workload, GatingMode.POWERCHOP, backend=args.backend
        )
        simulator.run(args.instructions)
        fs = simulator.fastpath_state
        total = fs.pass_a_seconds + fs.pass_b_seconds + fs.scalar_seconds
        bursts = fs.bursts_recorded
        breakdown = {
            "pass_a_seconds": round(fs.pass_a_seconds, 4),
            "pass_b_seconds": round(fs.pass_b_seconds, 4),
            "scalar_seconds": round(fs.scalar_seconds, 4),
            "pass_a_share": round(fs.pass_a_seconds / total, 3) if total else 0.0,
            "pass_b_share": round(fs.pass_b_seconds / total, 3) if total else 0.0,
            "scalar_share": round(fs.scalar_seconds / total, 3) if total else 0.0,
            "bursts": bursts,
            "blocks_per_burst": (
                round(fs.blocks_vectorized / bursts, 1) if bursts else 0.0
            ),
        }

    if args.json:
        if breakdown is not None:
            print(json.dumps({"rates": rates, "breakdown": breakdown}))
        else:
            print(json.dumps(rates))
    else:
        for mode_name, rate in rates.items():
            print(f"{mode_name:10s} {rate / 1e6:6.2f} M guest-instructions/s")
        if breakdown is not None:
            print("run-loop breakdown (POWERCHOP):")
            for part in ("pass_a", "pass_b", "scalar"):
                print(
                    f"  {part:8s} {breakdown[part + '_seconds']:8.4f}s "
                    f"({breakdown[part + '_share']:5.1%})"
                )
            print(
                f"  {breakdown['bursts']} bursts flushed, "
                f"{breakdown['blocks_per_burst']:.1f} blocks per burst"
            )

    if args.cprofile:
        profile = get_profile(args.benchmark)
        design = design_for_suite(profile.suite)
        workload = build_workload(profile)
        simulator = HybridSimulator(
            design, workload, GatingMode.POWERCHOP, backend=args.backend
        )
        profiler = cProfile.Profile()
        profiler.enable()
        simulator.run(args.instructions)
        profiler.disable()
        pstats.Stats(profiler).sort_stats("cumulative").print_stats(20)


if __name__ == "__main__":
    main()
