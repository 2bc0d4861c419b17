#!/usr/bin/env python3
"""Simulator throughput benchmark: measure, record, and gate regressions.

Measures M guest-instructions/s per execution backend per gating mode on a
pinned benchmark set (best of ``--repeats`` runs, to damp machine noise;
the repeats run in rounds over all cells, so a slow spell of the host
does not land on every repeat of one cell) and maintains
``BENCH_simloop.json`` at the repo root:

- ``--update``  append the measurement as the new ``current`` entry
  (the previous ``current`` is kept in ``history``);
- ``--check``   compare the fresh measurement against the committed
  ``current`` entry and exit non-zero when any backend/mode on any pinned
  profile regressed by more than ``--tolerance`` (default 30 %) — the CI
  perf-smoke gate.  Cells absent from the committed entry (a backend,
  profile or mode it did not measure) are skipped, so adding one never
  trips the gate retroactively.

``--backend`` may be given multiple times to measure several backends in
one invocation; rates are recorded per backend
(``rates[backend][profile][mode]``).  Entries written before the backend
registry existed (flat ``rates[profile][mode]``) are read as ``fastpath``
measurements.

``--speedup-floor PROFILE:RATIO`` (repeatable) additionally fails the run
unless the best-mode vectorized-over-fastpath ratio for PROFILE reaches
RATIO — both backends must be measured in the same invocation.  That
ratio, taken within one invocation, is recorded as
``vectorized_speedup_vs_fastpath``.  No ratio against earlier entries is
recorded: they were measured at other times, and on a host whose speed
drifts over time such a ratio reads as speed-ups and slow-downs of
unchanged code.  (Entries written before this rule keep their
``speedup_vs_previous`` field as history.)

Usage:
    python scripts/bench_throughput.py [--profiles gobmk bzip2]
        [--backend fastpath --backend vectorized]
        [--budget 1000000] [--repeats 3] [--update] [--check]
        [--tolerance 0.30] [--speedup-floor milc:1.5]
        [--output BENCH_simloop.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.sim.backends import DEFAULT_BACKEND, available_backends
from repro.sim.simulator import GatingMode, HybridSimulator
from repro.uarch.config import design_for_suite
from repro.workloads.profiles import build_workload
from repro.workloads.suites import get_profile

MODES = (GatingMode.FULL, GatingMode.POWERCHOP, GatingMode.MINIMAL, GatingMode.TIMEOUT)
DEFAULT_PROFILES = ("gobmk", "bzip2")
DEFAULT_BACKENDS = (DEFAULT_BACKEND,)


def measure_once(benchmark: str, budget: int, mode: GatingMode, backend: str) -> float:
    """One timed run; returns guest instructions per second."""
    profile = get_profile(benchmark)
    design = design_for_suite(profile.suite)
    workload = build_workload(profile)
    simulator = HybridSimulator(design, workload, mode, backend=backend)
    start = time.perf_counter()
    result = simulator.run(budget)
    elapsed = time.perf_counter() - start
    return result.instructions / elapsed


def measure(profiles, budget: int, repeats: int, backends) -> dict:
    """Best-of-N throughput (M instr/s): rates[backend][profile][mode].

    Each round measures every cell once, so a slow spell of the host lands
    on one repeat of several cells, which best-of-N absorbs, instead of on
    every repeat of one cell.
    """
    cells = [
        (backend, name, mode)
        for backend in backends
        for name in profiles
        for mode in MODES
    ]
    best: dict = {}
    for _ in range(repeats):
        for backend, name, mode in cells:
            rate = measure_once(name, budget, mode, backend)
            best[backend, name, mode] = max(best.get((backend, name, mode), 0.0), rate)
    rates: dict = {}
    for backend, name, mode in cells:
        rate = round(best[backend, name, mode] / 1e6, 3)
        rates.setdefault(backend, {}).setdefault(name, {})[mode.value] = rate
        print(
            f"{backend:10s} {name:14s} {mode.value:10s} "
            f"{rate:6.2f} M guest-instructions/s"
        )
    return rates


def normalize_rates(rates: dict) -> dict:
    """Accept both layouts: per-backend, or the flat pre-registry one."""
    if rates and all(key in available_backends() for key in rates):
        return rates
    return {"fastpath": rates}


def load_record(path: Path) -> dict:
    if path.exists():
        return json.loads(path.read_text())
    return {"history": []}


def check_regression(record: dict, rates: dict, tolerance: float) -> int:
    """Compare fresh rates to the committed ``current``; returns exit code."""
    committed = record.get("current")
    if not committed:
        print("no committed entry to compare against; skipping gate")
        return 0
    base_rates = normalize_rates(committed.get("rates", {}))
    floor = 1.0 - tolerance
    failures = []
    for backend, profiles in rates.items():
        base_profiles = base_rates.get(backend)
        if not base_profiles:
            print(f"no committed baseline for backend {backend!r}; skipping")
            continue
        for name, modes in profiles.items():
            base_modes = base_profiles.get(name)
            if not base_modes:
                continue
            for mode_name, rate in modes.items():
                base = base_modes.get(mode_name)
                if base and rate < base * floor:
                    failures.append(
                        f"{backend}/{name}/{mode_name}: {rate:.2f} M/s < "
                        f"{floor:.0%} of committed {base:.2f} M/s"
                    )
    if failures:
        print("throughput regression detected:")
        for line in failures:
            print("  " + line)
        return 1
    print(f"throughput within {tolerance:.0%} of the committed baseline")
    return 0


def check_speedup_floors(cross: dict, floors) -> int:
    """Gate: best-mode vectorized/fastpath ratio per profile; exit code."""
    failures = []
    for spec in floors:
        name, _, want = spec.partition(":")
        try:
            want_ratio = float(want)
        except ValueError:
            failures.append(f"bad --speedup-floor spec {spec!r} (PROFILE:RATIO)")
            continue
        ratios = cross.get(name)
        if not ratios:
            failures.append(
                f"{name}: no vectorized/fastpath ratio measured "
                "(run with --backend fastpath --backend vectorized)"
            )
            continue
        best = max(ratios.values())
        if best < want_ratio:
            failures.append(
                f"{name}: best vectorized speedup {best:.2f}x < floor "
                f"{want_ratio:.2f}x (per mode: {ratios})"
            )
        else:
            print(f"speedup floor ok: {name} {best:.2f}x >= {want_ratio:.2f}x")
    if failures:
        print("speedup floor violations:")
        for line in failures:
            print("  " + line)
        return 1
    return 0


def cross_backend_speedup(rates: dict) -> dict:
    """vectorized-over-fastpath ratio per profile per mode, when both ran."""
    fast = rates.get("fastpath", {})
    vec = rates.get("vectorized", {})
    speedup: dict = {}
    for name, modes in vec.items():
        base_modes = fast.get(name, {})
        ratios = {
            mode_name: round(rate / base_modes[mode_name], 2)
            for mode_name, rate in modes.items()
            if base_modes.get(mode_name)
        }
        if ratios:
            speedup[name] = ratios
    return speedup


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profiles", nargs="+", default=list(DEFAULT_PROFILES))
    parser.add_argument(
        "--backend",
        action="append",
        choices=available_backends(),
        default=None,
        help=f"execution backend to measure; repeatable (default: {DEFAULT_BACKEND})",
    )
    parser.add_argument("--budget", type=int, default=1_000_000)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--update", action="store_true")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--tolerance", type=float, default=0.30)
    parser.add_argument(
        "--speedup-floor",
        action="append",
        default=None,
        metavar="PROFILE:RATIO",
        help="fail unless the best-mode vectorized/fastpath ratio for "
        "PROFILE is at least RATIO; repeatable (CI perf-smoke gate)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_simloop.json",
    )
    parser.add_argument("--label", default="")
    args = parser.parse_args(argv)
    if args.budget < 1:
        parser.error(f"--budget must be at least 1 instruction, got {args.budget}")
    if args.repeats < 1:
        parser.error(f"--repeats must be at least 1, got {args.repeats}")
    if not 0.0 <= args.tolerance < 1.0:
        # 1 or more puts the --check floor at or below zero (the gate can
        # never fire); a negative value fails every check.
        parser.error(f"--tolerance must be in [0, 1), got {args.tolerance}")

    backends = args.backend or list(DEFAULT_BACKENDS)
    rates = measure(args.profiles, args.budget, args.repeats, backends)
    record = load_record(args.output)

    exit_code = 0
    if args.check:
        exit_code = check_regression(record, rates, args.tolerance)

    cross = cross_backend_speedup(rates)

    if args.update:
        previous = record.get("current")
        if previous:
            record.setdefault("history", []).append(previous)
        record["current"] = {
            "label": args.label or "bench_throughput run",
            "budget": args.budget,
            "repeats": args.repeats,
            "rates": rates,
        }
        if cross:
            record["current"]["vectorized_speedup_vs_fastpath"] = cross
        args.output.write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {args.output}")

    if args.speedup_floor:
        floor_code = check_speedup_floors(cross, args.speedup_floor)
        exit_code = exit_code or floor_code

    return exit_code


if __name__ == "__main__":
    sys.exit(main())
