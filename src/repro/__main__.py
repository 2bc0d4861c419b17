"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``list``        — list the 29 benchmark profiles and their suites.
- ``run``         — simulate one benchmark under one gating mode.
- ``compare``     — full-power vs PowerChop vs minimal on one benchmark.
- ``sweep``       — run a benchmark x mode batch through the fabric scheduler.
- ``designs``     — print the two Table I design points.
- ``staticcheck`` — static-analysis report (CFG verification + dataflow
  summaries) over workload profiles; exits non-zero on errors (or, with
  ``--strict``, warnings).
- ``trace``       — run one benchmark with full observability and write a
  Chrome ``trace_event`` JSON (load it at https://ui.perfetto.dev), plus
  an optional per-unit gating timeline (``--timeline``).
- ``fabric``      — the fault-tolerant job service (``repro.sim.fabric``):
  ``submit`` runs a batch with retries/timeouts/crash isolation and
  streams per-job status, ``status`` reports result-cache occupancy, and
  ``gc`` evicts least-recently-used cache entries down to a size budget.

``run``, ``compare`` and ``sweep`` accept ``--json`` for machine-readable
output.  ``sweep`` and ``fabric submit`` build the same batch and run it on
:class:`repro.sim.fabric.FabricScheduler`: ``--jobs N`` (default:
``REPRO_JOBS``) fans it across a process pool, results are cached on disk
(see ``REPRO_CACHE_DIR``), and a job that raises is retried before it is
reported failed.  Out-of-range numbers are usage errors (exit 2).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis.report import format_table
from repro.sim.backends import DEFAULT_BACKEND, available_backends
from repro.sim.engine import SimJob, default_workers
from repro.sim.results import (
    energy_reduction,
    leakage_reduction,
    power_reduction,
    slowdown,
)
from repro.sim.simulator import GatingMode, run_simulation
from repro.uarch.config import design_by_name, design_for_suite
from repro.workloads.suites import ALL_BENCHMARKS, get_profile

#: Version of the ``staticcheck --json`` payload shape.  Bump when keys
#: move or change meaning; additive keys don't require a bump, and
#: consumers should pin on this rather than sniffing keys.
STATICCHECK_JSON_SCHEMA = 1


def _bounded(kind, low, strict=False):
    """An argparse ``type`` reading ``kind`` values ``>= low`` (``> low`` if strict).

    A value out of range (NaN included) is a usage error, exit 2.
    """

    def parse(text):
        value = kind(text)
        if not (value > low if strict else value >= low):
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {low}, got {text}"
            )
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its errors
    return parse


_positive_int = _bounded(int, 1)


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("benchmark", help="benchmark name (see `list`)")
    parser.add_argument(
        "-n",
        "--instructions",
        type=_positive_int,
        default=2_000_000,
        help="guest instructions to simulate (default 2M)",
    )
    parser.add_argument(
        "-d",
        "--design",
        default="",
        help="design point: server | mobile (default: paper pairing)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of the human summary",
    )
    parser.add_argument(
        "--backend",
        default=None,
        choices=available_backends(),
        help=f"execution backend (default: {DEFAULT_BACKEND}); all backends "
        "are bit-identical, this only changes simulation speed",
    )


def _add_batch_args(parser: argparse.ArgumentParser) -> None:
    """The batch flags ``sweep`` and ``fabric submit`` share (see :func:`_batch_jobs`)."""
    parser.add_argument(
        "benchmarks",
        nargs="*",
        help="benchmark names (default: all 29 profiles)",
    )
    parser.add_argument(
        "-m",
        "--modes",
        default="full,powerchop",
        help="comma-separated gating modes (default: full,powerchop)",
    )
    parser.add_argument(
        "-n",
        "--instructions",
        type=_positive_int,
        default=2_000_000,
        help="guest instructions per job (default 2M)",
    )
    parser.add_argument(
        "-d",
        "--design",
        default="",
        help="design point: server | mobile (default: paper pairing)",
    )
    parser.add_argument(
        "-j",
        "--jobs",
        type=_positive_int,
        default=None,
        help="process-pool workers (default: REPRO_JOBS, else 1)",
    )
    parser.add_argument(
        "--backend",
        default=None,
        choices=available_backends(),
        help=f"execution backend for every job (default: {DEFAULT_BACKEND}); "
        "results and cache keys are backend-independent",
    )


def _resolve_design(args):
    profile = get_profile(args.benchmark)
    if args.design:
        return profile, design_by_name(args.design)
    return profile, design_for_suite(profile.suite)


def cmd_list(_args) -> int:
    rows = [
        (p.name, p.suite, len(p.phases), p.description[:60])
        for p in ALL_BENCHMARKS
    ]
    print(format_table(("benchmark", "suite", "phases", "description"), rows))
    return 0


def cmd_run(args) -> int:
    profile, design = _resolve_design(args)
    mode = GatingMode(args.mode)
    result = run_simulation(
        design, profile, mode, max_instructions=args.instructions,
        backend=args.backend,
    )
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return 0
    energy = result.energy
    print(f"{profile.name} on {design.name} [{mode.value}]")
    print(f"  instructions : {result.instructions:,}")
    print(f"  cycles       : {result.cycles:,.0f}  (IPC {result.ipc:.3f})")
    print(f"  power        : {energy.avg_power_w:.3f} W "
          f"(leakage {energy.avg_leakage_w:.3f} W)")
    print(f"  mispredicts  : {result.mispredict_rate:.2%} of branches")
    print(f"  vpu gated    : {energy.vpu_gated_frac:.1%} of cycles")
    print(f"  bpu gated    : {energy.bpu_gated_frac:.1%} of cycles")
    print(f"  mlc ways     : {dict(sorted(energy.mlc_way_residency.items()))}")
    if mode is GatingMode.POWERCHOP:
        print(f"  phases       : {result.new_phases} characterised; "
              f"PVT {result.pvt_hits}/{result.pvt_lookups} hits")
    return 0


def cmd_compare(args) -> int:
    profile, design = _resolve_design(args)
    results = {}
    for mode in (GatingMode.FULL, GatingMode.POWERCHOP, GatingMode.MINIMAL):
        results[mode] = run_simulation(
            design, profile, mode, max_instructions=args.instructions,
            backend=args.backend,
        )
    full = results[GatingMode.FULL]
    if args.json:
        payload = {
            "benchmark": profile.name,
            "design": design.name,
            "instructions": args.instructions,
            "results": {m.value: r.to_dict() for m, r in results.items()},
            "comparison": {
                m.value: {
                    "slowdown": slowdown(full, r),
                    "power_reduction": power_reduction(full, r),
                    "leakage_reduction": leakage_reduction(full, r),
                    "energy_reduction": energy_reduction(full, r),
                }
                for m, r in results.items()
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    rows = []
    for mode, result in results.items():
        rows.append(
            (
                mode.value,
                f"{result.ipc:.3f}",
                f"{slowdown(full, result):+.2%}",
                f"{result.energy.avg_power_w:.3f}",
                f"{power_reduction(full, result):.2%}",
                f"{leakage_reduction(full, result):.2%}",
                f"{energy_reduction(full, result):.2%}",
            )
        )
    print(f"{profile.name} on {design.name} ({args.instructions:,} instructions)")
    print(
        format_table(
            ("mode", "ipc", "slowdown", "power_w", "power_red", "leak_red", "energy_red"),
            rows,
        )
    )
    return 0


def _batch_jobs(args, command: str):
    """The benchmark x mode batch that ``sweep`` and ``fabric submit`` run.

    Returns ``(names, modes, jobs)``; ``command`` names the subcommand in
    the error for an empty ``--modes``.
    """
    modes = [GatingMode(mode.strip()) for mode in args.modes.split(",") if mode.strip()]
    if not modes:
        raise SystemExit(f"{command}: --modes must name at least one gating mode")
    names = args.benchmarks or [p.name for p in ALL_BENCHMARKS]
    design = design_by_name(args.design) if args.design else None
    jobs = []
    for name in names:
        profile = get_profile(name)  # fail fast on unknown names
        job_design = design or design_for_suite(profile.suite)
        for mode in modes:
            jobs.append(
                SimJob(
                    benchmark=name,
                    design=job_design,
                    mode=mode,
                    max_instructions=args.instructions,
                    backend=args.backend,
                )
            )
    return names, modes, jobs


def cmd_sweep(args) -> int:
    from repro.sim.fabric import FabricScheduler

    names, modes, jobs = _batch_jobs(args, "sweep")
    records = FabricScheduler(workers=args.jobs).run(jobs)

    by_key = {(job.benchmark, job.mode): record for job, record in zip(jobs, records)}
    if args.json:
        payload = [
            {
                "job_key": record.job_key,
                "from_cache": record.from_cache,
                "result": record.result.to_dict() if record.ok else None,
                "error": record.error,
            }
            for record in records
        ]
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    rows = []
    for job, record in zip(jobs, records):
        if not record.ok:
            rows.append(
                (job.benchmark, job.mode.value, "-", "-", "-", "failed")
            )
            continue
        result = record.result
        full = by_key.get((job.benchmark, GatingMode.FULL))
        versus_full = (
            f"{slowdown(full.result, result):+.2%}/{power_reduction(full.result, result):.2%}"
            if full is not None and full.ok
            else "-"
        )
        rows.append(
            (
                job.benchmark,
                job.mode.value,
                f"{result.ipc:.3f}",
                f"{result.energy.avg_power_w:.3f}",
                versus_full,
                "hit" if record.from_cache else "run",
            )
        )
    failures = sum(1 for r in records if not r.ok)
    print(
        f"{len(jobs)} jobs ({len(names)} benchmarks x {len(modes)} modes), "
        f"{args.jobs or default_workers()} worker(s), "
        f"{sum(1 for r in records if r.from_cache)} cache hits"
        + (f", {failures} failed" if failures else "")
    )
    print(
        format_table(
            ("benchmark", "mode", "ipc", "power_w", "slowdown/power_red", "cache"),
            rows,
        )
    )
    return 1 if failures else 0


def cmd_designs(_args) -> int:
    from repro.experiments.table1_designs import run

    print(run().render())
    return 0


def cmd_fabric_submit(args) -> int:
    from repro.sim.fabric import FabricScheduler, JobStatus, RetryPolicy

    _names, _modes, jobs = _batch_jobs(args, "fabric submit")
    scheduler = FabricScheduler(
        workers=args.jobs,
        retry=RetryPolicy(max_attempts=args.retries, base_delay=args.backoff),
        job_timeout=args.timeout,
        shard_size=args.shard_size,
    )
    progress = (
        (lambda event: print(f"  {event.status.value:>7} {event.key[:12]}"
                             + (f" (attempt {event.attempt})" if event.attempt else "")))
        if args.progress
        else None
    )
    scheduler.on_event = progress
    records = scheduler.run(jobs)
    snapshot = scheduler.registry.snapshot()

    if args.json:
        payload = {
            "jobs": [
                {
                    "benchmark": job.benchmark,
                    "mode": job.mode.value,
                    "job_key": record.job_key,
                    "status": (
                        JobStatus.FAILED.value
                        if not record.ok
                        else (
                            JobStatus.CACHED.value
                            if record.from_cache
                            else JobStatus.DONE.value
                        )
                    ),
                    "from_cache": record.from_cache,
                    "error": record.error,
                    "result": record.result.to_dict() if record.ok else None,
                }
                for job, record in zip(jobs, records)
            ],
            "metrics": snapshot,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 1 if any(not r.ok for r in records) else 0

    rows = []
    for job, record in zip(jobs, records):
        if record.ok:
            status = "cached" if record.from_cache else "done"
            detail = f"ipc {record.result.ipc:.3f}"
        else:
            status, detail = "failed", record.error[:48]
        rows.append((job.benchmark, job.mode.value, status, detail))
    counters = snapshot["counters"]
    print(
        f"{len(jobs)} job(s): "
        f"{counters.get('fabric_jobs{status=done}', 0)} run, "
        f"{counters.get('fabric_jobs{status=cached}', 0)} cached, "
        f"{counters.get('fabric_jobs{status=failed}', 0)} failed; "
        f"{counters.get('fabric_retries', 0)} retries, "
        f"{counters.get('fabric_timeouts', 0)} timeouts, "
        f"{counters.get('fabric_pool_restarts', 0)} pool restarts"
    )
    print(format_table(("benchmark", "mode", "status", "detail"), rows))
    return 1 if any(not r.ok for r in records) else 0


def cmd_fabric_status(args) -> int:
    from repro.sim.fabric import cache_stats

    stats = cache_stats()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    budget = stats["budget_bytes"]
    print(f"result cache at {stats['root']}")
    print(f"  enabled : {stats['enabled']}")
    print(f"  entries : {stats['entries']}")
    print(f"  bytes   : {stats['bytes']:,}")
    print(f"  budget  : {budget:,}" if budget else "  budget  : unbounded")
    if stats["over_budget"]:
        print("  WARNING : over budget — run `python -m repro fabric gc`")
    return 0


def cmd_fabric_gc(args) -> int:
    from repro.sim.engine import ResultCache
    from repro.sim.fabric import gc_cache

    cache = ResultCache()
    if args.clear:
        removed = cache.clear()
        report = {"evicted": removed, "entries": 0, "bytes": 0,
                  "budget_bytes": cache.budget_bytes}
    else:
        report = gc_cache(cache, budget_bytes=args.budget)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(
        f"evicted {report['evicted']} entr{'y' if report['evicted'] == 1 else 'ies'}; "
        f"{report['entries']} left ({report['bytes']:,} bytes, "
        f"budget {report['budget_bytes']:,} bytes)"
    )
    return 0


def cmd_staticcheck(args) -> int:
    from repro.staticcheck import Severity, analyze_profile

    names = args.workload or [p.name for p in ALL_BENCHMARKS]
    analyses = [analyze_profile(get_profile(name)) for name in names]
    n_errors = sum(a.n_errors for a in analyses)
    n_warnings = sum(a.n_warnings for a in analyses)
    failed = n_errors > 0 or (args.strict and n_warnings > 0)

    if args.json:
        payload = {
            "schema_version": STATICCHECK_JSON_SCHEMA,
            "profiles": [a.to_dict() for a in analyses],
            "errors": n_errors,
            "warnings": n_warnings,
            "ok": not failed,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 1 if failed else 0

    for analysis in analyses:
        print(analysis.render(verbose=args.verbose))
    vpu_dead = sum(len(a.vpu_dead_regions) for a in analyses)
    regions = sum(len(a.regions) for a in analyses)
    infos = sum(a.count(Severity.INFO) for a in analyses)
    print(
        f"{len(analyses)} profile(s), {regions} region(s): "
        f"{n_errors} error(s), {n_warnings} warning(s), {infos} note(s); "
        f"{vpu_dead} region(s) statically VPU-dead"
    )
    return 1 if failed else 0


def cmd_trace(args) -> int:
    from repro.obs.export import chrome_trace, gating_intervals, render_timeline
    from repro.sim.simulator import HybridSimulator
    from repro.workloads.profiles import build_workload

    profile, design = _resolve_design(args)
    mode = GatingMode(args.mode)
    simulator = HybridSimulator(
        design,
        build_workload(profile, args.seed),
        mode=mode,
        obs_level="full",
    )
    result = simulator.run(args.instructions)
    tracer = simulator.tracer

    trace = chrome_trace(
        tracer.events(),
        frequency_hz=design.frequency_hz,
        end_cycles=simulator.cycles,
        mlc_full_ways=design.mlc_assoc,
        benchmark=profile.name,
        design=design.name,
        dropped=tracer.dropped,
    )
    with open(args.out, "w") as handle:
        json.dump(trace, handle)

    if args.timeline:
        intervals = gating_intervals(tracer.events(), simulator.cycles)
        fmt = "csv" if args.timeline.endswith(".csv") else "text"
        rendered = render_timeline(intervals, fmt=fmt)
        if args.timeline == "-":
            print(rendered)
        else:
            with open(args.timeline, "w") as handle:
                handle.write(rendered)
                if not rendered.endswith("\n"):
                    handle.write("\n")

    print(
        f"{profile.name} on {design.name} [{mode.value}]: "
        f"{tracer.emitted:,} events ({tracer.dropped:,} dropped), "
        f"{len(trace['traceEvents']):,} trace records -> {args.out}"
    )
    print(f"  instructions : {result.instructions:,}")
    print(f"  cycles       : {result.cycles:,.0f}  (IPC {result.ipc:.3f})")
    print("  load the trace at https://ui.perfetto.dev or chrome://tracing")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="PowerChop (ISCA 2016) reproduction"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmark profiles").set_defaults(
        func=cmd_list
    )

    run_parser = sub.add_parser("run", help="run one simulation")
    _add_run_args(run_parser)
    run_parser.add_argument(
        "-m",
        "--mode",
        choices=[m.value for m in GatingMode],
        default="powerchop",
    )
    run_parser.set_defaults(func=cmd_run)

    compare_parser = sub.add_parser(
        "compare", help="full vs powerchop vs minimal"
    )
    _add_run_args(compare_parser)
    compare_parser.set_defaults(func=cmd_compare)

    sweep_parser = sub.add_parser(
        "sweep", help="run a benchmark x mode batch through the engine"
    )
    _add_batch_args(sweep_parser)
    sweep_parser.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of the summary table",
    )
    sweep_parser.set_defaults(func=cmd_sweep)

    fabric_parser = sub.add_parser(
        "fabric",
        help="fault-tolerant job service: submit batches, inspect / gc the cache",
    )
    fabric_sub = fabric_parser.add_subparsers(dest="fabric_command", required=True)

    submit_parser = fabric_sub.add_parser(
        "submit", help="run a benchmark x mode batch with retries and timeouts"
    )
    _add_batch_args(submit_parser)
    submit_parser.add_argument(
        "--retries",
        type=_positive_int,
        default=3,
        help="max attempts per job including the first (default 3)",
    )
    submit_parser.add_argument(
        "--backoff",
        type=_bounded(float, 0),
        default=0.05,
        help="base retry backoff in seconds, doubled per attempt (default 0.05)",
    )
    submit_parser.add_argument(
        "--timeout",
        type=_bounded(float, 0, strict=True),
        default=None,
        help="per-job wall-clock timeout in seconds (default: none)",
    )
    submit_parser.add_argument(
        "--shard-size",
        type=_positive_int,
        default=32,
        help="jobs dispatched concurrently per shard (default 32; 1 "
        "fully serialises dispatch)",
    )
    submit_parser.add_argument(
        "--progress",
        action="store_true",
        help="stream per-job status transitions as they happen",
    )
    submit_parser.add_argument(
        "--json",
        action="store_true",
        help="emit per-job records plus the fabric metrics snapshot",
    )
    submit_parser.set_defaults(func=cmd_fabric_submit)

    status_parser = fabric_sub.add_parser(
        "status", help="result-cache occupancy, budget and counters"
    )
    status_parser.add_argument("--json", action="store_true")
    status_parser.set_defaults(func=cmd_fabric_status)

    gc_parser = fabric_sub.add_parser(
        "gc", help="evict least-recently-used cache entries to a size budget"
    )
    gc_parser.add_argument(
        "--budget",
        type=_bounded(int, 0),
        default=None,
        help="target size in bytes (default: REPRO_CACHE_BUDGET)",
    )
    gc_parser.add_argument(
        "--clear",
        action="store_true",
        help="delete every cache entry instead of evicting to budget",
    )
    gc_parser.add_argument("--json", action="store_true")
    gc_parser.set_defaults(func=cmd_fabric_gc)

    sub.add_parser("designs", help="print Table I design points").set_defaults(
        func=cmd_designs
    )

    static_parser = sub.add_parser(
        "staticcheck",
        help="CFG verification + static dataflow report over workload profiles",
    )
    static_parser.add_argument(
        "-w",
        "--workload",
        action="append",
        default=None,
        metavar="NAME",
        help="benchmark profile to analyze (repeatable; default: all 29)",
    )
    static_parser.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings as errors (non-zero exit)",
    )
    static_parser.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="include per-region dataflow summaries and informational notes",
    )
    static_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the full machine-readable report",
    )
    static_parser.set_defaults(func=cmd_staticcheck)

    trace_parser = sub.add_parser(
        "trace", help="export a Chrome trace_event JSON of one run"
    )
    trace_parser.add_argument("benchmark", help="benchmark name (see `list`)")
    trace_parser.add_argument(
        "-n",
        "--instructions",
        type=_positive_int,
        default=2_000_000,
        help="guest instructions to simulate (default 2M)",
    )
    trace_parser.add_argument(
        "-m",
        "--mode",
        choices=[m.value for m in GatingMode],
        default="powerchop",
    )
    trace_parser.add_argument(
        "-d",
        "--design",
        default="",
        help="design point: server | mobile (default: paper pairing)",
    )
    trace_parser.add_argument(
        "-s",
        "--seed",
        type=int,
        default=None,
        help="workload generation seed (default: profile default)",
    )
    trace_parser.add_argument(
        "--out",
        default="trace.json",
        help="Chrome trace output path (default trace.json)",
    )
    trace_parser.add_argument(
        "--timeline",
        default="",
        metavar="PATH",
        help="also write the per-unit gating timeline "
        "(CSV if PATH ends in .csv, else text; '-' prints to stdout)",
    )
    trace_parser.set_defaults(func=cmd_trace)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
