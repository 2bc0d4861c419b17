"""PowerChop reproduction (ISCA 2016).

A from-scratch Python implementation of "PowerChop: Identifying and
Managing Non-critical Units in Hybrid Processor Architectures" — the
PowerChop mechanism (HTB + PVT + CDE), the hybrid-processor substrate it
runs on (binary translation layer, branch predictors, gateable cache
hierarchy, VPU, power models), 29 synthetic SPEC/PARSEC/MobileBench-class
workloads, and a benchmark harness regenerating every table and figure in
the paper's evaluation.

Quick start::

    from repro import (
        SERVER, GatingMode, get_profile, run_simulation, slowdown,
    )

    full = run_simulation(SERVER, get_profile("gobmk"), GatingMode.FULL,
                          max_instructions=200_000)
    chopped = run_simulation(SERVER, get_profile("gobmk"),
                             GatingMode.POWERCHOP,
                             max_instructions=200_000)
    print(f"slowdown: {slowdown(full, chopped):.1%}, "
          f"power saved: {1 - chopped.energy.avg_power_w / full.energy.avg_power_w:.1%}")
"""

from repro.core import (
    CriticalityThresholds,
    PolicyVector,
    PowerChopConfig,
)
from repro.sim import (
    GatingMode,
    HybridSimulator,
    IPCSeriesProbe,
    JobRecord,
    ResultCache,
    SimJob,
    SimulationResult,
    energy_reduction,
    leakage_reduction,
    power_reduction,
    run_job,
    run_simulation,
    slowdown,
)
from repro.staticcheck import StaticHints, analyze_profile, build_hints
from repro.uarch import MOBILE, SERVER, DesignPoint, design_by_name
from repro.uarch.config import design_for_suite
from repro.workloads import (
    ALL_BENCHMARKS,
    SUITES,
    BenchmarkProfile,
    build_workload,
    get_profile,
    mobile_benchmarks,
    server_benchmarks,
)

__version__ = "1.0.0"

__all__ = [
    "PowerChopConfig",
    "CriticalityThresholds",
    "PolicyVector",
    "GatingMode",
    "HybridSimulator",
    "run_simulation",
    "SimulationResult",
    "SimJob",
    "JobRecord",
    "ResultCache",
    "run_job",
    "IPCSeriesProbe",
    "StaticHints",
    "build_hints",
    "analyze_profile",
    "slowdown",
    "power_reduction",
    "energy_reduction",
    "leakage_reduction",
    "DesignPoint",
    "SERVER",
    "MOBILE",
    "design_by_name",
    "design_for_suite",
    "BenchmarkProfile",
    "ALL_BENCHMARKS",
    "SUITES",
    "get_profile",
    "build_workload",
    "server_benchmarks",
    "mobile_benchmarks",
    "__version__",
]
