"""Static analysis over the synthetic ISA: CFG verification, dataflow
summaries, and the static criticality pre-pass that feeds the CDE.

Three layered passes (see DESIGN.md §"Static analysis"):

1. :func:`verify_region` — structural CFG invariants of a
   :class:`~repro.isa.blocks.CodeRegion` (successor ranges, reachability,
   branch/mix consistency, PC layout);
2. :func:`summarize_region` — fixpoint dataflow producing per-region static
   unit-usage summaries (:class:`RegionSummary`);
3. :func:`build_hints` — packages the proofs runtime cares about into a
   :class:`StaticHints` structure the CDE consults when
   ``PowerChopConfig.use_static_hints`` is set.

``python -m repro staticcheck`` runs passes 1-2 over any workload profile
and reports diagnostics with severity levels.
"""

from repro.staticcheck.analyzer import (
    ProfileAnalysis,
    RegionAnalysis,
    analyze_profile,
    analyze_region,
    analyze_workload,
)
from repro.staticcheck.cfg import reachable_blocks, verify_region
from repro.staticcheck.dataflow import (
    RegionSummary,
    branch_entropy_bits,
    static_taken_probability,
    summarize_region,
)
from repro.staticcheck.diagnostics import Diagnostic, Severity
from repro.staticcheck.hints import StaticHints, build_hints

__all__ = [
    "Diagnostic",
    "Severity",
    "verify_region",
    "reachable_blocks",
    "RegionSummary",
    "summarize_region",
    "static_taken_probability",
    "branch_entropy_bits",
    "StaticHints",
    "build_hints",
    "RegionAnalysis",
    "ProfileAnalysis",
    "analyze_region",
    "analyze_workload",
    "analyze_profile",
]
