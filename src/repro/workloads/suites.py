"""Benchmark suite registry: the paper's 29-application study set."""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.workloads import mobilebench, parsec, spec_fp, spec_int
from repro.workloads.profiles import BenchmarkProfile

SPEC_INT: Tuple[BenchmarkProfile, ...] = spec_int.PROFILES
SPEC_FP: Tuple[BenchmarkProfile, ...] = spec_fp.PROFILES
PARSEC: Tuple[BenchmarkProfile, ...] = parsec.PROFILES
MOBILEBENCH: Tuple[BenchmarkProfile, ...] = mobilebench.PROFILES

SUITES: Dict[str, Tuple[BenchmarkProfile, ...]] = {
    "SPEC-INT": SPEC_INT,
    "SPEC-FP": SPEC_FP,
    "PARSEC": PARSEC,
    "MobileBench": MOBILEBENCH,
}

ALL_BENCHMARKS: Tuple[BenchmarkProfile, ...] = (
    SPEC_INT + SPEC_FP + PARSEC + MOBILEBENCH
)

_BY_NAME: Dict[str, BenchmarkProfile] = {p.name: p for p in ALL_BENCHMARKS}


def get_profile(name: str) -> BenchmarkProfile:
    """Look up a benchmark profile by name (e.g. ``"gobmk"``)."""
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_BY_NAME))
        raise KeyError(f"unknown benchmark {name!r}; known: {known}") from None


def server_benchmarks() -> List[BenchmarkProfile]:
    """SPEC + PARSEC: the workloads the paper runs on the server core."""
    return list(SPEC_INT + SPEC_FP + PARSEC)


def mobile_benchmarks() -> List[BenchmarkProfile]:
    """MobileBench: the workloads the paper runs on the mobile core."""
    return list(MOBILEBENCH)
