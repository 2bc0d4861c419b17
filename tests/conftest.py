"""Shared fixtures for the test suite.

Besides the profile/config fixtures, this file provides the
fault-injection toolkit for the sweep-fabric suite:

- :class:`FaultyExecutor` — a picklable ``SimJob.configure`` callback
  that deterministically kills, hangs, or fails its worker (optionally
  only on the first attempt, via an on-disk latch);
- :class:`UnpicklableProbe` — a probe whose value poisons result
  pickling, so the job *runs* but its record cannot cross the process
  boundary;
- the ``crashing_job`` fixture — a factory for jobs carrying those
  faults;
- a hard ``@pytest.mark.timeout(seconds)`` marker enforced with
  ``SIGALRM``, so hang-injection tests can never wedge a CI runner (no
  pytest-timeout dependency needed).
"""

import os
import signal
import time
from dataclasses import dataclass
from typing import Optional

import pytest

from repro.core.config import PowerChopConfig
from repro.sim.probes import ProbeSpec, ProbeState
from repro.sim.simulator import GatingMode, HybridSimulator
from repro.uarch.config import SERVER
from repro.workloads.generator import MemoryBehavior
from repro.workloads.profiles import (
    BenchmarkProfile,
    PhaseDecl,
    RegionSpec,
    build_workload,
)
from repro.workloads.mixes import GLOBAL_HEAVY, PREDICTABLE


# --------------------------------------------------- hard test timeouts


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """Enforce ``@pytest.mark.timeout(seconds)`` with a SIGALRM deadline.

    A hang-injection test that escapes its in-test timeout would
    otherwise block the whole suite; the alarm turns it into an ordinary
    failure.  On platforms without ``SIGALRM`` the marker is a no-op.
    """
    marker = item.get_closest_marker("timeout")
    seconds = marker.args[0] if marker is not None and marker.args else None
    if not seconds or not hasattr(signal, "SIGALRM"):
        return (yield)

    def _expired(signum, frame):
        raise TimeoutError(f"test exceeded hard timeout of {seconds}s")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# ----------------------------------------------------- fault injection


class FaultyExecutor:
    """Deterministic fault injector used as a ``SimJob.configure`` callback.

    Runs inside the worker process just before the simulation starts.
    ``kind``:

    - ``"crash"`` — hard-kills the worker (``os._exit``), poisoning a
      ``ProcessPoolExecutor`` exactly like a segfault or OOM-kill;
    - ``"hang"``  — sleeps far past any reasonable job timeout;
    - ``"slow"``  — sleeps ``seconds``, then runs normally (a long but
      healthy job);
    - ``"raise"`` — raises ``RuntimeError`` from the job body;
    - ``"ok"``    — no fault (control).

    With ``latch`` set, the fault fires only if the latch file does not
    exist yet (and creates it) — i.e. exactly once across attempts, which
    is what the retry-success tests need.  Instances are picklable, so
    faulty jobs travel to pool workers like any other job.
    """

    KINDS = ("crash", "hang", "slow", "raise", "ok")

    def __init__(
        self, kind: str, latch: Optional[str] = None, seconds: float = 0.0
    ) -> None:
        if kind not in self.KINDS:
            raise ValueError(f"unknown fault kind {kind!r}")
        self.kind = kind
        self.latch = latch
        self.seconds = seconds

    def __call__(self, simulator) -> None:
        if self.latch is not None:
            if os.path.exists(self.latch):
                return  # fault already fired once; behave normally
            with open(self.latch, "w"):
                pass
        if self.kind == "crash":
            os._exit(13)
        elif self.kind == "hang":
            time.sleep(600)
        elif self.kind == "slow":
            time.sleep(self.seconds)
        elif self.kind == "raise":
            raise RuntimeError("injected fault")


@dataclass(frozen=True)
class UnpicklableProbe(ProbeSpec):
    """Probe whose value cannot be pickled back from a worker process."""

    @property
    def name(self) -> str:
        return "unpicklable"

    def build(self) -> "_UnpicklableState":
        return _UnpicklableState()


class _UnpicklableState(ProbeState):
    __slots__ = ()

    name = "unpicklable"

    def value(self):
        return lambda: None  # closures do not pickle


@pytest.fixture
def crashing_job(tmp_path):
    """Factory for :class:`~repro.sim.engine.SimJob` carrying an injected fault.

    ``make(kind, once=False, ...)`` returns a job whose worker crashes,
    hangs, sleeps for ``seconds`` or raises deterministically;
    ``once=True`` arms the fault for the first attempt only (retries
    succeed).  Each distinct ``tag`` yields a distinct cache key, so
    faulty jobs never alias healthy ones.
    """
    from repro.sim.engine import SimJob

    def _make(
        kind: str = "crash",
        once: bool = False,
        benchmark: str = "hmmer",
        budget: int = 30_000,
        tag: str = "",
        seed: Optional[int] = None,
        seconds: float = 0.0,
    ) -> SimJob:
        label = tag or f"{kind}-{'once' if once else 'always'}"
        latch = str(tmp_path / f"latch-{label}") if once else None
        return SimJob(
            benchmark=benchmark,
            max_instructions=budget,
            seed=seed,
            configure=FaultyExecutor(kind, latch, seconds),
            cache_tag=f"fault-{label}",
        )

    return _make


@pytest.fixture(scope="session", autouse=True)
def _hermetic_result_cache(tmp_path_factory):
    """Point the engine's on-disk result cache at a per-session directory.

    Tier-1 tests still exercise both cache layers, but never read entries
    written by a previous (possibly different) version of the code.
    """
    path = tmp_path_factory.mktemp("engine-cache")
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(path)
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


@pytest.fixture
def tiny_profile() -> BenchmarkProfile:
    """A fast two-phase workload exercising all three units."""
    return BenchmarkProfile(
        name="tiny",
        suite="test",
        phases=(
            PhaseDecl(
                name="vector_loop",
                region=RegionSpec(
                    n_blocks=8,
                    branch_mix=PREDICTABLE,
                    vector_frac=0.2,
                    vector_style="dense",
                ),
                memory=MemoryBehavior(working_set_kb=16, pattern="loop"),
                blocks=6000,
            ),
            PhaseDecl(
                name="scalar_chase",
                region=RegionSpec(n_blocks=10, branch_mix=GLOBAL_HEAVY, mem_frac=0.35),
                memory=MemoryBehavior(working_set_kb=256, pattern="random"),
                blocks=5000,
            ),
        ),
        schedule=("vector_loop", "scalar_chase", "vector_loop"),
        seed=7,
    )


@pytest.fixture
def quick_config() -> PowerChopConfig:
    """A PowerChop config sized for short test runs."""
    return PowerChopConfig(
        window_size=200, warmup_windows=2, collect_phase_vectors=True
    )


def run_tiny(
    profile: BenchmarkProfile,
    mode: GatingMode,
    design=SERVER,
    max_instructions: int = 120_000,
    config: PowerChopConfig | None = None,
):
    """Build a fresh workload and run one short simulation."""
    workload = build_workload(profile)
    simulator = HybridSimulator(design, workload, mode, powerchop_config=config)
    return simulator.run(max_instructions), simulator


@pytest.fixture
def run_quick(tiny_profile, quick_config):
    def _run(mode=GatingMode.FULL, design=SERVER, max_instructions=120_000):
        config = quick_config if mode is GatingMode.POWERCHOP else None
        return run_tiny(tiny_profile, mode, design, max_instructions, config)

    return _run
