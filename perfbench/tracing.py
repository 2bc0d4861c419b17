"""Benchmark-side tracing: spans around the public calls into each layer.

The benchmark never edits the program.  A traced pass installs wrappers
around the public entry points of each module (``build_workload``,
``HybridSimulator.__init__``/``run``, the three backend loops,
``EnergyAccounting.finalize``, ``SimJob.key``, ``execute_job``,
``run_job``, ``memo_get``, ``ResultCache.get``/``put``/``evict_to_budget``,
``FabricScheduler.run`` and ``RestartablePool``), records one span per
call, and removes every wrapper afterwards.  A module-level function is
replaced in every loaded ``repro`` module that bound it by name, so
``from x import f`` call sites are traced too.

Spans stay in memory in the benchmark process.  Pool workers are forked
with the wrappers already installed; each appends every span it closes
to its own JSON-lines file at once, because the fabric's pool kills its
workers on close.  :func:`layer_metrics` folds the spans of one pass into
the per-layer metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import pickle
import sys
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Loops a simulator run can actually execute, by span name.
LOOPS = ("reference", "fastpath", "vectorized")

#: Experiment ids of ``scripts/generate_experiments_md.py``'s EXPERIMENTS,
#: in list order (the per-layer metric names are fixed in BENCHMARK.json).
EXPERIMENT_IDS = (
    "headline", "fig01", "fig02", "fig03", "fig08", "fig09", "fig10",
    "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "table1",
    "table_hwcost", "table_sw_cost", "table_sensitivity",
    "table_timeout_sweep", "table_thresholds", "table_drowsy",
)

Attrs = Callable[[tuple, dict, Any], Dict[str, Any]]


class Tracer:
    """Span recorder plus the wrapper set of one traced pass."""

    def __init__(self, sink_dir: Path) -> None:
        self.sink_dir = Path(sink_dir)
        self.pid = os.getpid()
        self.phase = ""
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[Dict[str, Any]] = []
        self._stack_pid = self.pid
        self._next_id = 0
        self._sink = None
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------- spans

    def begin(self, name: str) -> Dict[str, Any]:
        pid = os.getpid()
        if pid != self._stack_pid:
            # A forked worker inherits the parent's open spans; they are
            # not its own.
            self._stack = []
            self._stack_pid = pid
            self._sink = None
        parent = self._stack[-1] if self._stack else None
        span = {
            "name": name,
            "pid": pid,
            "id": self._next_id,
            "parent": parent["id"] if parent else None,
            "phase": self.phase,
            "start": perf_counter(),
            "end": None,
            "attrs": {},
        }
        self._next_id += 1
        self._stack.append(span)
        return span

    def end(self, span: Dict[str, Any]) -> None:
        span["end"] = perf_counter()
        self._stack.pop()
        if span["pid"] == self.pid:
            self.spans.append(span)
            return
        if self._sink is None:
            self.sink_dir.mkdir(parents=True, exist_ok=True)
            path = self.sink_dir / f"worker-{span['pid']}.jsonl"
            self._sink = open(path, "a", encoding="utf-8")
        self._sink.write(json.dumps(span) + "\n")
        self._sink.flush()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Dict[str, Any]]:
        record = self.begin(name)
        try:
            yield record
        finally:
            self.end(record)

    def worker_spans(self) -> List[Dict[str, Any]]:
        """Spans the pool workers appended to their files so far."""
        out: List[Dict[str, Any]] = []
        if self.sink_dir.is_dir():
            for path in sorted(self.sink_dir.glob("worker-*.jsonl")):
                with open(path, encoding="utf-8") as handle:
                    out.extend(json.loads(line) for line in handle if line.strip())
        return out

    # ---------------------------------------------------------- wrappers

    def wrap(self, name: str, fn: Callable, attrs: Optional[Attrs] = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    # Replaced, not merged: a done-callback may still add
                    # to the returned dict (see ``submit_attrs``).
                    span["attrs"] = attrs(args, kwargs, result)
                return result
            finally:
                self.end(span)

        return wrapper

    def _patch(self, owner: Any, attr: str, name: str, attrs: Optional[Attrs]) -> None:
        original = owner.__dict__[attr]
        wrapper = self.wrap(name, original, attrs)
        owners = [owner]
        if not isinstance(owner, type):
            # Rebind every ``from owner import attr`` copy as well.
            owners += [
                module
                for key, module in sorted(sys.modules.items())
                if key.startswith("repro") and module is not owner
                and getattr(module, "__dict__", {}).get(attr) is original
            ]
        for target in owners:
            setattr(target, attr, wrapper)
            self._patches.append((target, attr, original))

    def install(self) -> None:
        """Wrap the public calls into each layer (see the module docstring)."""
        if self._patches:
            raise RuntimeError("tracer wrappers are already installed")
        from repro.power.accounting import EnergyAccounting
        from repro.sim import engine
        from repro.sim.backends import fastpath, reference, vectorized
        from repro.sim.engine import ResultCache, SimJob
        from repro.sim.fabric.pool import RestartablePool
        from repro.sim.fabric.scheduler import FabricScheduler
        from repro.sim.simulator import HybridSimulator
        from repro.workloads import profiles

        parent_pid = self.pid

        def loop_attrs(index: int) -> Attrs:
            return lambda a, k, r: {
                "instructions": a[index].core.counters.instructions
            }

        def sim_run_attrs(a, k, r):
            simulator = a[0]
            probes = a[2] if len(a) > 2 else k.get("probes", ())
            out = {"requested": simulator.backend_name}
            if probes:
                out["reason"] = "probes"
            elif simulator.timeout_controller is not None:
                out["reason"] = "timeout"
            elif simulator.tracer.active:
                out["reason"] = "tracing"
            state = simulator.fastpath_state
            if state is not None:
                out["pass_a_s"] = state.pass_a_seconds
                out["pass_b_s"] = state.pass_b_seconds
                out["scalar_s"] = state.scalar_seconds
            return out

        def execute_attrs(a, k, r):
            out = {"job": r.job_key}
            if os.getpid() != parent_pid:
                out["record_bytes"] = len(pickle.dumps(r))
            return out

        def put_attrs(a, k, r):
            try:
                size = os.stat(a[0]._path(a[1])).st_size
            except OSError:
                size = 0  # evicted by its own put: budget below one entry
            return {"job": a[1], "bytes": size}

        def submit_attrs(a, k, r):
            started = perf_counter()
            out = {"job_bytes": len(pickle.dumps(a[2:]))}
            r.add_done_callback(
                lambda _f: out.__setitem__("done_after", perf_counter() - started)
            )
            return out

        def fabric_attrs(a, k, r):
            counters = a[0].registry.snapshot()["counters"]
            return {
                name: counters.get(f"fabric_{name}", 0)
                for name in ("attempts", "retries", "crashes", "timeouts",
                             "pool_restarts")
            }

        targets = [
            (profiles, "build_workload", "workloads.build", None),
            (HybridSimulator, "__init__", "simulator.init", None),
            (HybridSimulator, "run", "simulator.run", sim_run_attrs),
            (reference.ReferenceBackend, "run", "backends.reference", loop_attrs(1)),
            (fastpath, "run_fast", "backends.fastpath", loop_attrs(0)),
            (vectorized, "run_vectorized", "backends.vectorized", loop_attrs(0)),
            (EnergyAccounting, "finalize", "power.finalize", None),
            (SimJob, "key", "engine.key", None),
            (engine, "execute_job", "engine.execute", execute_attrs),
            (engine, "run_job", "engine.run_job",
             lambda a, k, r: {"job": r.job_key}),
            (engine, "memo_get", "engine.memo_get",
             lambda a, k, r: {"job": a[0], "hit": r is not None}),
            (ResultCache, "get", "engine.cache_get",
             lambda a, k, r: {"job": a[1], "hit": r is not None}),
            (ResultCache, "put", "engine.cache_put", put_attrs),
            (ResultCache, "evict_to_budget", "engine.cache_evict",
             lambda a, k, r: {"evicted": r}),
            (FabricScheduler, "run", "fabric.run", fabric_attrs),
            (RestartablePool, "__init__", "fabric.pool_init", None),
            (RestartablePool, "submit", "fabric.submit", submit_attrs),
            (RestartablePool, "close", "fabric.pool_close", None),
        ]
        try:
            for owner, attr, name, attrs in targets:
                self._patch(owner, attr, name, attrs)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Put every original function back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._sink is not None:
            self._sink.close()
            self._sink = None

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


# -------------------------------------------------------------- ledger


def _duration(span: Dict[str, Any]) -> float:
    return span["end"] - span["start"]


def annotate(spans: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Resolve each span's job key and the loop each simulator run ran.

    A span inherits the job key of its nearest ancestor that has one;
    a ``simulator.run`` span gets ``ran`` from its backend-loop child.
    """
    by_id = {(s["pid"], s["id"]): s for s in spans}
    for span in spans:
        if span["name"].startswith("backends."):
            parent = by_id.get((span["pid"], span["parent"]))
            if parent is not None and parent["name"] == "simulator.run":
                parent["attrs"]["ran"] = span["name"].split(".", 1)[1]
    for span in spans:
        node = span
        while node is not None and "job" not in node["attrs"]:
            node = by_id.get((node["pid"], node["parent"]))
        if node is not None:
            span["attrs"].setdefault("job", node["attrs"]["job"])
    return spans


def paths(spans: List[Dict[str, Any]]) -> Dict[str, int]:
    """Count simulator runs by ``requested->ran (reason)``."""
    counts: Dict[str, int] = {}
    for span in annotate(spans):
        if span["name"] != "simulator.run":
            continue
        attrs = span["attrs"]
        ran = attrs.get("ran", "?")
        label = f"{attrs['requested']}->{ran}"
        if ran != attrs["requested"]:
            label += f" ({attrs.get('reason', 'unknown')})"
        counts[label] = counts.get(label, 0) + 1
    return dict(sorted(counts.items()))


def layer_metrics(spans: List[Dict[str, Any]], overhead_s: float) -> Dict[str, float]:
    """Fold the spans of one traced pass into the per-layer metrics."""
    annotate(spans)
    by_name: Dict[str, List[Dict[str, Any]]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def calls(name: str) -> float:
        return float(len(by_name.get(name, ())))

    def seconds(name: str) -> float:
        return sum(_duration(s) for s in by_name.get(name, ()))

    def attr_sum(name: str, attr: str) -> float:
        return float(sum(s["attrs"].get(attr, 0) for s in by_name.get(name, ())))

    out: Dict[str, float] = {
        "workloads.build_calls": calls("workloads.build"),
        "workloads.build_s": seconds("workloads.build"),
        "simulator.init_calls": calls("simulator.init"),
        "simulator.init_s": seconds("simulator.init"),
    }
    for loop in LOOPS:
        name = f"backends.{loop}"
        out[f"{name}.runs"] = calls(name)
        out[f"{name}.run_s"] = seconds(name)
        out[f"{name}.minstr"] = attr_sum(name, "instructions") / 1e6
    runs = by_name.get("simulator.run", [])
    delegated = [s["attrs"] for s in runs if s["attrs"].get("ran") != s["attrs"]["requested"]]
    out["backends.delegated.probes"] = float(
        sum(1 for a in delegated if a.get("reason") == "probes")
    )
    out["backends.delegated.timeout"] = float(
        sum(1 for a in delegated if a.get("reason") == "timeout")
    )
    vector_runs = [s["attrs"] for s in runs if s["attrs"].get("ran") == "vectorized"]
    for part in ("pass_a_s", "pass_b_s", "scalar_s"):
        out[f"backends.vectorized.{part}"] = sum(a.get(part, 0.0) for a in vector_runs)
    out["power.finalize_s"] = seconds("power.finalize")

    run_jobs = by_name.get("engine.run_job", [])
    children: Dict[Tuple[int, int], set] = {}
    for span in spans:
        children.setdefault((span["pid"], span["parent"]), set()).add(span["name"])
    memo_hits = sum(
        1 for s in run_jobs
        if not children.get((s["pid"], s["id"]), set())
        & {"engine.cache_get", "engine.execute"}
    )
    memo_hits += sum(1 for s in by_name.get("engine.memo_get", []) if s["attrs"]["hit"])
    gets = calls("engine.cache_get")
    hits = attr_sum("engine.cache_get", "hit")
    out.update({
        "engine.key_calls": calls("engine.key"),
        "engine.key_s": seconds("engine.key"),
        "engine.execute_calls": calls("engine.execute"),
        "engine.execute_s": seconds("engine.execute"),
        "engine.memo_hits": float(memo_hits),
        "engine.cache_get_calls": gets,
        "engine.cache_get_s": seconds("engine.cache_get"),
        "engine.cache_hits": hits,
        "engine.cache_hit_ratio": hits / gets if gets else 0.0,
        "engine.cache_put_calls": calls("engine.cache_put"),
        "engine.cache_put_s": seconds("engine.cache_put"),
        "engine.cache_put_bytes": attr_sum("engine.cache_put", "bytes"),
        "engine.cache_evict_s": seconds("engine.cache_evict"),
        "engine.cache_evictions": attr_sum("engine.cache_evict", "evicted"),
    })

    fabric_runs = by_name.get("fabric.run", [])
    inits = by_name.get("fabric.pool_init", [])
    closes = by_name.get("fabric.pool_close", [])
    cache_pass = pool_phase = publish = 0.0
    for run in fabric_runs:
        init = next((s for s in inits if run["start"] <= s["start"] <= run["end"]), None)
        close = next((s for s in closes if run["start"] <= s["end"] <= run["end"]), None)
        if init is None or close is None:
            continue  # a single-worker scheduler builds no pool
        cache_pass += init["start"] - run["start"]
        pool_phase += close["end"] - init["start"]
        publish += run["end"] - close["end"]
    attempts = sorted(
        s["attrs"]["done_after"] for s in by_name.get("fabric.submit", [])
        if "done_after" in s["attrs"]
    )
    out.update({
        "fabric.run_s": seconds("fabric.run"),
        "fabric.cache_pass_s": cache_pass,
        "fabric.pool_phase_s": pool_phase,
        "fabric.publish_s": publish,
        "fabric.attempt_p50_s": median(attempts) if attempts else 0.0,
        "fabric.attempt_p90_s": (
            quantiles(attempts, n=10)[-1] if len(attempts) > 1
            else (attempts[0] if attempts else 0.0)
        ),
    })
    for counter in ("attempts", "retries", "crashes", "timeouts", "pool_restarts"):
        out[f"fabric.{counter}"] = attr_sum("fabric.run", counter)
    out["fabric.job_pickle_bytes"] = attr_sum("fabric.submit", "job_bytes")
    out["fabric.record_pickle_bytes"] = attr_sum("engine.execute", "record_bytes")

    for experiment_id in EXPERIMENT_IDS:
        out[f"experiments.{experiment_id}_s"] = seconds(f"experiments.{experiment_id}")
    out["trace.overhead_s"] = overhead_s
    return out
