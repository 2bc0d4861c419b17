"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload eval|sweep|sim --seed N \\
        --seconds S --trace 0|1

A run is one fresh process with its own empty ``REPRO_CACHE_DIR`` under
``perfbench/.work/``.  It imports the program from ``src/``, sets the
workload up ``setup_repeats`` times, then repeats the timed pass until
``--seconds`` have been measured (at least two passes), checking every
output against ``perfbench/expected.json``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` also runs
one traced pass and reports the per-layer metrics instead; its spans,
with those of a traced set-up, go to
``perfbench/.work/trace-<workload>-seed<seed>.json``.  The last line of
standard output is the result object; progress goes to standard error.
"""

from time import perf_counter

STARTED = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 2


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("eval", "sweep", "sim"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def reap_children() -> None:
    """Wait for every child process (pool workers) to end."""
    for child in multiprocessing.active_children():
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join(10)


def peak_rss_mb() -> float:
    reap_children()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0  # ru_maxrss is in KiB on Linux


class Ledger:
    """Operations attempted and failed across the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    def check_digests(self, where: str, got, want) -> None:
        for label, digest in got.items():
            ok = not digest.startswith("error:") and (want is None or digest == want.get(label))
            self.check(f"{where} {label} {digest}", ok)
        if want is not None:
            for label in sorted(set(want) - set(got)):
                self.check(f"{where} missing {label}", False)

    def check_counts(self, where: str, got, want) -> None:
        for name, value in sorted(want.items()):
            self.check(f"{where} count {name}={got.get(name)} want {value}", got.get(name) == value)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        log(f"no program sources under {ROOT / 'src'}; run from a full checkout")
        return 2
    work_root = HERE / ".work"
    work_dir = work_root / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work_dir.mkdir(parents=True)
    os.environ.update({
        "REPRO_JOBS": "1",
        "REPRO_CACHE": "1",
        "REPRO_CACHE_BUDGET": "0",
        "REPRO_CACHE_DIR": str(work_dir / "unused-cache"),
    })
    sys.path.insert(0, str(ROOT / "src"))
    try:
        return run(args, work_dir, work_root)
    finally:
        reap_children()
        shutil.rmtree(work_dir, ignore_errors=True)


def run(args: argparse.Namespace, work_dir: Path, work_root: Path) -> int:
    from tracing import Tracer, layer_metrics, paths
    from workloads import WORKLOADS

    ledger = Ledger()
    workload = WORKLOADS[args.workload](args.seed, work_dir)
    import_s = perf_counter() - STARTED
    tracer = Tracer(work_dir / "spans") if args.trace else None
    try:
        setup_walls = []
        for repeat in range(workload.setup_repeats):
            trace_setup = tracer is not None and repeat == workload.setup_repeats - 1
            if trace_setup:
                tracer.phase = "setup"
                tracer.install()
            started = perf_counter()
            try:
                setup = workload.setup()
            finally:
                if trace_setup:
                    tracer.uninstall()
            setup_walls.append(perf_counter() - started)
            ledger.check_digests(f"setup{repeat}", setup, workload.expected_setup())
        log(f"setup {[round(w, 3) for w in setup_walls]} import {import_s:.3f}s")

        walls = []
        first = None
        expected = None
        while len(walls) < MIN_PASSES or sum(walls) < args.seconds:
            workload.prepare()
            started = perf_counter()
            result = workload.timed_pass()
            walls.append(perf_counter() - started)
            if first is None:
                first = result
                expected = workload.expected(first)
            ledger.check_digests(f"pass{len(walls)}", result.digests, expected["digests"])
            ledger.check_counts(f"pass{len(walls)}", result.counts, expected.get("counts", {}))
        log(f"passes {[round(w, 3) for w in walls]}")

        wall_s = median(walls)
        if tracer is not None:
            workload.prepare()
            tracer.phase = "timed"
            started = perf_counter()
            with tracer.installed():
                traced = workload.timed_pass(tracer)
            traced_wall = perf_counter() - started
            ledger.check_digests("traced", traced.digests, first.digests)
            ledger.check_counts("traced", traced.counts, first.counts)
            log(f"traced pass {traced_wall:.3f}s")

        for label, ok in workload.verify(first).items():
            ledger.check(f"verify {label}", ok)
    finally:
        workload.close()

    if tracer is None:
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (import_s + median(setup_walls), "s"),
            "guest_minstr_per_s": (first.instructions / wall_s / 1e6, "Minstr/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    else:
        spans = tracer.spans + tracer.worker_spans()
        timed = [s for s in spans if s["phase"] == "timed"]
        setup_spans = [s for s in spans if s["phase"] == "setup"]
        layers = layer_metrics(timed, traced_wall - wall_s)
        metrics = {name: (value, unit_of(name)) for name, value in layers.items()}
        trace_path = work_root / f"trace-{args.workload}-seed{args.seed}.json"
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump({
                "workload": args.workload,
                "seed": args.seed,
                "untraced_wall_s": wall_s,
                "traced_wall_s": traced_wall,
                "paths": {"setup": paths(setup_spans), "timed": paths(timed)},
                "layers": {"setup": layer_metrics(setup_spans, 0.0), "timed": layers},
                "spans": spans,
            }, handle)
        log(f"spans written to {trace_path}")

    for problem in ledger.problems:
        log(f"FAILED {problem}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    leaf = name.rsplit(".", 1)[1]
    if leaf.endswith("_s"):
        return "s"
    if leaf.endswith("bytes"):
        return "bytes"
    if leaf == "minstr":
        return "Minstr"
    if leaf.endswith("ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
