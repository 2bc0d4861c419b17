"""Regenerate ``perfbench/expected.json``, the pinned outputs.

Usage (from the repository root)::

    python3 perfbench/pin.py

Pins, for the default seed 1 and the held-out seed 2, one digest per job
of ``sweep`` and ``sim`` plus ``sweep``'s hit/miss/dedup/eviction counts,
and one ``render()`` digest per ``eval`` experiment.  Job digests come
from a path the timed passes do not take: serial ``execute_job`` on the
default backend, with no cache or pool.  Re-pin only when a change is
meant to alter simulated results.
"""

import json
import os
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import EXPECTED_PATH, Eval, Sim, Sweep, digest_record, job_label  # noqa: E402

from repro.sim.engine import execute_job  # noqa: E402

PINNED_SEEDS = (1, 2)


def main() -> None:
    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="pin-", dir=HERE / ".work"))
    os.environ["REPRO_CACHE_BUDGET"] = "0"
    try:
        out = {"eval": {}, "sweep": {}, "sim": {}}
        evaluation = Eval(0, work / "eval")
        try:
            out["eval"] = {"digests": evaluation.setup()}
        finally:
            evaluation.close()
        for seed in PINNED_SEEDS:
            sweep = Sweep(seed, work / f"sweep-{seed}")
            digests = {
                job_label(job): digest_record(execute_job(job))
                for job in sweep.cached + sweep.fresh
            }
            sweep.setup()
            sweep.prepare()
            counts = sweep.timed_pass().counts
            out["sweep"][str(seed)] = {"digests": digests, "counts": counts}
            sim = Sim(seed, work / f"sim-{seed}")
            out["sim"][str(seed)] = {"digests": {
                job_label(job): digest_record(execute_job(replace(job, backend="fastpath")))
                for job in sim.jobs
            }}
        with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
            json.dump(out, handle, indent=1, sort_keys=True)
            handle.write("\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
