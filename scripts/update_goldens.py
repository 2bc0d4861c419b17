#!/usr/bin/env python
"""Regenerate the golden-trace fixtures in tests/goldens/.

Run after an *intentional* change to PowerChop's decision behaviour:

    PYTHONPATH=src python scripts/update_goldens.py

then inspect ``git diff tests/goldens/`` before committing — a golden
that moved unexpectedly is a regression, not a fixture refresh.

A behaviour change also changes cached results, so the script refuses
(exit 1, nothing written) to change a fixture that records the current
``RESULT_SEMANTICS_VERSION``: bump the constant in
``src/repro/sim/engine.py`` first, which retires every cached result.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.goldens import GOLDEN_SPECS, capture_golden  # noqa: E402
from repro.sim.engine import RESULT_SEMANTICS_VERSION  # noqa: E402

GOLDEN_DIR = REPO_ROOT / "tests" / "goldens"


def main(out_dir: Path = GOLDEN_DIR) -> int:
    fixtures = {spec.name: capture_golden(spec) for spec in GOLDEN_SPECS}
    unbumped = []
    for name, fixture in fixtures.items():
        path = out_dir / f"{name}.json"
        if not path.exists():
            continue
        recorded = json.loads(path.read_text())
        changed = recorded != json.loads(json.dumps(fixture))
        if changed and recorded.get("result_semantics") == RESULT_SEMANTICS_VERSION:
            unbumped.append(path)
    if unbumped:
        for path in unbumped:
            print(f"{path}: decisions changed under the recorded "
                  f"RESULT_SEMANTICS_VERSION {RESULT_SEMANTICS_VERSION}")
        print("bump RESULT_SEMANTICS_VERSION in src/repro/sim/engine.py so "
              "warm result caches stop serving the old results; nothing "
              "written")
        return 1
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, fixture in fixtures.items():
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(fixture, indent=1) + "\n")
        print(f"{path}: {len(fixture['events'])} events")
    return 0


if __name__ == "__main__":
    sys.exit(main())
