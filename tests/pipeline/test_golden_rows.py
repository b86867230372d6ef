"""Golden-rows determinism fixture.

``tests/data/golden_rows.json`` holds the exact Table-1 rows (``scenario_row``)
of a representative scenario set, captured on the pre-optimization hot path
(PR 2, commit d5cfe10).  The test recomputes every row with the current code
and compares **bit-identically** (floats included): any hot-path change that
alters event ordering, float arithmetic, or replay injection order fails
here, not silently in a table.

Regenerate (only when an intentional behaviour change is being made, never
to paper over a perf-optimization diff)::

    PYTHONPATH=src python tests/pipeline/test_golden_rows.py --regen
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List

import pytest

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "data" / "golden_rows.json"


def golden_scenarios() -> List:
    """The scenario set pinned by the fixture (smoke scale: seconds, not minutes).

    Coverage: the default Random original plus the hardest originals (SJF,
    LIFO) and the FQ/FIFO+ mixture; LSTF, simple-priority, and EDF replay
    modes; the Internet2 and RocketFuel topologies.
    """
    from repro.experiments.config import ExperimentScale
    from repro.experiments.table1 import default_scenario
    from repro.pipeline.scenario import Scenario

    scale = ExperimentScale.smoke()
    return [
        default_scenario(scale, name="golden-default"),
        default_scenario(scale, original="sjf", name="golden-sjf"),
        default_scenario(scale, original="fq+fifo+", name="golden-mixture"),
        default_scenario(scale, replay_mode="priority", name="golden-priority"),
        default_scenario(scale, original="lifo", replay_mode="edf", name="golden-edf"),
        Scenario(
            name="golden-rocketfuel",
            scale=scale,
            topology="rocketfuel",
            utilization=0.7,
            original="random",
            reference_gbps=1.0,
        ),
    ]


def compute_rows() -> List[dict]:
    """Run every golden scenario and return its row, in scenario order."""
    from repro.experiments.table1 import scenario_row
    from repro.pipeline.experiment import replay_scenario

    return [
        scenario_row(scenario, scenario.replay_mode, replay_scenario(scenario))
        for scenario in golden_scenarios()
    ]


def _canonical(rows: List[dict]) -> List[dict]:
    """JSON round-trip, so in-memory rows compare against the stored form."""
    return json.loads(json.dumps(rows))


def test_golden_rows_bit_identical():
    """Current code reproduces the pre-optimization rows exactly."""
    if not GOLDEN_PATH.exists():  # pragma: no cover - fixture ships with repo
        pytest.fail(f"golden fixture missing: {GOLDEN_PATH} (run --regen)")
    expected = json.loads(GOLDEN_PATH.read_text())
    actual = _canonical(compute_rows())
    assert len(actual) == len(expected["rows"])
    for got, want in zip(actual, expected["rows"]):
        # Compare row by row for a readable diff; equality is exact — the
        # floats must match to the last bit.
        assert got == want


def regenerate() -> None:  # pragma: no cover - maintenance entry point
    payload = {
        "_comment": (
            "Exact run_scenario rows captured pre-optimization (PR 2, "
            "d5cfe10). Regenerate only for intentional behaviour changes: "
            "PYTHONPATH=src python tests/pipeline/test_golden_rows.py --regen"
        ),
        "scale": "smoke",
        "rows": _canonical(compute_rows()),
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {len(payload['rows'])} golden rows -> {GOLDEN_PATH}")


if __name__ == "__main__":  # pragma: no cover
    import sys

    if "--regen" in sys.argv:
        regenerate()
    else:
        print(__doc__)
