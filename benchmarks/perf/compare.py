#!/usr/bin/env python3
"""Compare two result sets written by ``run.py``: ``compare.py A B``.

Exit 0 only if every deterministic counter and digest is identical and, on
every workload, every end-to-end metric of B is no worse than A's by more
than its bound from ``BENCHMARK.json``.  One row is printed per workload x
metric with both values, min/max and a verdict:

* ``ok`` — within the bound;
* ``worse`` — B's value is worse than A's by more than the bound;
* ``unresolved`` — the samples of one side spread (distance between their
  quartiles over their median) wider than the bound, so neither "unchanged"
  nor "worse" can be claimed, unless every sample of B beats every sample
  of A (then ``ok``).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_results(path) -> dict:
    """A ``results.json`` file, or the directory ``run.py --out`` wrote it to."""
    path = Path(path)
    return json.loads((path / "results.json" if path.is_dir() else path).read_text())


def _spread(entry: dict) -> float:
    samples = entry["samples"]
    if len(samples) < 2:
        return 0.0
    low, _, high = statistics.quantiles(samples, n=4)
    return (high - low) / statistics.median(samples)


def compare(a: dict, b: dict, spec: dict) -> tuple:
    """``(rows, problems)`` for two result sets under the bounds in ``spec``."""
    rows, problems = [], []
    if a["seed"] != b["seed"]:
        problems.append(f"seeds differ: {a['seed']} != {b['seed']}")
    if set(a["workloads"]) != set(b["workloads"]):
        problems.append(f"workloads differ: {sorted(a['workloads'])} != {sorted(b['workloads'])}")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        left, right = a["workloads"][name], b["workloads"][name]
        if left["counters"] != right["counters"]:
            problems.append(f"{name}: counters differ: {left['counters']} != {right['counters']}")
        for side, payload in (("A", left), ("B", right)):
            if not payload["correct"] or payload["failed"]:
                problems.append(f"{name}: {side} failed {payload['failed']}/{payload['attempted']} cells")
        for metric in spec["end_to_end"]:
            x, y = left["end_to_end"][metric["name"]], right["end_to_end"][metric["name"]]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            delta = sign * (y["value"] - x["value"]) / x["value"]
            b_beats_a = (
                max(y["samples"]) < min(x["samples"])
                if sign > 0
                else min(y["samples"]) > max(x["samples"])
            )
            if max(_spread(x), _spread(y)) > metric["bound"] and not b_beats_a:
                verdict = "unresolved"
            else:
                verdict = "worse" if delta > metric["bound"] else "ok"
            if delta > metric["bound"]:
                problems.append(
                    f"{name}: {metric['name']} worse by {delta:.1%} (bound {metric['bound']:.0%})"
                )
            rows.append((name, metric["name"], metric["unit"], x, y, delta, verdict))
    return rows, problems


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows, problems = compare(load_results(argv[0]), load_results(argv[1]), json.loads(BENCHMARK.read_text()))
    print(f"{'workload':<15} {'metric':<21} {'unit':<13} {'A value [min, max]':<44} "
          f"{'B value [min, max]':<44} {'B worse by':>10}  verdict")
    for name, metric, unit, x, y, delta, verdict in rows:
        cells = [
            f"{e['value']:.4g} [{min(e['samples']):.4g}, {max(e['samples']):.4g}] n={len(e['samples'])}"
            for e in (x, y)
        ]
        print(f"{name:<15} {metric:<21} {unit:<13} {cells[0]:<44} {cells[1]:<44} {delta:>+10.1%}  {verdict}")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
