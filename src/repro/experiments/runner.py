"""Formatting experiment results.

:func:`format_result` renders a result as a plain-text table of the same
shape as the corresponding table or figure legend in the paper, and
:func:`results_to_json` serializes a run's results.  Running experiments is
:func:`repro.pipeline.runner.run_pipeline`'s job.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.experiments.config import ExperimentResult


def format_table(rows: List[dict], float_digits: int) -> List[str]:
    """``rows`` as aligned text lines: a header, a rule, one line per row."""
    # Column union across all rows in first-appearance order: replicate
    # aggregates are ragged (e.g. deadline statistics exist only for the
    # deadline-tagged groups), and a table keyed off the first row alone
    # would silently drop the columns it lacks.
    columns: List[str] = []
    for row in rows:
        for column in row:
            if column not in columns:
                columns.append(column)
    formatted_rows: List[List[str]] = []
    for row in rows:
        formatted_rows.append([_format_cell(row.get(column), float_digits) for column in columns])
    widths = [
        max(len(column), *(len(row[i]) for row in formatted_rows))
        for i, column in enumerate(columns)
    ]
    header = "  ".join(column.ljust(width) for column, width in zip(columns, widths))
    lines = [header, "-" * len(header)]
    for row in formatted_rows:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return lines


def format_result(result: ExperimentResult, float_digits: int = 4) -> str:
    """Render an experiment result as a fixed-width text table.

    Replicated results (``--replicates N``) append a second table with the
    per-base-row mean/stddev/95% CI aggregates.
    """
    if not result.rows:
        return f"[{result.name} / {result.scale_label}] (no rows)"
    lines = [f"== {result.name} ({result.scale_label} scale) =="]
    if result.notes:
        lines.append(result.notes)
    lines.extend(format_table(result.rows, float_digits))
    if result.aggregates:
        lines.append("")
        lines.append(f"-- {result.name}: replicate summary (mean / stddev / 95% CI) --")
        lines.extend(format_table(result.aggregates, float_digits))
    return "\n".join(lines)


def _format_cell(value, float_digits: int) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{float_digits}f}"
    return str(value)


def results_to_json(results: Dict[str, ExperimentResult]) -> str:
    """Serialize experiment results (rows, notes, replicate aggregates) to JSON."""
    payload = {}
    for name, result in results.items():
        entry = {
            "scale": result.scale_label,
            "notes": result.notes,
            "rows": result.rows,
        }
        if result.aggregates:
            entry["aggregates"] = result.aggregates
        payload[name] = entry
    return json.dumps(payload, indent=2, default=str)
