"""Experiment configuration: paper-scale versus laptop-scale ("quick") presets.

Every experiment in :mod:`repro.experiments` is parameterized by an
:class:`ExperimentScale`.  The ``paper()`` preset uses the paper's topology
sizes, bandwidths, and durations; the ``quick()`` preset divides every
bandwidth by a constant, shrinks the edge fan-out, and shortens the run so the
full harness (all tables and figures) completes in minutes on a laptop.
Because the workloads are specified by *utilization* rather than absolute
rates, scaling all bandwidths equally preserves queueing behaviour and the
qualitative results.

An experiment's output is an :class:`ExperimentResult`; :func:`format_result`
renders one as a plain-text table of the same shape as the corresponding
table or figure legend in the paper, and :func:`results_to_json` gives a
run's results as one JSON-ready payload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.topology.base import Topology
from repro.topology.fattree import fattree_topology
from repro.topology.internet2 import internet2_topology
from repro.topology.rocketfuel import rocketfuel_topology
from repro.utils.units import gbps


@dataclass(frozen=True)
class ExperimentScale:
    """Scaling knobs shared by every experiment.

    Attributes:
        bandwidth_scale: Every link bandwidth is divided by this factor.
        edge_routers_per_core: Internet2 fan-out (paper: 10).
        duration: Flow-arrival window in seconds for the replay experiments.
        rocketfuel_routers / rocketfuel_links: RocketFuel core size
            (paper: 83 / 131).
        fattree_k: Fat-tree arity (paper-equivalent: 8; quick: 4).
        seed: Base random seed.
        label: Name of the preset (shown in experiment output).
    """

    bandwidth_scale: float = 1000.0
    edge_routers_per_core: int = 2
    duration: float = 1.0
    rocketfuel_routers: int = 21
    rocketfuel_links: int = 33
    fattree_k: int = 4
    seed: int = 1
    label: str = "quick"

    @classmethod
    def quick(cls) -> "ExperimentScale":
        """Laptop-scale preset used by the test suite and benchmark harness."""
        return cls()

    @classmethod
    def smoke(cls) -> "ExperimentScale":
        """Tiny preset for unit tests (seconds, not minutes)."""
        return cls(
            bandwidth_scale=2000.0,
            edge_routers_per_core=1,
            duration=0.2,
            rocketfuel_routers=11,
            rocketfuel_links=16,
            fattree_k=4,
            label="smoke",
        )

    @classmethod
    def paper(cls) -> "ExperimentScale":
        """The paper's full-scale parameters (hours of CPU time in Python)."""
        return cls(
            bandwidth_scale=1.0,
            edge_routers_per_core=10,
            duration=1.0,
            rocketfuel_routers=83,
            rocketfuel_links=131,
            fattree_k=8,
            label="paper",
        )

    # ------------------------------------------------------------------ #
    # Topology builders
    # ------------------------------------------------------------------ #
    def internet2(
        self,
        edge_core_gbps: float = 1.0,
        host_edge_gbps: float = 10.0,
        propagation_scale: float = 1.0,
    ) -> Topology:
        """The Internet2-like topology with this preset's scaling applied."""
        return internet2_topology(
            edge_core_bandwidth_bps=gbps(edge_core_gbps),
            host_edge_bandwidth_bps=gbps(host_edge_gbps),
            edge_routers_per_core=self.edge_routers_per_core,
            scale=self.bandwidth_scale,
            propagation_scale=propagation_scale,
        )

    def rocketfuel(self) -> Topology:
        """The RocketFuel-like topology with this preset's scaling applied."""
        return rocketfuel_topology(
            num_core_routers=self.rocketfuel_routers,
            num_core_links=self.rocketfuel_links,
            seed=self.seed + 100,
            scale=self.bandwidth_scale,
        )

    def fattree(self) -> Topology:
        """The datacenter fat-tree with this preset's scaling applied."""
        return fattree_topology(k=self.fattree_k, scale=self.bandwidth_scale)

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    def scaled_bandwidth(self, bandwidth_gbps: float) -> float:
        """A nominal bandwidth (Gbps) divided by this preset's scale, in bits/s."""
        return gbps(bandwidth_gbps) / self.bandwidth_scale


@dataclass
class ExperimentResult:
    """Generic container for one experiment's output rows.

    Attributes:
        name: Experiment identifier (e.g. ``"table1"``).
        scale_label: Which preset produced it.
        rows: List of per-row dictionaries (column name -> value).
        notes: Free-form remarks (e.g. paper values for comparison).
        aggregates: Replicate summary rows (mean/stddev/95% CI per base
            row), populated by the pipeline runner on ``--replicates`` runs.
    """

    name: str
    scale_label: str
    rows: List[dict] = field(default_factory=list)
    notes: str = ""
    aggregates: List[dict] = field(default_factory=list)

    def add_row(self, **columns) -> None:
        """Append one result row."""
        self.rows.append(dict(columns))


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


def results_to_json(results: Dict[str, ExperimentResult]) -> Dict[str, dict]:
    """Experiment results (rows, notes, replicate aggregates) as a JSON-ready dict."""
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
    return payload
