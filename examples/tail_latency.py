#!/usr/bin/env python3
"""Tail packet delays: FIFO versus LSTF-as-FIFO+ (the paper's Figure 3 scenario).

The same open-loop UDP workload runs twice over the Internet2-like topology:
once with FIFO everywhere, once with LSTF where every packet gets the same
constant slack (which makes LSTF identical to FIFO+).  The expected shape:
nearly identical mean delay, visibly smaller 99th-percentile delay for LSTF.

Run with::

    python examples/tail_latency.py

The same experiment runs as pipeline cells (one per scheduler) via::

    python -m repro run figure3 --workers 2
"""

from repro.analysis.delay import delay_statistics
from repro.core.slack_policy import SLACK_POLICIES
from repro.experiments import ExperimentScale
from repro.experiments.figure3 import FIGURE3_SCHEDULERS, run_delay_scenario

#: Figure 3's deployments plus FIFO+ deployed natively, a sanity row that
#: should match the LSTF-with-constant-slack deployment.
SCHEDULERS = {**FIGURE3_SCHEDULERS, "fifo+": ("fifo+", None)}


def main() -> None:
    scale = ExperimentScale.quick()
    print(f"Internet2-like topology, UDP at 70% utilization ({scale.label} scale)\n")
    header = (
        f"{'scheduler':<10} {'packets':>8} {'mean (ms)':>12} "
        f"{'p99 (ms)':>12} {'p99.9 (ms)':>12} {'max (ms)':>12}"
    )
    print(header)
    print("-" * len(header))
    for scheduler, (registry_name, policy) in SCHEDULERS.items():
        slack_policy = SLACK_POLICIES.get(policy).build_live() if policy else None
        packets = run_delay_scenario(scale, registry_name, slack_policy)
        stats = delay_statistics(packets)
        print(
            f"{scheduler:<10} {stats.count:>8} {stats.mean * 1e3:>12.2f} "
            f"{stats.p99 * 1e3:>12.2f} {stats.p999 * 1e3:>12.2f} {stats.maximum * 1e3:>12.2f}"
        )
    print("\nExpected shape (paper, Figure 3): means within a few percent of each "
          "other, but a smaller 99th percentile for LSTF (= FIFO+) than FIFO.  "
          "The native FIFO+ row should match the LSTF row — they are the same "
          "policy expressed two ways.")


if __name__ == "__main__":
    main()
