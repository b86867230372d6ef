#!/usr/bin/env python3
"""Mean flow-completion-time comparison (the paper's Figure 2 scenario).

TCP flows with heavy-tailed sizes share the Internet2-like topology; the same
workload is run under FIFO, SRPT, SJF, and LSTF with the flow-size slack
heuristic.  The expected shape: FIFO is clearly worst, and LSTF tracks
SJF/SRPT closely, because giving small flows small slack makes LSTF behave
like SJF while still never wasting the bottleneck.

Run with::

    python examples/fct_comparison.py

The same experiment runs as pipeline cells (one per scheduler) via::

    python -m repro run figure2 --workers 4
"""

from repro.analysis.fct import PAPER_FCT_BUCKET_EDGES, fct_by_flow_size, mean_fct
from repro.core.slack_policy import SLACK_POLICIES
from repro.experiments import ExperimentScale
from repro.experiments.figure2 import FIGURE2_SCHEDULERS, run_fct_scenario


def main() -> None:
    scale = ExperimentScale.quick()
    print(f"Internet2-like topology at 70% utilization ({scale.label} scale)\n")
    header = f"{'scheduler':<10} {'flows':>6} {'completed':>10} {'mean FCT (s)':>14}"
    print(header)
    print("-" * len(header))
    per_scheduler = {}
    for scheduler, (registry_name, policy) in FIGURE2_SCHEDULERS.items():
        slack_policy = SLACK_POLICIES.get(policy).build_live() if policy else None
        flows = run_fct_scenario(scale, registry_name, slack_policy)
        completed = [flow for flow in flows if flow.completed]
        overall = mean_fct(completed)
        per_scheduler[scheduler] = completed
        print(f"{scheduler:<10} {len(flows):>6} {len(completed):>10} {overall:>14.4f}")

    print("\nMean FCT by flow-size bucket (seconds):")
    print(f"{'bucket (<= bytes)':<20}" + "".join(f"{s:>12}" for s in per_scheduler))
    buckets_by_scheduler = {
        scheduler: fct_by_flow_size(flows, PAPER_FCT_BUCKET_EDGES)
        for scheduler, flows in per_scheduler.items()
    }
    num_buckets = len(next(iter(buckets_by_scheduler.values())))
    for index in range(num_buckets):
        label = next(iter(buckets_by_scheduler.values()))[index].label
        row = f"{label:<20}"
        for scheduler in per_scheduler:
            bucket = buckets_by_scheduler[scheduler][index]
            row += f"{bucket.mean_fct:>12.4f}" if bucket.count else f"{'-':>12}"
        print(row)

    print("\nExpected shape (paper, Figure 2): FIFO 0.288s, SRPT 0.208s, "
          "SJF 0.194s, LSTF 0.195s — LSTF within a few percent of SJF.")


if __name__ == "__main__":
    main()
