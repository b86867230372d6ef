"""repro — a reproduction of "Universal Packet Scheduling" (HotNets 2015).

The package provides:

* :mod:`repro.sim` — a packet-level, store-and-forward discrete-event
  network simulator (the ns-2 substitute);
* :mod:`repro.schedulers` — every per-router scheduling algorithm used by the
  paper (FIFO, LIFO, Random, priorities, SJF, SRPT, fair queueing,
  FIFO+, LSTF in non-preemptive and preemptive forms, network-wide EDF, and
  the omniscient per-hop replay scheduler);
* :mod:`repro.core` — the paper's contribution: schedules, slack
  initialization (black-box, omniscient, and the practical heuristics of
  Section 3), the record-and-replay engine, the replay metrics, and
  executable versions of the appendix's theory results;
* :mod:`repro.topology`, :mod:`repro.traffic`, :mod:`repro.transport` — the
  evaluation substrates (Internet2 / RocketFuel / fat-tree topologies,
  heavy-tailed Poisson workloads, UDP and simplified TCP);
* :mod:`repro.analysis` and :mod:`repro.experiments` — metrics and one
  runnable experiment per table/figure in the paper's evaluation;
* :mod:`repro.pipeline` — the parallel experiment pipeline: declarative
  scenarios, a content-addressed schedule cache (record once, replay many),
  an experiment registry, and a process-pool runner, all exposed through the
  ``python -m repro`` CLI.

Quickstart::

    from repro.core import ReplayExperiment
    from repro.experiments import ExperimentScale
    from repro.traffic import WorkloadSpec, paper_default_workload

    scale = ExperimentScale.quick()
    workload = WorkloadSpec(
        utilization=0.7,
        reference_bandwidth_bps=scale.scaled_bandwidth(1.0),
        size_distribution=paper_default_workload(),
        duration=scale.duration,
    )
    experiment = ReplayExperiment(scale.internet2(), "random", workload, seed=1)
    result = experiment.replay(mode="lstf")
    print(result.overdue_fraction)
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
