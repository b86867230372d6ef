"""Per-router packet scheduling algorithms.

This package contains every scheduling algorithm used by the paper, either as
an "original schedule" generator (FIFO, LIFO, Random, SJF, fair queueing,
FIFO+, mixtures), as a candidate universal scheduler (LSTF, simple
priorities, network-wide EDF), or as a state-of-the-art baseline for the
practical objectives in Section 3 (SRPT, SJF with starvation prevention,
fair queueing).
"""
