"""The paper's primary contribution: schedules, slack initialization, replay, and theory."""

from repro.core.replay import ReplayExperiment, evaluate_replay
from repro.core.theory import (
    appendix_c_example,
    appendix_f_example,
    appendix_g_example,
    has_priority_cycle,
    identical_blackbox_views,
)

__all__ = [
    "ReplayExperiment",
    "evaluate_replay",
    "appendix_c_example",
    "appendix_f_example",
    "appendix_g_example",
    "has_priority_cycle",
    "identical_blackbox_views",
]
