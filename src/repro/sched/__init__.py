"""The pluggable scheduler (§6).

The paper's prototype scheduler "is basically a simple thread pool with
fixed priorities for each named primitive", supporting soft real-time only.
This package provides:

- :class:`Task` and the :class:`SchedulingPolicy` plug-in interface;
- :class:`FixedPriorityPolicy` (the paper's choice), :class:`FifoPolicy`
  (the ablation baseline for experiment E6) and
  :class:`DeadlinePolicy` (the future-work extension: an EDF-style variant
  anticipating the paper's planned real-time support);
- :class:`CpuModel`, charging modelled execution time per primitive so the
  deterministic runtime exhibits queueing;
- :class:`SimScheduler` — the single-CPU scheduler every container builds
  (on both runtimes: tasks run inside the runtime's serialization domain).
"""

from repro.sched.model import CpuModel, SimScheduler, Task
from repro.sched.policies import (
    DEFAULT_PRIORITIES,
    DeadlinePolicy,
    FifoPolicy,
    FixedPriorityPolicy,
    SchedulingPolicy,
    make_policy,
)

__all__ = [
    "Task",
    "CpuModel",
    "SimScheduler",
    "SchedulingPolicy",
    "FixedPriorityPolicy",
    "FifoPolicy",
    "DeadlinePolicy",
    "DEFAULT_PRIORITIES",
    "make_policy",
]
