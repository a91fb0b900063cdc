"""Fault injection for the failover experiments (E7) and chaos campaigns.

Scripted faults against a :class:`~repro.runtime.simruntime.SimRuntime`: service
crashes, whole-container/node crashes and link-quality changes, scheduled
in virtual time (:class:`FaultInjector`); seeded randomized campaigns
composing them (:class:`ChaosCampaign`), with the §3 contracts validated
afterwards by :class:`InvariantChecker`.
"""

from repro.faults.chaos import ChaosCampaign, ChaosProfile
from repro.faults.inject import FaultEvent, FaultInjector
from repro.faults.invariants import InvariantChecker
from repro.faults.personas import (
    AttackerPersona,
    Flooder,
    GarbageFrameInjector,
    MaliciousNacker,
    ReplayInjector,
)

__all__ = [
    "FaultInjector",
    "FaultEvent",
    "ChaosCampaign",
    "ChaosProfile",
    "InvariantChecker",
    "AttackerPersona",
    "Flooder",
    "MaliciousNacker",
    "ReplayInjector",
    "GarbageFrameInjector",
]
