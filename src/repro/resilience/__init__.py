"""``repro.resilience`` — deterministic fault injection, supervision, and
graceful degradation for the simulation stack.

The fault model lives here (:class:`FaultPlan`, :class:`FaultInjector`);
the run supervisor (``run_supervised``, over ``run_plan``, the one place
a plan becomes a run) lives in :mod:`repro.harness.runner` next to the
other entry points and is re-exported by ``repro.harness``. The SDC campaign engine
(:func:`run_campaign` and its golden-output oracle) lives in
:mod:`repro.resilience.campaign`. See ``docs/resilience.md``.
"""

from ..sim.errors import (
    AcceleratorFaultError, CycleBudgetExceeded, DeadlockError,
    SimulationError, WatchdogTimeout,
)
from .campaign import (
    CAMPAIGN_OUTCOMES, CAMPAIGN_SCHEMA_VERSION, CampaignError,
    CampaignResult, GoldenReference, TrialOutcome, memory_digests,
    run_campaign, stratified_plan, trial_seed, validate_campaign_report,
)
from .faults import FaultInjector, FaultPlan, FaultRecord, fault_summary

__all__ = [
    "FaultInjector", "FaultPlan", "FaultRecord", "fault_summary",
    "AcceleratorFaultError", "CycleBudgetExceeded", "DeadlockError",
    "SimulationError", "WatchdogTimeout",
    "CAMPAIGN_OUTCOMES", "CAMPAIGN_SCHEMA_VERSION", "CampaignError",
    "CampaignResult", "GoldenReference", "TrialOutcome",
    "memory_digests", "run_campaign", "stratified_plan", "trial_seed",
    "validate_campaign_report",
]
