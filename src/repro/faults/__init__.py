"""Fault-injection campaigns (extension beyond the paper).

The paper's VMMC assumes a reliable network: CRC errors are "detected,
counted, dropped — never recovered" (section 4.2), and daemons/links are
assumed to stay up.  This package manufactures the opposite world — a
deterministic chaos harness over the simulated cluster:

* :class:`FaultEvent` / :class:`FaultCampaign` — a pure-data schedule of
  timed faults: per-link bit-error bursts, link/switch-port down/up,
  LANai stalls, daemon crash+restart.
* :class:`FaultInjector` — runs a campaign as simulation processes against
  a booted :class:`~repro.cluster.cluster.Cluster`, emitting
  ``fault.<kind>.raise`` / ``fault.<kind>.clear`` trace points; its
  :meth:`~FaultInjector.run_all` drives a whole :class:`CampaignSet`
  **concurrently** (overlapping raises stack in the hardware hooks, a
  conflict guard serializes or rejects incompatible ones
  deterministically).
* :class:`FaultStats` — aggregate counters queryable after the run; equal
  across reruns of the same (campaign, workload) pair, which is what makes
  the chaos experiments debuggable.  :meth:`FaultStats.merge` folds
  several campaigns' stats into one :class:`MergedFaultStats` whose
  per-target fault time counts overlapped intervals once.

Used by ``python -m repro chaos`` and the ``chaos``/``lossy`` campaigns
to prove that
:mod:`repro.vmmc.reliable` delivers byte-exact payloads where base VMMC
silently drops.
"""

from repro.faults.campaign import (
    DAEMON_COLD_CRASH,
    DAEMON_CRASH,
    FAULT_KINDS,
    FaultCampaign,
    FaultEvent,
    FaultStats,
    LANAI_STALL,
    LINK_DOWN,
    LINK_ERROR_BURST,
    MergedFaultStats,
    PhaseAnchor,
    SWITCH_PORT_DOWN,
    phase,
    union_ns,
)
from repro.faults.orchestrator import (
    CampaignConflictError,
    CampaignSet,
    Conflict,
)
from repro.faults.injector import FaultInjector, PhaseSchedule

__all__ = [
    "DAEMON_COLD_CRASH",
    "DAEMON_CRASH",
    "FAULT_KINDS",
    "CampaignConflictError",
    "CampaignSet",
    "Conflict",
    "FaultCampaign",
    "FaultEvent",
    "FaultInjector",
    "FaultStats",
    "LANAI_STALL",
    "LINK_DOWN",
    "LINK_ERROR_BURST",
    "MergedFaultStats",
    "PhaseAnchor",
    "PhaseSchedule",
    "SWITCH_PORT_DOWN",
    "phase",
    "union_ns",
]
