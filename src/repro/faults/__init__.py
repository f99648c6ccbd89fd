"""Fault injection and crash-consistency auditing for the monitor.

The paper's proofs quantify over *every* reachable state; this package
makes the states a watchdog reset can expose mid-SMC reachable in the
executable model and checks them:

* :mod:`repro.faults.injector` — deterministic plans that abort
  execution at the N-th machine-visible monitor operation;
* :mod:`repro.faults.audit` — post-crash consistency checking (spec
  invariants via extraction plus an independent machine-level walk);
* :mod:`repro.faults.campaign` — exhaustive per-step fault campaigns
  over a full enclave lifecycle, with OS-side retry to completion and
  a fast/reference differential mode;
* :mod:`repro.faults.bitflip` — exhaustive single-bit-flip campaigns
  against the memory-integrity engine: every injection must end
  benign, repaired, or quarantined-and-contained, never in a silent
  wrong result;
* :mod:`repro.faults.snapshot` — campaign checkpoints: capture a
  lifecycle prefix once and rewind it in place per injected fault —
  the only way a trial forks;
* :mod:`repro.faults.driver` — the one trial loop every campaign runs
  on (golden run, then each trial, each a rewind of one checkpoint);
* :mod:`repro.faults.parallel` — sharded campaign execution: trials
  stripe across forked workers and the merged report is byte-identical
  to the serial one (the CLIs' ``--jobs N``).
"""

from repro.faults.audit import (
    audit_monitor,
    integrity_consistency,
    machine_consistency,
    secure_state_digest,
)
from repro.faults.bitflip import (
    BitflipCampaign,
    BitflipReport,
    FlipRecord,
    FlipSite,
)
from repro.faults.bitflip import run_differential as run_bitflip_differential
from repro.faults.campaign import (
    CampaignReport,
    LifecycleCampaign,
    StepReport,
    TrialRecord,
    run_differential,
)
from repro.faults.injector import FaultInjected, FaultPlan, inject
from repro.faults.snapshot import CampaignSnapshot

__all__ = [
    "BitflipCampaign",
    "BitflipReport",
    "CampaignReport",
    "CampaignSnapshot",
    "FaultInjected",
    "FaultPlan",
    "FlipRecord",
    "FlipSite",
    "LifecycleCampaign",
    "StepReport",
    "TrialRecord",
    "audit_monitor",
    "inject",
    "integrity_consistency",
    "machine_consistency",
    "run_bitflip_differential",
    "run_differential",
    "secure_state_digest",
]
