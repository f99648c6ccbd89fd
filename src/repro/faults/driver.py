"""The one campaign driver: every trial is a rewind of one checkpoint.

The lifecycle crash campaign (``repro.faults.campaign``), the bitflip
campaign (``repro.faults.bitflip``) and the pipeline chaos sweep
(``repro.pipeline.campaign``) share one loop.  At each quiescent step
the base machine is checkpointed once (``CampaignSnapshot``); the
golden (or discovery) continuation forks from it, then every trial in
this shard forks from it, each under the per-trial watchdog; a final
restore leaves the base machine at the pre-step state so the campaign
can advance it.  :meth:`Campaign._sweep` is that loop — a checkpoint
is restored exactly once for the golden run, once per trial, and once
at the end.

A campaign supplies only its own parts, each given the ``step``
context it passed to ``_sweep``:

* ``run()`` — the steps that advance the base machine;
* ``_golden(step)`` — run the golden continuation on the restored
  machine; return ``(points, golden)``: the trial points, and what the
  trials are judged against;
* ``_golden_timed_out(step, violation)`` — record a golden-run timeout;
* ``_record(step, ordinal, point)`` — add and return the
  :class:`Record` of one trial;
* ``_trial(step, golden, point, record)`` — run and judge one trial.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.crypto.rng import HardwareRNG
from repro.faults.snapshot import CampaignSnapshot
from repro.monitor.komodo import KomodoMonitor
from repro.util.watchdog import TrialTimeout, time_limit


class Record:
    """Base of the per-trial record dataclasses, which carry
    ``violations`` and a ``label`` naming the trial."""

    @property
    def shard_key(self) -> Optional[int]:
        """What ``repro.faults.parallel.merge_reports`` interleaves shard
        records by: the serial ordinal, or None for a record every
        shard produces."""
        return self.ordinal

    def timed_out(self) -> None:
        """Mark the record of a trial that hit the watchdog."""


class Step:
    """Base of the per-step report dataclasses: ``pre_violations``, then
    the trial records in the field ``RECORDS`` names (the field shards
    contribute to — ``repro.faults.parallel.merge_reports``)."""

    @property
    def trials(self) -> int:
        return len(getattr(self, self.RECORDS))

    @property
    def violations(self) -> List[str]:
        """The step's violations, in serial order."""
        records = getattr(self, self.RECORDS)
        return self.pre_violations + [v for r in records for v in r.violations]


class Report:
    """Base of the report dataclasses holding a ``steps`` list."""

    @property
    def violations(self) -> List[str]:
        return [v for step in self.steps for v in step.violations]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def total_trials(self) -> int:
        return sum(step.trials for step in self.steps)


class Campaign:
    """Shared parameters and the trial loop of every campaign.

    Parameters
    ----------
    seed:
        seeds the machine; a campaign is a deterministic function of
        its parameters.
    engine:
        execution engine for enclave code ("fast", "reference",
        "turbo", or None for the default).
    secure_pages:
        size of the booted monitor's secure region.
    stride:
        run every ``stride``-th trial point (1 = exhaustive).
    trial_timeout:
        optional wall-clock budget (seconds) for the golden run and
        for each trial; a wedged trial fails with a recorded violation
        instead of hanging the campaign (``repro.util.watchdog``).
    shard:
        optional ``(index, count)``: run only trials whose serial
        ordinal is ``index`` modulo ``count``.  Golden runs execute in
        every shard (they are what each shard's trials are judged
        against), so ``count`` shard reports merge back into exactly
        the serial report (``repro.faults.parallel``).
    """

    def __init__(
        self,
        seed: int,
        engine: Optional[str],
        secure_pages: int,
        stride: int = 1,
        trial_timeout: Optional[float] = None,
        shard: Optional[Tuple[int, int]] = None,
    ) -> None:
        if stride < 1:
            raise ValueError("stride must be >= 1")
        if shard is not None and not 0 <= shard[0] < shard[1]:
            raise ValueError(f"shard index out of range: {shard}")
        self.seed = seed
        self.engine = engine
        self.secure_pages = secure_pages
        self.stride = stride
        self.trial_timeout = trial_timeout
        self.shard = shard

    def _boot(self) -> KomodoMonitor:
        return KomodoMonitor(
            rng=HardwareRNG(self.seed),
            secure_pages=self.secure_pages,
            cpu_engine=self.engine,
        )

    def _sweep(self, checkpoint: CampaignSnapshot, name: str, step: Any) -> None:
        """Fork the golden run and each of this shard's trials from
        ``checkpoint``, then restore it once more for the caller."""
        checkpoint.restore()
        points: Sequence = ()
        try:
            with time_limit(self.trial_timeout, f"{name} golden run"):
                points, golden = self._golden(step)
        except TrialTimeout as exc:
            self._golden_timed_out(step, f"{name}: {exc}")
        for ordinal, point in enumerate(points):
            # Trials are isolated (each rewinds the checkpoint), so a
            # shard may skip any subset without perturbing the rest.
            if self.shard is not None and ordinal % self.shard[1] != self.shard[0]:
                continue
            checkpoint.restore()
            record = self._record(step, ordinal, point)
            try:
                with time_limit(self.trial_timeout, f"{name} {record.label}"):
                    self._trial(step, golden, point, record)
            except TrialTimeout as exc:
                # The next restore discards the stranded machine.
                record.timed_out()
                record.violations.append(f"{name}: {exc}")
        checkpoint.restore()
