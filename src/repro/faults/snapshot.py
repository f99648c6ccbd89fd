"""Campaign checkpoints: capture a lifecycle prefix once, restore per fault.

Every campaign trial forks by rewinding a ``CampaignSnapshot`` in
place (``repro.faults.driver``): the machine is captured through
``MachineState.snapshot()`` (one flat ``array`` slice plus small
register/TLB copies) and the handful of Python-side monitor/OS fields
that execution mutates are recorded and written back.  Rewinding is
cheaper than a per-trial ``copy.deepcopy``, which walks every Python
object in the monitor graph.

Restoring is equivalent to running the trial on a deep copy:

* the machine snapshot covers everything architecturally visible
  (memory + encryption tags, registers, TLB state, world/TTBR0/cycles)
  and resets the microarchitectural caches — the same cold-cache state
  a fresh deep copy starts from;
* the monitor's Python-side mutable state is exactly the one-shot
  interrupt deadline, the native-program registry, and the hardware
  RNG's draw position (its counter and pool); all are restored in
  place, so objects holding references to the monitor, its state, or
  its RNG (``Attestation``, ``PageDB``, ``OSKernel``) stay valid;
* the OS kernel's mutable state is its free-page list and the next
  insecure staging page (a ``retry_with_backoff`` session lives in
  the call's locals, so a crash injected mid-retry leaves nothing
  behind on the kernel);
* when a ``MultiCoreMachine`` scheduler is captured too, its PRNG
  state, core list, event logs (linearisation, crashes, quarantines)
  and monitor-lock state are rewound as well, so a multicore trial
  forks bit-identically: the next trial's interleaving draws the same
  random choices the first one did.

tests/faults/test_snapshot.py checks a restore against a deep-copy
fork, and tests/faults/test_report_digests.py pins whole-campaign
reports by digest.

Native-thread generators cannot be checkpointed (a suspended Python
generator is not copyable); campaigns capture only at quiescent points
where no native thread is live, and the constructor enforces that.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.monitor.komodo import KomodoMonitor
from repro.osmodel.kernel import OSKernel


class CampaignSnapshot:
    """One restorable checkpoint of a (monitor, optional kernel) pair."""

    __slots__ = (
        "monitor",
        "kernel",
        "machine",
        "rng_counter",
        "rng_pool",
        "interrupt_deadline",
        "native_factories",
        "free_pages",
        "insecure_next",
        "scheduler",
        "sched_rng",
        "sched_cores",
        "sched_events",
        "lock_stats",
    )

    def __init__(
        self,
        monitor: KomodoMonitor,
        kernel: Optional[OSKernel] = None,
        scheduler=None,
    ):
        if monitor._native_threads:
            raise ValueError(
                "cannot snapshot with live native threads (suspended "
                "generators are not checkpointable); capture at a "
                "quiescent lifecycle point"
            )
        if kernel is not None and kernel.monitor is not monitor:
            raise ValueError("kernel is not bound to this monitor")
        self.monitor = monitor
        self.kernel = kernel
        self.machine = monitor.state.snapshot()
        rng = monitor.rng
        self.rng_counter = rng._counter
        self.rng_pool = list(rng._pool)
        self.interrupt_deadline = monitor._interrupt_deadline
        self.native_factories = dict(monitor._native_factories)
        if kernel is not None:
            self.free_pages = list(kernel._free_pages)
            self.insecure_next = kernel._insecure_next
        else:
            self.free_pages = None
            self.insecure_next = None
        self.scheduler = scheduler
        if scheduler is not None:
            if scheduler.monitor is not monitor:
                raise ValueError("scheduler is not bound to this monitor")
            if any(not core.finished for core in scheduler.cores):
                raise ValueError(
                    "cannot snapshot with unfinished core scripts (a "
                    "suspended script generator is not checkpointable); "
                    "capture before cores are added or after they finish"
                )
            self.sched_rng = scheduler.random.getstate()
            self.sched_cores = len(scheduler.cores)
            self.sched_events = (
                len(scheduler.linearisation),
                len(scheduler.crashes),
                len(scheduler.quarantines),
            )
            lock = scheduler.lock
            self.lock_stats = (
                lock.acquisitions,
                lock.contended_waits,
                lock.recovery_releases,
            )

    def restore(self) -> Tuple[KomodoMonitor, Optional[OSKernel]]:
        """Rewind the captured monitor (and kernel) in place.

        Returns the same objects passed to the constructor, for use as
        a drop-in for the deep-copy trial factory.  May be called any
        number of times.
        """
        monitor = self.monitor
        monitor.state.restore(self.machine)
        rng = monitor.rng
        rng._counter = self.rng_counter
        rng._pool = list(self.rng_pool)
        monitor._interrupt_deadline = self.interrupt_deadline
        monitor._native_threads = {}
        monitor._native_factories = dict(self.native_factories)
        kernel = self.kernel
        if kernel is not None:
            kernel._free_pages = list(self.free_pages)
            kernel._insecure_next = self.insecure_next
        scheduler = self.scheduler
        if scheduler is not None:
            # Rewind the per-core run-queue state so a trial forks
            # bit-identically: same PRNG sequence, same (captured) core
            # list, empty event logs past the capture point, and a
            # monitor lock nobody holds.  The crashed trial may have
            # left the lock held by a dead core or cores mid-script;
            # neither survives the rewind.
            scheduler.random.setstate(self.sched_rng)
            del scheduler.cores[self.sched_cores :]
            lin, crashes, quarantines = self.sched_events
            del scheduler.linearisation[lin:]
            del scheduler.crashes[crashes:]
            del scheduler.quarantines[quarantines:]
            lock = scheduler.lock
            lock._holder = None
            (
                lock.acquisitions,
                lock.contended_waits,
                lock.recovery_releases,
            ) = self.lock_stats
            monitor.on_recover = lock.break_for_recovery
        return monitor, kernel
