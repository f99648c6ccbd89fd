"""Top-level Komodo monitor: boot, SMC dispatch, and execution context.

The monitor is the software that SGX implements in microcode (paper
section 3.2): a reference monitor for enclave manipulation and execution
living in TrustZone monitor mode.  This class composes the PageDB,
measurement, attestation, and the SMC/SVC handlers, and implements the
top-level SMC exception handler: marshalling arguments from registers,
preserving non-volatile registers, scrubbing non-return registers, and
switching worlds — the invariants the top-level ``smchandler`` predicate
of the specification demands (paper section 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from repro.arm.machine import MachineState
from repro.arm.modes import Mode, World
from repro.arm.registers import PSR
from repro.crypto.rng import HardwareRNG
from repro.monitor import integrity, journal
from repro.monitor.attestation import Attestation
from repro.monitor.enclave_exec import EnterOutcome, smc_enter, smc_resume
from repro.monitor.errors import KomErr
from repro.monitor.journal import run_transactional
from repro.monitor.layout import SMC
from repro.monitor.pagedb import PageDB
from repro.monitor.smc import (
    smc_alloc_spare,
    smc_finalise,
    smc_get_physpages,
    smc_init_addrspace,
    smc_init_l2ptable,
    smc_init_thread,
    smc_map_insecure,
    smc_map_secure,
    smc_query,
    smc_remove,
    smc_scrub,
    smc_stop,
)


@dataclass
class RecoveryReport:
    """What ``KomodoMonitor.recover`` found and did after a crash."""

    journal: str  # journal.RECOVERY_CLEAN | _DISCARDED | _REPLAYED
    native_threads_dropped: int = 0


class KomodoMonitor:
    """The Komodo monitor bound to one machine.

    Construction models the bootloader of section 7.2: it runs in secure
    world, establishes the monitor's memory layout (already fixed by the
    MemoryMap), zeroes the PageDB, and derives the attestation key from
    the hardware RNG, before the OS boots in normal world.
    """

    def __init__(
        self,
        state: Optional[MachineState] = None,
        rng: Optional[HardwareRNG] = None,
        secure_pages: int = 64,
        insecure_size: int = 0x100000,
        step_budget: int = 1_000_000,
        cpu_engine: Optional[str] = None,
    ):
        self.state = state or MachineState.boot(
            secure_pages=secure_pages, insecure_size=insecure_size
        )
        self.rng = rng or HardwareRNG()
        #: Execution engine for enclave code ("fast" | "reference" |
        #: None for the repro.arm.cpu default).
        self.cpu_engine = cpu_engine
        self.pagedb = PageDB(self.state)
        self.attestation = Attestation(self.state, self.rng)
        #: Max enclave instructions per entry before the harness injects a
        #: timer interrupt (a real OS always eventually interrupts).
        self.step_budget = step_budget
        #: Conservative banked-register save on entry (paper section 8.1
        #: lists removing it as a future optimisation; ablation toggles it).
        self.conservative_banked_save = True
        #: Suspended native-program generators, keyed by thread pageno.
        #: A model artifact standing in for saved ARM context; DESIGN.md.
        self._native_threads: Dict[int, Iterator] = {}
        #: Factories for native programs, keyed by thread pageno.
        self._native_factories: Dict[int, object] = {}
        #: One-shot interrupt deadline (enclave steps until IRQ), set by
        #: the OS model before Enter/Resume to model external interrupts.
        self._interrupt_deadline: Optional[int] = None
        #: Instrumentation hook invoked with the cycle counter at the
        #: moment user-mode execution begins (the paper's "(no return)"
        #: measurement point in Table 3).
        self.on_user_entry = None
        #: Hook invoked at the end of ``recover()`` (the multicore
        #: scheduler uses it to break a crashed core's monitor lock).
        self.on_recover = None
        self._boot()

    def _boot(self) -> None:
        """Run the bootloader (section 7.2) against our machine state."""
        from repro.monitor.boot import Bootloader

        bootloader = Bootloader(rng=self.rng)
        _, self.attestation, self.boot_report = bootloader.boot(self.state)

    # -- interrupt injection (attacker-controlled line) -------------------

    def schedule_interrupt(self, after_steps: int) -> None:
        """Arm an IRQ to fire after the enclave retires ``after_steps``
        instructions (or native preemption points)."""
        if after_steps < 0:
            raise ValueError("interrupt deadline must be non-negative")
        self._interrupt_deadline = after_steps

    def consume_interrupt_deadline(self) -> Optional[int]:
        deadline = self._interrupt_deadline
        self._interrupt_deadline = None
        return deadline

    # -- native program registry ---------------------------------------------

    def register_native_program(self, thread_page: int, factory) -> None:
        """Bind a native program factory to a thread page (SDK loader)."""
        self._native_factories[thread_page] = factory

    def native_program_for(self, thread_page: int) -> Optional[Iterator]:
        """The generator to run for a thread, if it is a native thread."""
        if thread_page in self._native_threads:
            return self._native_threads.pop(thread_page)
        factory = self._native_factories.get(thread_page)
        if factory is None:
            return None
        return factory(self, thread_page)

    def suspend_native_thread(self, thread_page: int, generator: Iterator) -> None:
        self._native_threads[thread_page] = generator

    def discard_native_thread(self, thread_page: int) -> None:
        """Drop a suspended generator (thread exited or faulted); the
        factory stays so the thread can be re-entered fresh."""
        self._native_threads.pop(thread_page, None)

    def remove_native_thread(self, thread_page: int) -> None:
        """Drop everything native about a thread (its page was Removed)."""
        self._native_threads.pop(thread_page, None)
        self._native_factories.pop(thread_page, None)

    # -- the SMC handler -------------------------------------------------------

    def smc(self, callno: int, *args: int) -> Tuple[KomErr, int]:
        """Issue an SMC as the normal-world OS.

        Marshals ``callno`` and up to four arguments through R0-R4,
        executes the SMC exception, and returns (R0, R1) = (err, value).
        """
        if self.state.world is not World.NORMAL:
            raise RuntimeError("SMCs are issued from normal world")
        regs = self.state.regs
        regs.write_gpr(0, callno)
        padded = list(args) + [0] * (4 - len(args))
        for i, arg in enumerate(padded[:4]):
            regs.write_gpr(i + 1, arg)
        self._smc_exception_entry()
        err, value = self._dispatch(callno, padded)
        self._smc_exception_return(err, value)
        return (err, value)

    def _smc_exception_entry(self) -> None:
        """Take the SMC exception: world switch into monitor mode."""
        state = self.state
        state.charge(state.costs.exception_entry + state.costs.world_switch)
        self._saved_cpsr = state.regs.cpsr.copy()
        state.regs.cpsr = PSR(mode=Mode.MON, irq_masked=True, fiq_masked=True)
        state.world = World.SECURE
        # Conservative save of the non-volatile registers (section 8.1).
        self._saved_nonvolatile = [state.regs.read_gpr(i) for i in range(4, 12)]
        state.charge(8 * state.costs.mem_access)

    def _smc_exception_return(self, err: KomErr, value: int) -> None:
        """Return to the OS: restore non-volatiles, scrub, set results.

        The top-level specification requires: non-volatile registers
        preserved, other non-return registers zeroed, insecure memory
        untouched, return in the correct mode (paper section 5.2).
        """
        state = self.state
        regs = state.regs
        regs.scrub_gprs()
        state.charge(13 * state.costs.instruction)
        for i, saved in enumerate(self._saved_nonvolatile):
            regs.write_gpr(i + 4, saved)
        state.charge(8 * state.costs.mem_access)
        regs.write_gpr(0, int(err))
        regs.write_gpr(1, value & 0xFFFFFFFF)
        regs.cpsr = self._saved_cpsr
        state.world = World.NORMAL
        state.charge(state.costs.exception_return + state.costs.world_switch)

    def _dispatch(self, callno: int, args) -> Tuple[KomErr, int]:
        """Route an SMC number to its handler.

        Non-executing calls run under a transaction committed only on
        SUCCESS, making each atomic against crashes and pure on error
        paths.  Enter/Resume run enclave code whose user-mode stores are
        architecturally immediate, so they manage their own smaller
        transaction windows inside ``enclave_exec``.
        """
        state = self.state
        state.charge(4 * state.costs.instruction)  # call-number compare chain
        # Lazy integrity check: before trusting the PageDB or any
        # metadata page, verify what this call will read.  Query /
        # GetPhysPages reveal nothing corruptible; Scrub is itself the
        # sweep.  Zero cycles and zero state changes when memory is
        # clean, so uncorrupted runs are bit-identical to before.
        if callno not in (SMC.QUERY, SMC.GET_PHYSPAGES, SMC.SCRUB):
            enter_thread = (
                args[0] if callno in (SMC.ENTER, SMC.RESUME) else None
            )
            report = integrity.precheck(self, enter_thread=enter_thread)
            if report.quarantined:
                return (KomErr.PAGE_QUARANTINED, report.quarantined[0])
        if callno == SMC.ENTER:
            outcome = smc_enter(self, args[0], args[1], args[2], args[3])
            return (outcome.err, outcome.value)
        if callno == SMC.RESUME:
            outcome = smc_resume(self, args[0])
            return (outcome.err, outcome.value)
        return run_transactional(
            state,
            lambda: self._dispatch_pure(callno, args),
            commit_if=lambda result: result[0] is KomErr.SUCCESS,
        )

    def _dispatch_pure(self, callno: int, args) -> Tuple[KomErr, int]:
        """The non-executing SMC handlers (run inside a transaction)."""
        if callno == SMC.QUERY:
            return smc_query(self)
        if callno == SMC.GET_PHYSPAGES:
            return smc_get_physpages(self)
        if callno == SMC.INIT_ADDRSPACE:
            return smc_init_addrspace(self, args[0], args[1])
        if callno == SMC.INIT_THREAD:
            return smc_init_thread(self, args[0], args[1], args[2])
        if callno == SMC.INIT_L2PTABLE:
            return smc_init_l2ptable(self, args[0], args[1], args[2])
        if callno == SMC.MAP_SECURE:
            return smc_map_secure(self, args[0], args[1], args[2], args[3])
        if callno == SMC.MAP_INSECURE:
            return smc_map_insecure(self, args[0], args[1], args[2])
        if callno == SMC.ALLOC_SPARE:
            return smc_alloc_spare(self, args[0], args[1])
        if callno == SMC.REMOVE:
            return smc_remove(self, args[0])
        if callno == SMC.FINALISE:
            return smc_finalise(self, args[0])
        if callno == SMC.STOP:
            return smc_stop(self, args[0])
        if callno == SMC.SCRUB:
            return smc_scrub(self)
        return (KomErr.INVALID_CALL, 0)

    # -- crash recovery ----------------------------------------------------

    def recover(self) -> RecoveryReport:
        """The warm-boot path after a watchdog reset mid-monitor.

        Models the bootloader re-entering the monitor after a crash:
        physical memory survived, everything volatile did not.  Replays
        or discards the commit journal, then re-establishes the boot
        handover state (normal world, SVC mode, scrubbed registers, no
        live enclave translation regime).  Idempotent — recovery itself
        may crash and be re-run.
        """
        state = self.state
        # The buffered transaction was monitor-stack state; it died with
        # the machine.
        state.txn = None
        journal_status = journal.recover(state)
        # Volatile execution state: translation regime, caches, the
        # interrupt line, and suspended native generators (stand-ins for
        # banked context that a real reset would lose; their threads
        # stay `entered` in the PageDB and can only be Removed after a
        # Stop, exactly like a thread whose context page went stale).
        state.load_ttbr0(None)
        state.flush_tlb()
        state.uarch.reset()
        state.pending_interrupt = False
        self._interrupt_deadline = None
        dropped = len(self._native_threads)
        self._native_threads.clear()
        # Handover to the OS, as the bootloader does (section 7.2).
        regs = state.regs
        regs.scrub_gprs()
        regs.write_sp(0, Mode.USR)
        regs.write_lr(0, Mode.USR)
        regs.cpsr = PSR(mode=Mode.SVC, irq_masked=False, fiq_masked=True)
        state.world = World.NORMAL
        if self.on_recover is not None:
            self.on_recover()
        return RecoveryReport(
            journal=journal_status, native_threads_dropped=dropped
        )
