"""Enclave execution: Enter, Resume, and the exception-handling loop.

This is the Figure 3 state machine: the SMC handler dispatches into
user mode (the MOVS PC, LR of the paper), the enclave runs until an
exception, and the handler for that exception decides whether to service
an SVC and re-enter the enclave, or to save context and return to the OS.

Two kinds of enclave code are supported (see DESIGN.md):

* **ARM programs** — instruction words in measured enclave pages,
  interpreted by ``repro.arm.cpu`` with full page-table translation.
  These are preemptible at instruction granularity.
* **Native programs** — Python generators registered against a thread
  page by the SDK loader; every machine-visible access still goes through
  the enclave's page tables and the cost model.  Generators yield at
  preemption points; a suspended generator stands in for the register
  context an ARM thread would save.

The OS controls *when* interrupts arrive (it may inject one after any
number of enclave steps) but learns only the type of exception taken —
the declassification boundary of section 6.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.arm.cpu import CPU, ExecutionResult, ExitReason
from repro.arm.modes import Mode
from repro.arm.registers import PSR
from repro.monitor import integrity
from repro.monitor.errors import KomErr
from repro.monitor.journal import run_transactional
from repro.monitor.layout import AddrspaceState, PageType, SVC
from repro.monitor.svc import (
    svc_attest,
    svc_get_random,
    svc_init_l2ptable,
    svc_map_data,
    svc_unmap_data,
    svc_verify_step0,
    svc_verify_step1,
    svc_verify_step2,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.monitor.komodo import KomodoMonitor

#: Exception-type codes surfaced to the OS on a FAULT return.  This is
#: the *only* information about a fault the OS learns (paper section 4).
FAULT_ABORT = 1
FAULT_UNDEFINED = 2


@dataclass
class EnterOutcome:
    """What an Enter/Resume SMC returns to the OS."""

    err: KomErr
    value: int
    svc_exits: int = 0  # number of non-Exit SVCs serviced (for tests)


def _atomically(mon: "KomodoMonitor", fn):
    """Run a bookkeeping window as an always-committed transaction.

    Enter/Resume cannot be atomic wholesale (user-mode stores hit memory
    architecturally), so each multi-word monitor mutation — context
    saves, entered/in-handler flag flips — is its own crash-atomic
    window, and the quiescent states between windows are the ones a
    crash audit accepts.
    """
    return run_transactional(mon.state, fn, commit_if=lambda _: True)


def _validate_thread_for_execution(
    mon: "KomodoMonitor", thread_page: int, want_entered: bool
) -> Tuple[KomErr, int]:
    """Common Enter/Resume validation; returns (err, addrspace pageno)."""
    pagedb = mon.pagedb
    if not pagedb.valid_pageno(thread_page):
        return (KomErr.INVALID_PAGENO, 0)
    if pagedb.page_type(thread_page) is not PageType.THREAD:
        return (KomErr.INVALID_THREAD, 0)
    asno = pagedb.owner(thread_page)
    as_state = pagedb.addrspace_state(asno)
    if as_state is AddrspaceState.INIT:
        return (KomErr.NOT_FINAL, 0)
    if as_state is AddrspaceState.STOPPED:
        return (KomErr.STOPPED, 0)
    entered = pagedb.thread_entered(thread_page)
    if want_entered and not entered:
        return (KomErr.NOT_ENTERED, 0)
    if not want_entered and entered:
        return (KomErr.ALREADY_ENTERED, 0)
    return (KomErr.SUCCESS, asno)


def _setup_mmu(mon: "KomodoMonitor", asno: int) -> None:
    """Load TTBR0 with the enclave's L1 table and flush the TLB.

    The flush is unconditional, matching the paper's unoptimised
    prototype (section 8.1); ``repro.tools.report.optimisation_rows``
    quantifies skipping it for repeated entries.
    """
    l1pt = mon.pagedb.l1pt_page(asno)
    mon.state.load_ttbr0(mon.pagedb.page_base(l1pt))
    mon.state.flush_tlb()


def _save_banked_registers(mon: "KomodoMonitor") -> None:
    """Conservatively save every banked register before enclave entry.

    The prototype 'conservatively saves and restores every non-volatile
    register ... [and] every banked register' (section 8.1).  We model
    the cost; the values themselves are preserved by construction in the
    simulator, so only the charge matters.
    """
    banked_accesses = 10 if mon.conservative_banked_save else 0
    mon.state.charge(banked_accesses * mon.state.costs.banked_reg_access)


def _enter_user_mode(mon: "KomodoMonitor", pc: int) -> None:
    """The MOVS PC, LR: drop to user mode with interrupts enabled."""
    state = mon.state
    state.regs.cpsr = PSR(mode=Mode.USR, irq_masked=False, fiq_masked=False)
    state.charge(state.costs.exception_return + state.costs.user_entry)
    state.tlb.require_consistent()
    if mon.on_user_entry is not None:
        mon.on_user_entry(state.cycles)


def _leave_user_mode(mon: "KomodoMonitor") -> None:
    """Back in monitor mode after an exception ended enclave execution.

    The prototype conservatively restores every banked register and
    unwinds monitor state on the way out (section 8.1); the charge
    covers that exit-side work.
    """
    state = mon.state
    state.regs.cpsr = PSR(mode=Mode.MON, irq_masked=True, fiq_masked=True)
    state.charge(state.costs.enclave_exit)


def smc_enter(
    mon: "KomodoMonitor",
    thread_page: int,
    arg1: int,
    arg2: int,
    arg3: int,
) -> EnterOutcome:
    """Enter an idle enclave thread at its entry point (paper Table 1)."""
    err, asno = _validate_thread_for_execution(mon, thread_page, want_entered=False)
    if err is not KomErr.SUCCESS:
        return EnterOutcome(err, 0)
    pagedb = mon.pagedb
    # User-mode stores are about to become possible: declare the
    # addrspace's DATA tags stale before the first one can land.
    integrity.mark_dirty(mon, asno)
    _save_banked_registers(mon)
    _setup_mmu(mon, asno)
    # Fresh register state: args in R0-R2, everything else zeroed so no
    # monitor or OS state leaks into the enclave (and, for integrity, so
    # the OS cannot influence the enclave beyond the declared arguments).
    regs = mon.state.regs
    regs.scrub_gprs()
    regs.write_gpr(0, arg1)
    regs.write_gpr(1, arg2)
    regs.write_gpr(2, arg3)
    regs.write_sp(0, Mode.USR)
    regs.write_lr(0, Mode.USR)
    mon.state.charge(16 * mon.state.costs.instruction)  # context establishment
    entry = pagedb.thread_entrypoint(thread_page)
    native = mon.native_program_for(thread_page)
    if native is not None:
        return _run_native(mon, thread_page, asno, native, resume=False)
    _enter_user_mode(mon, entry)
    return _execution_loop(mon, thread_page, asno, entry)


def smc_resume(mon: "KomodoMonitor", thread_page: int) -> EnterOutcome:
    """Resume a previously interrupted enclave thread."""
    err, asno = _validate_thread_for_execution(mon, thread_page, want_entered=True)
    if err is not KomErr.SUCCESS:
        return EnterOutcome(err, 0)
    pagedb = mon.pagedb
    integrity.mark_dirty(mon, asno)
    _save_banked_registers(mon)
    _setup_mmu(mon, asno)
    native = mon.native_program_for(thread_page)
    if native is not None:
        _atomically(mon, lambda: pagedb.set_thread_entered(thread_page, False))
        return _run_native(mon, thread_page, asno, native, resume=True)
    gprs, sp, lr, pc, cpsr_word = pagedb.load_thread_context(thread_page)
    # Context restore: 17 words loaded from the thread page into live
    # registers (the source of the Resume-vs-Enter gap in Table 3).
    mon.state.charge(17 * mon.state.costs.context_restore_word)
    regs = mon.state.regs
    for i, value in enumerate(gprs):
        regs.write_gpr(i, value)
    regs.write_sp(sp, Mode.USR)
    regs.write_lr(lr, Mode.USR)
    _atomically(mon, lambda: pagedb.set_thread_entered(thread_page, False))
    user_psr = PSR.from_word(cpsr_word)
    _enter_user_mode(mon, pc)
    # Restore the user-mode condition flags saved at interrupt time.
    regs.cpsr.n, regs.cpsr.z = user_psr.n, user_psr.z
    regs.cpsr.c, regs.cpsr.v = user_psr.c, user_psr.v
    return _execution_loop(mon, thread_page, asno, pc)


# ---------------------------------------------------------------------------
# ARM execution loop
# ---------------------------------------------------------------------------


def _execution_loop(
    mon: "KomodoMonitor", thread_page: int, asno: int, pc: int
) -> EnterOutcome:
    """Run the enclave until it exits, faults, or is interrupted.

    Mirrors the paper's single-entry-point loop (section 7.2): user-mode
    entry happens at one place; every exception handler funnels back here.
    """
    cpu = CPU(mon.state, engine=getattr(mon, "cpu_engine", None))
    svc_exits = 0
    # The attacker's interrupt deadline counts enclave instructions for
    # the whole Enter, surviving SVC returns and fault upcalls (the
    # interrupt line does not care about exceptions).
    deadline = mon.consume_interrupt_deadline()
    while True:
        result = cpu.run(
            pc,
            max_steps=mon.step_budget,
            interrupt_after=deadline,
        )
        if deadline is not None:
            deadline = max(0, deadline - result.steps)
        mon.state.charge(mon.state.costs.world_switch)
        if result.reason in (ExitReason.IRQ, ExitReason.FIQ, ExitReason.STEP_LIMIT):
            _save_interrupted_context(mon, thread_page, result)
            _leave_user_mode(mon)
            return EnterOutcome(KomErr.INTERRUPTED, 0, svc_exits)
        if result.reason in (ExitReason.ABORT, ExitReason.UNDEFINED):
            code = (
                FAULT_ABORT if result.reason is ExitReason.ABORT else FAULT_UNDEFINED
            )
            # Dispatcher interface (section 9.2): if the thread has a
            # registered fault handler and is not already inside it,
            # upcall into the enclave instead of telling the OS anything.
            handler = mon.pagedb.fault_handler(thread_page)
            if handler != 0 and not mon.pagedb.in_fault_handler(thread_page):

                def _upcall_bookkeeping():
                    pc = _save_fault_context(mon, thread_page, result)
                    mon.pagedb.set_in_fault_handler(thread_page, True)
                    return pc

                pc = _atomically(mon, _upcall_bookkeeping)
                regs = mon.state.regs
                regs.scrub_gprs()
                regs.write_gpr(0, code)
                regs.write_gpr(1, result.fault_address)
                mon.state.regs.cpsr = PSR(
                    mode=Mode.USR, irq_masked=False, fiq_masked=False
                )
                mon.state.charge(mon.state.costs.exception_return)
                pc = handler
                continue
            # No handler (or double fault): the thread exits with an
            # error code but no other information, to avoid side-channel
            # leaks (paper section 4).
            _atomically(
                mon,
                lambda: mon.pagedb.set_in_fault_handler(thread_page, False),
            )
            _leave_user_mode(mon)
            _scrub_return_registers(mon)
            integrity.refresh_data_tags(mon, asno)
            return EnterOutcome(KomErr.FAULT, code, svc_exits)
        # An SVC: dispatch it.  Exit returns to the OS; everything else
        # resumes the enclave at the instruction after the SVC.
        outcome, resume_pc = _handle_svc(mon, thread_page, asno, result)
        if outcome is not None:
            _leave_user_mode(mon)
            integrity.refresh_data_tags(mon, asno)
            return EnterOutcome(outcome.err, outcome.value, svc_exits)
        svc_exits += 1
        pc = resume_pc
        # Dynamic-memory SVCs may have written the live page tables;
        # re-establish TLB consistency before re-entering user mode.
        if not mon.state.tlb.consistent:
            mon.state.flush_tlb()
        mon.state.regs.cpsr = PSR(mode=Mode.USR, irq_masked=False, fiq_masked=False)
        mon.state.charge(mon.state.costs.exception_return)


def _save_fault_context(
    mon: "KomodoMonitor", thread_page: int, result: ExecutionResult
) -> int:
    """Save the faulting user context into its dedicated slot.

    The faulting PC was banked into the exception mode's LR and the
    user CPSR into its SPSR; registers are still live.  Returns the
    faulting PC for diagnostics.
    """
    regs = mon.state.regs
    fault_mode = Mode.ABT if result.reason is ExitReason.ABORT else Mode.UND
    pc = regs.read_lr(fault_mode)
    spsr = regs.read_spsr(fault_mode)
    gprs = [regs.read_gpr(i) for i in range(13)]
    mon.pagedb.save_fault_context(
        thread_page,
        gprs,
        regs.read_sp(Mode.USR),
        regs.read_lr(Mode.USR),
        pc,
        spsr.to_word(),
    )
    return pc


def _save_interrupted_context(
    mon: "KomodoMonitor", thread_page: int, result: ExecutionResult
) -> None:
    """Save user context into the thread page and mark it entered."""
    regs = mon.state.regs
    pc = regs.read_lr(Mode.IRQ)
    spsr = regs.read_spsr(Mode.IRQ)
    gprs = [regs.read_gpr(i) for i in range(13)]

    def _save():
        mon.pagedb.save_thread_context(
            thread_page,
            gprs,
            regs.read_sp(Mode.USR),
            regs.read_lr(Mode.USR),
            pc,
            spsr.to_word(),
        )
        mon.pagedb.set_thread_entered(thread_page, True)

    # The 17-word context save plus the entered flag commit together: a
    # crash mid-save must not leave a thread marked entered with a
    # half-written frame (or a full frame it will never see).
    _atomically(mon, _save)
    _scrub_return_registers(mon)


def _scrub_return_registers(mon: "KomodoMonitor") -> None:
    """Zero the user-visible registers before returning to the OS.

    Non-return registers are zeroed to prevent information leaks (paper
    section 5.2); R0/R1 are rewritten with (err, value) by the SMC
    dispatcher afterwards.
    """
    regs = mon.state.regs
    regs.scrub_gprs()
    regs.write_sp(0, Mode.USR)
    regs.write_lr(0, Mode.USR)
    mon.state.charge(15 * mon.state.costs.instruction)


def _handle_svc(
    mon: "KomodoMonitor", thread_page: int, asno: int, result: ExecutionResult
) -> Tuple[Optional[EnterOutcome], int]:
    """Dispatch one SVC.  Returns (final outcome or None, resume pc)."""
    regs = mon.state.regs
    resume_pc = regs.read_lr(Mode.SVC)
    number = result.svc_number
    args = [regs.read_gpr(i) for i in range(13)]
    mon.state.charge(mon.state.costs.exception_entry // 2)  # SVC dispatch
    if number == SVC.EXIT:
        retval = args[0]
        # Registers are not saved: the thread may be re-entered.  An
        # exit from inside a fault handler abandons the faulting frame.
        _atomically(
            mon, lambda: mon.pagedb.set_in_fault_handler(thread_page, False)
        )
        _scrub_return_registers(mon)
        return (EnterOutcome(KomErr.SUCCESS, retval), resume_pc)
    if number == SVC.RESUME_FAULT:
        # Return from the fault handler to the saved faulting context.
        if not mon.pagedb.in_fault_handler(thread_page):
            regs.write_gpr(0, int(KomErr.NOT_ENTERED))
            return (None, resume_pc)
        gprs, sp, lr, pc, cpsr_word = mon.pagedb.load_fault_context(thread_page)
        mon.state.charge(17 * mon.state.costs.context_restore_word)
        for i, value in enumerate(gprs):
            regs.write_gpr(i, value)
        regs.write_sp(sp, Mode.USR)
        regs.write_lr(lr, Mode.USR)
        _atomically(
            mon, lambda: mon.pagedb.set_in_fault_handler(thread_page, False)
        )
        saved_psr = PSR.from_word(cpsr_word)
        regs.cpsr.n, regs.cpsr.z = saved_psr.n, saved_psr.z
        regs.cpsr.c, regs.cpsr.v = saved_psr.c, saved_psr.v
        return (None, pc)
    err, values = dispatch_svc(mon, asno, number, args, thread_page)
    regs.write_gpr(0, int(err) if not values else values[0])
    if values and len(values) > 1:
        for i, value in enumerate(values):
            regs.write_gpr(i, value)
    elif not values:
        regs.write_gpr(0, int(err))
    return (None, resume_pc)


def dispatch_svc(
    mon: "KomodoMonitor",
    asno: int,
    number: int,
    args: List[int],
    thread_page: Optional[int] = None,
) -> Tuple[KomErr, List[int]]:
    """Route an SVC number to its handler (shared with native programs).

    ``thread_page`` identifies the calling thread, needed only by the
    dispatcher-interface SVCs.  Runs under a transaction committed only
    on SUCCESS, so every SVC is crash-atomic and error paths leave no
    partial mutations.

    Like the SMC dispatcher, the handler's trusted inputs — the PageDB
    and metadata pages — are integrity-checked first; a quarantine
    surfaces to the enclave as ``PAGE_QUARANTINED`` in R0 (its own
    addrspace may just have been stopped, in which case it will never
    run to observe it).
    """
    mon.state.memory.settle()  # as in ``KomodoMonitor._dispatch``
    report = integrity.precheck(mon)
    if report.quarantined:
        return (KomErr.PAGE_QUARANTINED, [])
    return run_transactional(
        mon.state,
        lambda: _dispatch_svc_pure(mon, asno, number, args, thread_page),
        commit_if=lambda result: result[0] is KomErr.SUCCESS,
    )


def _dispatch_svc_pure(
    mon: "KomodoMonitor",
    asno: int,
    number: int,
    args: List[int],
    thread_page: Optional[int] = None,
) -> Tuple[KomErr, List[int]]:
    if number == SVC.SET_FAULT_HANDLER:
        if thread_page is None:
            return (KomErr.INVALID_CALL, [])
        if args[0] == 0 and mon.pagedb.in_fault_handler(thread_page):
            # Clearing the handler from inside it would strand the saved
            # faulting frame: RESUME_FAULT still works, but a *second*
            # fault in the handler would then exit to the OS while the
            # thread still claims to be in a handler.  Reject it.
            return (KomErr.INVALID_CALL, [])
        mon.pagedb.set_fault_handler(thread_page, args[0])
        return (KomErr.SUCCESS, [])
    if number == SVC.GET_RANDOM:
        return svc_get_random(mon, asno)
    if number == SVC.ATTEST:
        return svc_attest(mon, asno, args[:8])
    if number == SVC.VERIFY_STEP0:
        return svc_verify_step0(mon, asno, args[:8])
    if number == SVC.VERIFY_STEP1:
        return svc_verify_step1(mon, asno, args[:8])
    if number == SVC.VERIFY_STEP2:
        return svc_verify_step2(mon, asno, args[:8])
    if number == SVC.INIT_L2PTABLE:
        return svc_init_l2ptable(mon, asno, args[0], args[1])
    if number == SVC.MAP_DATA:
        return svc_map_data(mon, asno, args[0], args[1])
    if number == SVC.UNMAP_DATA:
        return svc_unmap_data(mon, asno, args[0], args[1])
    return (KomErr.INVALID_CALL, [])


# ---------------------------------------------------------------------------
# Native program execution
# ---------------------------------------------------------------------------


def _run_native(
    mon: "KomodoMonitor",
    thread_page: int,
    asno: int,
    generator,
    resume: bool,
) -> EnterOutcome:
    """Drive a native (generator-based) enclave program.

    The generator yields at preemption points; if the OS scheduled an
    interrupt, execution suspends there and the generator handle stands
    in for saved context.  StopIteration carries the Exit value.
    """
    deadline = mon.consume_interrupt_deadline()
    steps = 0
    mon.state.charge(mon.state.costs.exception_return)  # user-mode entry
    while True:
        try:
            yielded = next(generator)
        except StopIteration as stop:
            retval = stop.value if stop.value is not None else 0
            mon.discard_native_thread(thread_page)
            _leave_user_mode(mon)
            _scrub_return_registers(mon)
            integrity.refresh_data_tags(mon, asno)
            return EnterOutcome(KomErr.SUCCESS, int(retval) & 0xFFFFFFFF)
        except NativeFault:
            mon.discard_native_thread(thread_page)
            _leave_user_mode(mon)
            _scrub_return_registers(mon)
            integrity.refresh_data_tags(mon, asno)
            return EnterOutcome(KomErr.FAULT, FAULT_ABORT)
        if yielded is not None:
            raise RuntimeError("native programs must yield None at preemption points")
        steps += 1
        if deadline is not None and steps >= deadline:
            mon.suspend_native_thread(thread_page, generator)
            _atomically(
                mon, lambda: mon.pagedb.set_thread_entered(thread_page, True)
            )
            mon.state.charge(mon.state.costs.exception_entry)
            _leave_user_mode(mon)
            _scrub_return_registers(mon)
            return EnterOutcome(KomErr.INTERRUPTED, 0)


class NativeFault(Exception):
    """Raised by a native program's context on a memory/permission fault;
    the enclave exits with ``FAULT_ABORT``."""

    def __init__(self):
        super().__init__("native enclave fault")
