"""Refinement checker: every SMC is checked against the specification.

``CheckedMonitor`` wraps a concrete ``KomodoMonitor``.  Each SMC is run
both through the pure specification functions and the implementation;
afterwards the checker asserts, in the spirit of the paper's proof
obligations (section 5.2):

1. **Refinement** — the abstract PageDB extracted from concrete machine
   state equals the spec's output PageDB (and the returned error codes
   match).
2. **Invariants** — the spec-level PageDB validity invariants hold.
3. **Measurement refinement** — the implementation's incremental SHA-256
   chaining state equals a replay of the spec's abstract measured
   sequence, and finalised measurements match.
4. **Frame conditions** of the top-level ``smchandler`` predicate:
   non-volatile registers preserved, other non-return registers zeroed,
   insecure memory invariant for non-executing calls, return in the
   correct mode.
5. **Enter/Resume containment** — enclave execution changes nothing in
   the PageDB outside the entered enclave's own pages.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Tuple

from repro.arm.memory import WORDS_PER_PAGE, differing_words
from repro.arm.modes import Mode, World
from repro.crypto.sha256 import SHA256
from repro.monitor.errors import KomErr
from repro.monitor.komodo import KomodoMonitor
from repro.monitor.layout import AddrspaceState, PageType, SMC
from repro.spec.invariants import collect_violations
from repro.spec.pagedb import AbsAddrspace, AbsPageDb, AbsThread
from repro.spec.smc_spec import (
    spec_alloc_spare,
    spec_finalise,
    spec_init_addrspace,
    spec_init_l2ptable,
    spec_init_thread,
    spec_map_insecure,
    spec_map_secure,
    spec_remove,
    spec_stop,
)
from repro.verification.extract import extract_pagedb


class RefinementError(AssertionError):
    """The implementation diverged from the specification."""


def _normalise(db: AbsPageDb) -> AbsPageDb:
    """Erase fields extraction cannot recover (the measured sequence,
    and measurements of never-finalised addrspaces)."""
    entries = []
    for entry in db.entries:
        if isinstance(entry, AbsAddrspace):
            measurement = entry.measurement
            if entry.state is AddrspaceState.INIT:
                measurement = None
            entries.append(replace(entry, measured=(), measurement=measurement))
        else:
            entries.append(entry)
    return AbsPageDb(npages=db.npages, entries=tuple(entries))


class CheckedMonitor:
    """A KomodoMonitor whose every SMC is refinement- and invariant-checked."""

    def __init__(self, monitor: Optional[KomodoMonitor] = None, **kwargs):
        self.monitor = monitor or KomodoMonitor(**kwargs)
        self.spec_db = AbsPageDb.initial(self.monitor.pagedb.npages)
        self.checks_performed = 0

    @property
    def state(self):
        return self.monitor.state

    @property
    def pagedb(self):
        return self.monitor.pagedb

    # ------------------------------------------------------------------

    def smc(self, callno: int, *args: int) -> Tuple[KomErr, int]:
        """Issue an SMC, checking the implementation against the spec."""
        padded = list(args) + [0] * (4 - len(args))
        spec_outcome = self._run_spec(callno, padded)
        # The OS marshals callno/args into R0-R4 before executing SMC;
        # do the same here so the non-volatile snapshot reflects the
        # register state at the SMC boundary (r4 carries the 4th arg).
        regs = self.monitor.state.regs
        regs.write_gpr(0, callno)
        for i, arg in enumerate(padded[:4]):
            regs.write_gpr(i + 1, arg)
        pre_regs = {i: regs.read_gpr(i) for i in range(4, 12)}
        pre_mode = self.monitor.state.regs.cpsr.mode
        executes = callno in (SMC.ENTER, SMC.RESUME)
        # Enclave execution may write insecure memory; only
        # non-executing calls are framed by it.
        pre_insecure = None if executes else self._insecure_fingerprint()

        err, value = self.monitor.smc(callno, *args)

        self._check_frame_conditions(err, value, pre_regs, pre_mode)
        if not executes:
            self._check_insecure_invariant(pre_insecure)
        extracted = extract_pagedb(self.monitor.state)
        if spec_outcome is not None:
            spec_err, spec_db = spec_outcome
            if spec_err != err:
                raise RefinementError(
                    f"SMC {callno}: impl returned {err!r}, spec {spec_err!r}"
                )
            if _normalise(extracted) != _normalise(spec_db):
                raise RefinementError(
                    f"SMC {callno}: abstract state diverged from spec"
                )
            self.spec_db = spec_db
        else:
            # Enter/Resume: the validation half is a pure spec function;
            # the execution half is checked by containment.
            from repro.spec.enter_spec import (
                EXECUTION_RESULT_ERRORS,
                spec_validate_execution,
            )

            expected_err = spec_validate_execution(
                self.spec_db, padded[0], want_entered=(callno == SMC.RESUME)
            )
            if expected_err is not None:
                if err is not expected_err:
                    raise RefinementError(
                        f"SMC {callno}: impl returned {err!r}, "
                        f"spec validation requires {expected_err!r}"
                    )
            elif err not in EXECUTION_RESULT_ERRORS:
                raise RefinementError(
                    f"SMC {callno}: execution returned out-of-spec error {err!r}"
                )
            self._check_execution_containment(callno, padded[0], err, extracted)
            self.spec_db = self._adopt_execution_result(extracted)
        violations = collect_violations(self.spec_db, self.monitor.state.memmap)
        if violations:
            raise RefinementError(f"SMC {callno}: invariants broken: {violations}")
        self._check_measurements()
        self.checks_performed += 1
        return (err, value)

    # -- spec dispatch ----------------------------------------------------

    def _run_spec(self, callno: int, args) -> Optional[Tuple[KomErr, AbsPageDb]]:
        db = self.spec_db
        if callno in (SMC.QUERY, SMC.GET_PHYSPAGES):
            return (KomErr.SUCCESS, db)
        if callno == SMC.INIT_ADDRSPACE:
            return spec_init_addrspace(db, args[0], args[1])
        if callno == SMC.INIT_THREAD:
            return spec_init_thread(db, args[0], args[1], args[2])
        if callno == SMC.INIT_L2PTABLE:
            return spec_init_l2ptable(db, args[0], args[1], args[2])
        if callno == SMC.MAP_SECURE:
            contents, valid = self._read_insecure_page(args[3])
            return spec_map_secure(db, args[0], args[1], args[2], contents, valid)
        if callno == SMC.MAP_INSECURE:
            valid = self.monitor.state.memmap.insecure_page_aligned(args[2])
            return spec_map_insecure(db, args[0], args[1], args[2], valid)
        if callno == SMC.ALLOC_SPARE:
            return spec_alloc_spare(db, args[0], args[1])
        if callno == SMC.REMOVE:
            return spec_remove(db, args[0])
        if callno == SMC.FINALISE:
            return spec_finalise(db, args[0])
        if callno == SMC.STOP:
            return spec_stop(db, args[0])
        if callno in (SMC.ENTER, SMC.RESUME):
            return None
        return (KomErr.INVALID_CALL, db)

    def _read_insecure_page(self, address: int):
        state = self.monitor.state
        if address == 0:
            return ((0,) * WORDS_PER_PAGE, True)
        if not state.memmap.insecure_page_aligned(address):
            return ((0,) * WORDS_PER_PAGE, False)
        return (tuple(state.memory.read_words(address, WORDS_PER_PAGE)), True)

    # -- frame conditions ----------------------------------------------------

    def _check_frame_conditions(self, err, value, pre_regs, pre_mode) -> None:
        regs = self.monitor.state.regs
        if regs.read_gpr(0) != int(err) or regs.read_gpr(1) != (value & 0xFFFFFFFF):
            raise RefinementError("R0/R1 do not carry the SMC results")
        for i in (2, 3, 12):
            if regs.read_gpr(i) != 0:
                raise RefinementError(f"non-return register r{i} not scrubbed")
        for i, saved in pre_regs.items():
            if regs.read_gpr(i) != saved:
                raise RefinementError(f"non-volatile register r{i} clobbered")
        if regs.cpsr.mode is not pre_mode:
            raise RefinementError("SMC returned in the wrong mode")
        if self.monitor.state.world is not World.NORMAL:
            raise RefinementError("SMC returned in the wrong world")

    def _insecure_fingerprint(self) -> bytes:
        insecure = self.monitor.state.memmap.insecure
        return self.monitor.state.memory.region_bytes(insecure.base, insecure.size)

    def _check_insecure_invariant(self, pre_insecure: bytes) -> None:
        post = self._insecure_fingerprint()
        if post != pre_insecure:
            base = self.monitor.state.memmap.insecure.base
            differing = differing_words(base, pre_insecure, post)
            raise RefinementError(
                "non-executing SMC modified insecure memory at "
                f"{[hex(a) for a in differing[:4]]}"
            )

    # -- Enter/Resume containment ------------------------------------------------

    def _check_execution_containment(
        self, callno: int, thread_page: int, err: KomErr, extracted: AbsPageDb
    ) -> None:
        """Enclave execution must not touch other enclaves' pages."""
        pre = _normalise(self.spec_db)
        post = _normalise(extracted)
        target_as = None
        if self.spec_db.valid_pageno(thread_page):
            entry = self.spec_db[thread_page]
            if isinstance(entry, AbsThread):
                target_as = entry.addrspace
        for pageno in range(pre.npages):
            if target_as is not None and pre.owner_of(pageno) == target_as:
                continue
            if pre[pageno] != post[pageno]:
                raise RefinementError(
                    f"SMC {callno} modified page {pageno} outside the "
                    f"entered enclave (owner {pre.owner_of(pageno)})"
                )

    def _adopt_execution_result(self, extracted: AbsPageDb) -> AbsPageDb:
        """Merge execution effects into the tracked spec DB.

        Execution never changes the measured sequence or measurements, so
        the tracked ``measured`` fields are preserved and everything else
        is taken from the post-execution extraction.
        """
        entries = []
        for pageno in range(extracted.npages):
            new_entry = extracted[pageno]
            old_entry = self.spec_db[pageno]
            if isinstance(new_entry, AbsAddrspace) and isinstance(
                old_entry, AbsAddrspace
            ):
                new_entry = replace(
                    new_entry,
                    measured=old_entry.measured,
                    measurement=old_entry.measurement,
                )
            entries.append(new_entry)
        return AbsPageDb(npages=extracted.npages, entries=tuple(entries))

    # -- measurement refinement --------------------------------------------------

    def _check_measurements(self) -> None:
        """Replay each abstract measured sequence and compare hash states."""
        pagedb = self.monitor.pagedb
        for asno in self.spec_db.addrspaces():
            spec_entry = self.spec_db[asno]
            replay = SHA256()
            words = list(spec_entry.measured)
            for i in range(0, len(words), 16):
                replay.update_block_words(words[i : i + 16])
            if spec_entry.state is AddrspaceState.INIT:
                if pagedb.hash_state(asno) != replay.state_words:
                    raise RefinementError(
                        f"addrspace {asno}: hash chaining state diverged"
                    )
                if pagedb.hash_length(asno) != len(words) * 4:
                    raise RefinementError(
                        f"addrspace {asno}: measured length diverged"
                    )
            elif spec_entry.measurement is not None:
                if tuple(pagedb.measurement(asno)) != spec_entry.measurement:
                    raise RefinementError(
                        f"addrspace {asno}: final measurement diverged"
                    )

    # -- conveniences --------------------------------------------------------------

    def schedule_interrupt(self, after_steps: int) -> None:
        self.monitor.schedule_interrupt(after_steps)

    def register_native_program(self, thread_page: int, factory) -> None:
        self.monitor.register_native_program(thread_page, factory)
