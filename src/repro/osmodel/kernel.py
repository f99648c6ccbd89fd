"""Benign OS kernel model.

Models the normal-world software stack the paper's evaluation uses: a
bootloader has already reserved secure memory and started the monitor;
Linux boots and a kernel driver issues SMCs to create and run enclaves
(section 8.1).  The kernel tracks which secure pages it believes are free
(the monitor does no allocation of its own — the OS must choose free
pages or calls fail, section 4), manages insecure RAM for staging enclave
contents and shared buffers, and wraps the SMC ABI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.arm.bits import WORDSIZE
from repro.arm.memory import PAGE_SIZE, WORDS_PER_PAGE
from repro.arm.modes import World
from repro.monitor.errors import KomErr
from repro.monitor.komodo import KomodoMonitor
from repro.monitor.layout import KOM_MAGIC, Mapping, SMC
from repro.util.backoff import BackoffPolicy


class OSError_(Exception):
    """Raised when the kernel model cannot satisfy a request."""


@dataclass
class SharedBuffer:
    """An insecure page shared between the OS and an enclave."""

    base: int  # physical base address (page aligned)
    va: Optional[int] = None  # enclave virtual address once mapped

    def write_words(self, kernel: "OSKernel", words: Sequence[int], offset: int = 0) -> None:
        for i, word in enumerate(words):
            kernel.write_insecure(self.base + (offset + i) * WORDSIZE, word)

    def read_words(self, kernel: "OSKernel", count: int, offset: int = 0) -> List[int]:
        return [
            kernel.read_insecure(self.base + (offset + i) * WORDSIZE)
            for i in range(count)
        ]


class OSKernel:
    """The normal-world OS: secure-page bookkeeping + SMC issuing."""

    def __init__(self, monitor: KomodoMonitor):
        self.monitor = monitor
        err, npages = monitor.smc(SMC.GET_PHYSPAGES)
        if err is not KomErr.SUCCESS:
            raise OSError_("monitor did not report secure pages")
        err, magic = monitor.smc(SMC.QUERY)
        if err is not KomErr.SUCCESS or magic != KOM_MAGIC:
            raise OSError_("no Komodo monitor present")
        self.npages = npages
        self._free_pages = list(range(npages))
        insecure = monitor.state.memmap.insecure
        self._insecure_next = insecure.base
        self._insecure_limit = insecure.limit

    # -- secure-page accounting ------------------------------------------

    def alloc_page(self) -> int:
        """Pick a secure page the OS believes is free."""
        if not self._free_pages:
            raise OSError_("out of secure pages")
        return self._free_pages.pop(0)

    def release_page(self, pageno: int) -> None:
        """Return a page to the OS free list (after a successful Remove)."""
        if pageno in self._free_pages:
            raise OSError_(f"double free of secure page {pageno}")
        self._free_pages.insert(0, pageno)

    @property
    def free_page_count(self) -> int:
        return len(self._free_pages)

    # -- insecure memory --------------------------------------------------------

    def alloc_insecure_page(self) -> int:
        """Carve a fresh page out of insecure RAM."""
        base = self._insecure_next
        if base + PAGE_SIZE > self._insecure_limit:
            raise OSError_("out of insecure RAM")
        self._insecure_next += PAGE_SIZE
        return base

    def write_insecure(self, address: int, value: int) -> None:
        """A normal-world store (fails on protected memory, as hardware would)."""
        self.monitor.state.memory.checked_write(address, value, World.NORMAL)

    def read_insecure(self, address: int) -> int:
        return self.monitor.state.memory.checked_read(address, World.NORMAL)

    def stage_page(self, words: Sequence[int]) -> int:
        """Copy up to a page of words into fresh insecure RAM; returns base."""
        if len(words) > WORDS_PER_PAGE:
            raise OSError_("staged contents exceed one page")
        base = self.alloc_insecure_page()
        for i, word in enumerate(words):
            self.write_insecure(base + i * WORDSIZE, word)
        return base

    # -- SMC wrappers -------------------------------------------------------------

    def smc(self, callno: int, *args: int) -> Tuple[KomErr, int]:
        return self.monitor.smc(callno, *args)

    def smc_checked(self, callno: int, *args: int) -> int:
        """Issue an SMC and raise if the monitor rejects it."""
        err, value = self.monitor.smc(callno, *args)
        if err is not KomErr.SUCCESS:
            raise OSError_(f"SMC {callno} failed: {err!r}")
        return value

    # -- high-level enclave operations (the kernel driver) ---------------------------

    def init_addrspace(self) -> Tuple[int, int]:
        """Create an addrspace; returns (addrspace pageno, l1pt pageno)."""
        as_page = self.alloc_page()
        l1pt_page = self.alloc_page()
        self.smc_checked(SMC.INIT_ADDRSPACE, as_page, l1pt_page)
        return (as_page, l1pt_page)

    def init_l2table(self, as_page: int, l1index: int) -> int:
        l2pt_page = self.alloc_page()
        self.smc_checked(SMC.INIT_L2PTABLE, as_page, l2pt_page, l1index)
        return l2pt_page

    def map_secure(
        self, as_page: int, mapping: Mapping, contents: Optional[Sequence[int]] = None
    ) -> int:
        """Allocate + map a secure data page; returns its page number."""
        data_page = self.alloc_page()
        source = 0 if contents is None else self.stage_page(contents)
        self.smc_checked(SMC.MAP_SECURE, as_page, data_page, mapping.encode(), source)
        return data_page

    def map_insecure(
        self, as_page: int, mapping: Mapping, base: Optional[int] = None
    ) -> SharedBuffer:
        """Map an insecure page into the enclave.

        By default a fresh page is carved out of insecure RAM; passing
        ``base`` maps an existing page instead, which is how two
        enclaves come to share one channel page (the composite-pipeline
        links map the same physical page into both stages).
        """
        if base is None:
            base = self.alloc_insecure_page()
        self.smc_checked(SMC.MAP_INSECURE, as_page, mapping.encode(), base)
        return SharedBuffer(base=base, va=mapping.va)

    def init_thread(self, as_page: int, entry: int) -> int:
        thread_page = self.alloc_page()
        self.smc_checked(SMC.INIT_THREAD, as_page, thread_page, entry)
        return thread_page

    def alloc_spare(self, as_page: int) -> int:
        spare_page = self.alloc_page()
        self.smc_checked(SMC.ALLOC_SPARE, as_page, spare_page)
        return spare_page

    def finalise(self, as_page: int) -> None:
        self.smc_checked(SMC.FINALISE, as_page)

    def enter(
        self, thread_page: int, arg1: int = 0, arg2: int = 0, arg3: int = 0
    ) -> Tuple[KomErr, int]:
        return self.smc(SMC.ENTER, thread_page, arg1, arg2, arg3)

    def resume(self, thread_page: int) -> Tuple[KomErr, int]:
        return self.smc(SMC.RESUME, thread_page)

    def run_to_completion(
        self,
        thread_page: int,
        arg1: int = 0,
        arg2: int = 0,
        arg3: int = 0,
        max_resumes: int = 10_000,
    ) -> Tuple[KomErr, int]:
        """Enter a thread and keep resuming across interrupts until it
        exits or faults — what a scheduler-driven kernel does."""
        err, value = self.enter(thread_page, arg1, arg2, arg3)
        resumes = 0
        while err is KomErr.INTERRUPTED:
            resumes += 1
            if resumes > max_resumes:
                raise OSError_("enclave did not terminate")
            err, value = self.resume(thread_page)
        return (err, value)

    def stop_and_remove(self, as_page: int, pages: Sequence[int]) -> None:
        """Tear an enclave down: Stop, then Remove every page, addrspace last."""
        self.smc_checked(SMC.STOP, as_page)
        for pageno in pages:
            if pageno == as_page:
                continue
            self.smc_checked(SMC.REMOVE, pageno)
            self.release_page(pageno)
        self.smc_checked(SMC.REMOVE, as_page)
        self.release_page(as_page)

    # -- crash recovery (the kernel driver's watchdog path) --------------------------

    #: For each idempotent-on-retry SMC, the errors that mean "the
    #: interrupted call actually completed before the crash".  The
    #: monitor's commit protocol guarantees an interrupted call landed in
    #: exactly the pre-call or the completed state; re-issuing it
    #: therefore either succeeds (pre-call) or fails with one of these
    #: (completed), and nothing else.
    _RETRY_COMPLETED_ERRORS = {
        SMC.INIT_ADDRSPACE: (KomErr.PAGEINUSE,),
        SMC.INIT_THREAD: (KomErr.PAGEINUSE,),
        SMC.INIT_L2PTABLE: (KomErr.PAGEINUSE, KomErr.ADDRINUSE),
        SMC.MAP_SECURE: (KomErr.PAGEINUSE, KomErr.ADDRINUSE),
        SMC.MAP_INSECURE: (KomErr.ADDRINUSE,),
        SMC.ALLOC_SPARE: (KomErr.PAGEINUSE,),
        SMC.FINALISE: (KomErr.ALREADY_FINAL,),
        SMC.REMOVE: (KomErr.INVALID_PAGENO,),
        SMC.STOP: (),
    }

    def retry_after_crash(self, callno: int, *args: int) -> Tuple[KomErr, int]:
        """Re-issue an SMC that was interrupted by a monitor crash.

        Call after ``monitor.recover()``.  Returns SUCCESS both when the
        retry completes the call and when the first attempt already had
        (detected via the call's characteristic already-done error), so
        the driver's state machine can continue as if the crash never
        happened.  Stop is naturally idempotent; Enter/Resume are
        execution calls handled by ``recover_execution`` instead.
        """
        err, value = self.smc(callno, *args)
        if err in self._RETRY_COMPLETED_ERRORS.get(callno, ()):
            return (KomErr.SUCCESS, value)
        return (err, value)

    # -- transient failures (the kernel driver's patience) ---------------------------

    def retry_with_backoff(
        self,
        issue,
        *,
        transient: Tuple[KomErr, ...] = (KomErr.PAGE_QUARANTINED,),
        attempts: int = 4,
        seed: int = 0,
        base_delay: int = 64,
        cap: Optional[int] = None,
        deadline: Optional[int] = None,
    ) -> Tuple[KomErr, int]:
        """Bounded retry of a transient SMC outcome, with seeded backoff.

        ``issue`` is a zero-argument callable returning ``(err, value)``
        — typically a lambda re-issuing one SMC.  Outcomes in
        ``transient`` may clear up after the system state changes:
        ``PAGE_QUARANTINED`` from a precheck that contained corruption
        in *some* page (the next attempt runs against the repaired
        state), or a contended monitor lock on a multicore platform.

        The backoff between attempts is a deterministic, seeded,
        exponentially growing spin (``repro.util.backoff``) charged to
        the machine's cycle counter — never wall-clock — so campaign
        runs that exercise this path are bit-reproducible and the cost
        model sees the waiting.  ``cap`` bounds a single spin;
        ``deadline`` (absolute, in cycles) refuses any wait that would
        end past it.  Returns the final ``(err, value)`` after at most
        ``attempts`` issues (the last error, still transient, if none
        succeeded or the deadline cut the loop short).  The backoff
        session lives in this call's locals, so a crash escaping
        ``issue()`` leaves no retry state on the kernel.
        """
        state = self.monitor.state
        policy = BackoffPolicy(
            base_delay=base_delay, attempts=attempts, cap=cap, deadline=deadline
        )
        session = policy.session(seed)
        err, value = issue()
        while err in transient:
            delay = session.next_delay(now=state.cycles)
            if delay is None:
                break
            state.charge(delay)
            err, value = issue()
        return (err, value)

    def scrub(self) -> Tuple[int, int]:
        """Run the monitor's integrity sweep (``SMC_SCRUB``).

        Returns ``(fixed, quarantined)``: how many tags/pages the sweep
        repaired or healed, and how many pages it had to quarantine.
        """
        value = self.smc_checked(SMC.SCRUB)
        return (value >> 16, value & 0xFFFF)

    def recover_execution(
        self, thread_page: int, arg1: int = 0, arg2: int = 0, arg3: int = 0
    ) -> Tuple[KomErr, int]:
        """Resume running a thread whose Enter/Resume crashed.

        Depending on where the crash hit, the thread is either still
        suspended (entered, context saved — Resume it) or was never /
        no longer entered (Enter it fresh).  Either way, keep resuming
        across interrupts as ``run_to_completion`` does.
        """
        err, value = self.resume(thread_page)
        if err in (KomErr.NOT_ENTERED, KomErr.INVALID_THREAD):
            return self.run_to_completion(thread_page, arg1, arg2, arg3)
        resumes = 0
        while err is KomErr.INTERRUPTED:
            resumes += 1
            if resumes > 10_000:
                raise OSError_("enclave did not terminate after recovery")
            err, value = self.resume(thread_page)
        return (err, value)
