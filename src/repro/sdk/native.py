"""Native enclave programs (see DESIGN.md, "Native enclave programs").

Compute-heavy enclaves (the notary hashing half a megabyte) would be
impractically slow fully interpreted; the SDK therefore also supports
*native* programs: Python generator functions that stand in for the
enclave's user-mode code.  Fidelity is preserved where it matters:

* every memory access goes through the enclave's own page tables with
  permission checks, exactly like an interpreted load/store.  Like the
  fast engine's, the translations are cached in the micro-TLB
  (``UArchState.utlb``), which is discarded whenever ``TLB.version``
  moves and on ``restore``.  Word runs move one page at a time, and
  each word is still charged the PageDB lookup of the addrspace's L1PT;
* work is charged to the same cycle-cost model;
* ``yield`` marks a preemption point — an injected interrupt suspends the
  generator, the thread is marked entered, and Resume continues it;
* SVCs go through the monitor's real dispatch.

The program's identity is bound to the enclave measurement by placing an
identity page (containing the program's name hash) in measured enclave
memory, so two different native programs never share a measurement.
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional

from repro.arm.bits import WORDSIZE
from repro.arm.memory import PAGE_SIZE
from repro.arm.pagetable import PageTableWalker
from repro.crypto.sha256 import sha256
from repro.monitor.enclave_exec import NativeFault, dispatch_svc
from repro.monitor.errors import KomErr
from repro.monitor.komodo import KomodoMonitor
from repro.monitor.layout import SVC

_PAGE_OFFSET = PAGE_SIZE - 1


class NativeContext:
    """The view a native program has of its machine: its own address
    space (via page tables), its registers' worth of SVC arguments, and
    the cost model."""

    def __init__(self, monitor: KomodoMonitor, thread_page: int):
        self.monitor = monitor
        self.thread_page = thread_page
        self.asno = monitor.pagedb.owner(thread_page)
        self._walker = PageTableWalker(monitor.state.memory)

    # -- memory access through the enclave's page tables ------------------

    def _translate(self, va: int, write: bool) -> int:
        """Physical address of ``va``, or ``NativeFault``.

        Looks the page up in the fast engine's micro-TLB, under the same
        contract: the cache is dropped when ``TLB.version`` moves (a
        flush, a TTBR0 load, a store into a live table) and by
        ``restore``.  A miss walks from TTBR0, which Enter and Resume
        load from this addrspace's L1PT.  A failed walk is never cached,
        and the permission check runs on every access.
        """
        state = self.monitor.state
        # The cost model reads the addrspace's L1PT word from the PageDB
        # on every access, hit or miss: one mem_access per word, which
        # the pinned cycle counts include.
        state.charge(state.costs.mem_access)
        uarch = state.uarch
        if uarch.utlb_version != state.tlb.version:
            uarch.utlb = {}
            uarch.utlb_version = state.tlb.version
        translation = uarch.utlb.get(va >> 12)
        if translation is None:
            translation = self._walker.walk(state.ttbr0, va)
            if translation is None:
                raise NativeFault()
            uarch.utlb[va >> 12] = translation
        if not (translation.writable if write else translation.readable):
            raise NativeFault()
        return translation.phys_base | (va & _PAGE_OFFSET)

    def read_word(self, va: int) -> int:
        if va % WORDSIZE:
            raise NativeFault()
        paddr = self._translate(va, write=False)
        self.monitor.state.charge(self.monitor.state.costs.mem_access)
        return self.monitor.state.memory.read_word(paddr)

    def write_word(self, va: int, value: int) -> None:
        if va % WORDSIZE:
            raise NativeFault()
        paddr = self._translate(va, write=True)
        self.monitor.state.charge(self.monitor.state.costs.mem_access)
        self.monitor.state.memory.write_word(paddr, value)

    # The bulk accessors below move a run one page chunk at a time: one
    # translation, one memory burst, and 2n mem_access in all for the n
    # words (each word costs the L1PT lookup plus the access).  Cycles,
    # memory contents and the fault point are those of the per-word
    # loop: a fault on a page is raised after that page's L1PT charge
    # and before any of its words move.  The first word's access is
    # charged before the burst, so a bus fault (a descriptor pointing
    # outside RAM fails on a chunk's first word) costs what it did per
    # word.  A memory-engine integrity check failing mid-chunk aborts
    # the SMC and is charged as if at the chunk's first word.

    def read_words(self, va: int, count: int) -> List[int]:
        if count <= 0:
            return []
        if va % WORDSIZE:
            raise NativeFault()
        state = self.monitor.state
        access = state.costs.mem_access
        words: List[int] = []
        while len(words) < count:
            n = min(count - len(words), (PAGE_SIZE - (va & _PAGE_OFFSET)) // WORDSIZE)
            paddr = self._translate(va, write=False)
            state.charge(access)
            words += state.memory.read_words(paddr, n)
            state.charge(2 * (n - 1) * access)
            va += n * WORDSIZE
        return words

    def write_words(self, va: int, words) -> None:
        words = list(words)
        if not words:
            return
        if va % WORDSIZE:
            raise NativeFault()
        state = self.monitor.state
        access = state.costs.mem_access
        done = 0
        while done < len(words):
            n = min(len(words) - done, (PAGE_SIZE - (va & _PAGE_OFFSET)) // WORDSIZE)
            paddr = self._translate(va, write=True)
            if state.tlb.watches(paddr):
                # The frame is a live page table (a corrupted descriptor
                # can map one): a store may retarget the next word's
                # translation, so walk again after every word.
                n = 1
            state.charge(access)
            state.memory.write_words(paddr, words[done : done + n])
            state.charge(2 * (n - 1) * access)
            done += n
            va += n * WORDSIZE

    def read_bytes(self, va: int, count: int) -> bytes:
        """Read a word-aligned byte range (big-endian word packing)."""
        if count % WORDSIZE:
            raise NativeFault()
        words = self.read_words(va, count // WORDSIZE)
        return b"".join(w.to_bytes(4, "big") for w in words)

    # -- work accounting -------------------------------------------------------

    def charge(self, cycles: int) -> None:
        """Charge explicit computation cost (e.g. per hashed block)."""
        self.monitor.state.charge(cycles)

    # -- SVCs ---------------------------------------------------------------------

    def svc(self, number: int, *args: int) -> List[int]:
        """Issue an SVC through the monitor's real dispatch.

        Returns the result words; raises on a monitor-rejected call so
        native programs fail loudly rather than misinterpret an error
        code as data.
        """
        padded = list(args) + [0] * (13 - len(args))
        self.monitor.state.charge(self.monitor.state.costs.exception_entry)
        err, values = dispatch_svc(
            self.monitor, self.asno, number, padded, self.thread_page
        )
        self.monitor.state.charge(self.monitor.state.costs.exception_return)
        if err is not KomErr.SUCCESS:
            raise NativeSvcError(number, err)
        return values

    # -- convenience wrappers over the SVC API -----------------------------------------

    def get_random(self) -> int:
        return self.svc(SVC.GET_RANDOM)[0]

    def attest(self, data: List[int]) -> List[int]:
        if len(data) != 8:
            raise ValueError("attestation data must be 8 words")
        return self.svc(SVC.ATTEST, *data)

    def verify(self, data: List[int], measure: List[int], mac: List[int]) -> bool:
        """The three verify steps, wrapped back into Table 1's one call."""
        self.svc(SVC.VERIFY_STEP0, *data)
        self.svc(SVC.VERIFY_STEP1, *measure)
        return bool(self.svc(SVC.VERIFY_STEP2, *mac)[0])

    def map_data(self, spare_page: int, mapping_word: int) -> None:
        self.svc(SVC.MAP_DATA, spare_page, mapping_word)

    def unmap_data(self, data_page: int, mapping_word: int) -> None:
        self.svc(SVC.UNMAP_DATA, data_page, mapping_word)

    def init_l2ptable(self, spare_page: int, l1index: int) -> None:
        self.svc(SVC.INIT_L2PTABLE, spare_page, l1index)


class NativeSvcError(Exception):
    """An SVC issued by a native program was rejected by the monitor."""

    def __init__(self, number: int, err: KomErr):
        super().__init__(f"SVC {number} failed: {err!r}")
        self.number = number
        self.err = err


class NativeEnclaveProgram:
    """A named native program: a generator function plus its identity.

    ``body`` is a generator function ``(ctx, arg1, arg2, arg3) -> int``
    that yields at preemption points and returns its exit value.  The
    identity words (derived from ``name``) are placed in a measured page
    by the builder, binding the program to the enclave measurement.
    """

    def __init__(
        self,
        name: str,
        body: Callable[..., Generator[None, None, Optional[int]]],
    ):
        self.name = name
        self.body = body

    def identity_words(self) -> List[int]:
        digest = sha256(b"native-program:" + self.name.encode())
        return [int.from_bytes(digest[i : i + 4], "big") for i in range(0, 32, 4)]

    def factory(self, monitor: KomodoMonitor, thread_page: int):
        """The generator factory the monitor's Enter path invokes."""
        ctx = NativeContext(monitor, thread_page)
        regs = monitor.state.regs
        args = (regs.read_gpr(0), regs.read_gpr(1), regs.read_gpr(2))
        return self.body(ctx, *args)
