"""Enclave builder and handle.

``EnclaveBuilder`` accumulates a description of an enclave — code pages
(from the assembler), data pages, shared insecure buffers, threads,
spares — then ``build()`` replays it as the SMC sequence an honest kernel
driver issues: InitAddrspace, InitL2PTable for every touched 4 MB slice,
MapSecure/MapInsecure, InitThread, AllocSpare, Finalise.

``EnclaveHandle`` is the host's runtime interface: entering threads,
resuming after interrupts, reading shared buffers, local-attestation
verification against an expected measurement, and teardown.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arm.assembler import Assembler
from repro.arm.memory import PAGE_SIZE, WORDS_PER_PAGE
from repro.arm.pagetable import l1_index
from repro.monitor.errors import KomErr
from repro.monitor.komodo import KomodoMonitor
from repro.monitor.layout import Mapping
from repro.osmodel.kernel import OSKernel, SharedBuffer
from repro.sdk.native import NativeEnclaveProgram

#: Default virtual layout for simple enclaves.
CODE_VA = 0x0001_0000
DATA_VA = 0x0010_0000
SHARED_VA = 0x0020_0000
IDENTITY_VA = 0x0030_0000


class BuildError(Exception):
    """The enclave description cannot be realised."""


class EnclaveLintWarning(UserWarning):
    """The enclave's code failed static analysis (``build(lint="warn")``)."""


@dataclass
class _PendingPage:
    va: int
    perms: Tuple[bool, bool, bool]  # (r, w, x)
    contents: Optional[List[int]]  # None = zero-filled


@dataclass
class _PendingShared:
    va: int
    writable: bool
    base: Optional[int] = None  # None = allocate fresh; else map this page


class EnclaveBuilder:
    """Describe an enclave, then build it through the monitor API."""

    def __init__(self, kernel: OSKernel):
        self.kernel = kernel
        self._pages: List[_PendingPage] = []
        self._shared: List[_PendingShared] = []
        self._threads: List[int] = []  # entry points
        self._spares = 0
        self._native: Optional[NativeEnclaveProgram] = None
        self._code_regions: List[Tuple[int, List[int]]] = []  # (va, words)

    # -- description -------------------------------------------------------

    def add_code(self, asm: Assembler) -> "EnclaveBuilder":
        """Add assembled code at ``CODE_VA``, split across as many pages
        as needed."""
        words = asm.assemble()
        if not words:
            raise BuildError("empty program")
        self._code_regions.append((CODE_VA, list(words)))
        for offset in range(0, len(words), WORDS_PER_PAGE):
            chunk = words[offset : offset + WORDS_PER_PAGE]
            self._pages.append(
                _PendingPage(
                    va=CODE_VA + offset * 4,
                    perms=(True, False, True),
                    contents=list(chunk),
                )
            )
        return self

    def add_data(
        self,
        contents: Optional[Sequence[int]] = None,
        va: int = DATA_VA,
        writable: bool = True,
    ) -> "EnclaveBuilder":
        """Add one secure, non-executable data page (measured, private to
        the enclave)."""
        if contents is not None and len(contents) > WORDS_PER_PAGE:
            raise BuildError("data exceeds one page")
        padded = None
        if contents is not None:
            padded = list(contents) + [0] * (WORDS_PER_PAGE - len(contents))
        self._pages.append(
            _PendingPage(va=va, perms=(True, writable, False), contents=padded)
        )
        return self

    def add_shared_buffer(
        self, va: int = SHARED_VA, writable: bool = True, base: Optional[int] = None
    ) -> "EnclaveBuilder":
        """Add an insecure page shared with the OS (unmeasured).

        ``base`` maps an existing insecure page instead of allocating a
        fresh one — the same physical page mapped into two enclaves is
        an enclave-to-enclave channel (paper section 4).
        """
        self._shared.append(_PendingShared(va=va, writable=writable, base=base))
        return self

    def add_thread(self, entry: int) -> "EnclaveBuilder":
        self._threads.append(entry)
        return self

    def add_spares(self, count: int) -> "EnclaveBuilder":
        self._spares += count
        return self

    def set_native_program(self, program: NativeEnclaveProgram) -> "EnclaveBuilder":
        """Use a native program; its identity page, at ``IDENTITY_VA``,
        becomes measured state."""
        self._native = program
        self.add_data(
            contents=program.identity_words(), va=IDENTITY_VA, writable=False
        )
        if not self._threads:
            # Native threads still need an entry point for the ABI; the
            # identity page's VA is a stable, measured choice.
            self._threads.append(IDENTITY_VA)
        return self

    # -- static analysis ---------------------------------------------------

    def lint_config(self):
        """The analysis configuration implied by this description.

        The builder knows the enclave's whole memory map, so the
        analyser gets real ground truth: every pending page becomes a
        mapped range with its permissions, secure *writable* data pages
        (the enclave's private state) seed the secret-taint lattice, and
        insecure shared buffers are the OS-visible ranges for
        declassification notes.
        """
        from repro.analysis.dataflow import AnalysisConfig, MappedRange

        mapped = [
            MappedRange(p.va, p.va + PAGE_SIZE, *p.perms) for p in self._pages
        ]
        mapped.extend(
            MappedRange(s.va, s.va + PAGE_SIZE, True, s.writable, False)
            for s in self._shared
        )
        secrets = tuple(
            (p.va, p.va + PAGE_SIZE)
            for p in self._pages
            if p.perms[1] and not p.perms[2]  # writable, non-executable
        )
        shared = tuple((s.va, s.va + PAGE_SIZE) for s in self._shared)
        return AnalysisConfig(
            secret_ranges=secrets,
            shared_ranges=shared,
            mapped_ranges=tuple(mapped),
        )

    def lint(self) -> List["object"]:
        """Statically analyse every code region against the enclave's
        own memory map; returns one report per (region, entry point)."""
        from dataclasses import replace

        from repro.analysis.lint import analyze_words

        config = self.lint_config()
        reports = []
        for va, words in self._code_regions:
            end = va + len(words) * 4
            entries = [e for e in self._threads if va <= e < end] or [va]
            for entry in entries:
                reports.append(
                    analyze_words(
                        words,
                        config=replace(config, base_va=va),
                        program=f"code@{va:#x}+entry@{entry:#x}",
                        entry_va=entry,
                    )
                )
        return reports

    def _run_lint(self, mode: str) -> None:
        if mode == "off" or not self._code_regions:
            return
        if mode not in ("warn", "error"):
            raise BuildError(f"unknown lint mode {mode!r}")
        for report in self.lint():
            if report.ok:
                continue
            rendered = report.render()
            if mode == "error":
                raise BuildError(f"enclave code fails static analysis:\n{rendered}")
            warnings.warn(rendered, EnclaveLintWarning, stacklevel=3)

    # -- realisation ------------------------------------------------------------

    def build(self, lint: str = "warn") -> "EnclaveHandle":
        """Realise the enclave through the monitor API.

        ``lint`` selects what happens when the static analyser finds
        error-severity problems in the enclave's code: ``"error"``
        refuses to build (the SDK-level analogue of the paper's
        verify-before-run discipline), ``"warn"`` (the default) emits an
        ``EnclaveLintWarning``, ``"off"`` skips analysis.
        """
        if not self._threads:
            raise BuildError("an enclave needs at least one thread")
        if not self._pages and self._native is None:
            raise BuildError("an enclave needs code or a native program")
        self._run_lint(lint)
        kernel = self.kernel
        as_page, l1pt_page = kernel.init_addrspace()
        owned = [l1pt_page]
        # One L2 table per touched 4 MB slice of the address space.
        l1indices = sorted(
            {l1_index(p.va) for p in self._pages}
            | {l1_index(s.va) for s in self._shared}
        )
        l2_pages: Dict[int, int] = {}
        for index in l1indices:
            l2_pages[index] = kernel.init_l2table(as_page, index)
            owned.append(l2_pages[index])
        data_pages: Dict[int, int] = {}
        for page in self._pages:
            readable, writable, executable = page.perms
            mapping = Mapping(
                va=page.va, readable=readable, writable=writable, executable=executable
            )
            data_pages[page.va] = kernel.map_secure(as_page, mapping, page.contents)
            owned.append(data_pages[page.va])
        buffers: List[SharedBuffer] = []
        for shared in self._shared:
            mapping = Mapping(
                va=shared.va, readable=True, writable=shared.writable, executable=False
            )
            buffers.append(kernel.map_insecure(as_page, mapping, base=shared.base))
        threads = [kernel.init_thread(as_page, entry) for entry in self._threads]
        owned.extend(threads)
        spares = [kernel.alloc_spare(as_page) for _ in range(self._spares)]
        owned.extend(spares)
        kernel.finalise(as_page)
        if self._native is not None:
            for thread_page in threads:
                kernel.monitor.register_native_program(
                    thread_page, self._native.factory
                )
        return EnclaveHandle(
            kernel=kernel,
            as_page=as_page,
            threads=threads,
            data_pages=data_pages,
            buffers=buffers,
            spares=spares,
            owned_pages=owned,
            native=self._native,
        )


@dataclass
class EnclaveHandle:
    """Host-side handle to a built enclave."""

    kernel: OSKernel
    as_page: int
    threads: List[int]
    data_pages: Dict[int, int]  # va -> secure pageno
    buffers: List[SharedBuffer]
    spares: List[int]
    owned_pages: List[int]
    native: Optional[NativeEnclaveProgram] = None
    _torn_down: bool = field(default=False, repr=False)

    @property
    def monitor(self) -> KomodoMonitor:
        return self.kernel.monitor

    @property
    def thread(self) -> int:
        return self.threads[0]

    # -- execution ----------------------------------------------------------

    def call(
        self, arg1: int = 0, arg2: int = 0, arg3: int = 0, thread: Optional[int] = None
    ) -> Tuple[KomErr, int]:
        """Enter the enclave and run to completion across interrupts."""
        return self.kernel.run_to_completion(
            thread if thread is not None else self.thread, arg1, arg2, arg3
        )

    def enter(
        self, arg1: int = 0, arg2: int = 0, arg3: int = 0, thread: Optional[int] = None
    ) -> Tuple[KomErr, int]:
        return self.kernel.enter(
            thread if thread is not None else self.thread, arg1, arg2, arg3
        )

    def resume(self, thread: Optional[int] = None) -> Tuple[KomErr, int]:
        return self.kernel.resume(thread if thread is not None else self.thread)

    # -- measurement / attestation -------------------------------------------------

    def measurement(self) -> List[int]:
        """The enclave's measurement (the OS can read it: it is public)."""
        from repro.monitor.measurement import measurement_of

        return measurement_of(self.monitor.pagedb, self.as_page)

    # -- shared memory ------------------------------------------------------------------

    def buffer(self, index: int = 0) -> SharedBuffer:
        return self.buffers[index]

    # -- teardown -------------------------------------------------------------------------

    def teardown(self) -> None:
        """Stop the enclave and return all its pages to the OS."""
        if self._torn_down:
            return
        remaining = list(self.owned_pages)
        self.kernel.stop_and_remove(self.as_page, remaining)
        self._torn_down = True
