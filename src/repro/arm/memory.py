"""Physical memory and the platform memory map (paper Figure 4).

The model follows the paper's memory-model decisions (section 5.1):
memory is a mapping from word-aligned physical addresses to 32-bit
values, and only aligned word accesses exist, so accesses to distinct
addresses are independent.

The platform map mirrors the prototype's bootloader-established layout:
a monitor image region (code and globals), a monitor stack, a region of
*secure pages* reserved for enclaves and protected by hardware from
normal-world access, and the remaining RAM as *insecure* memory fully
accessible to the OS.

Storage is a flat ``bytearray`` covering the whole RAM range (the
regions tile one contiguous span by construction) viewed through a
``memoryview`` cast to native 32-bit words, so word access is an index
operation and the bulk page helpers — zero, copy, burst read/write,
and the ``region_bytes`` fingerprint that memory-region comparisons and
digests use — are single slice operations.  Reads have no side effect
on either memory class, so verifiers read and fingerprint memory
freely.
This module owns what a store implies: every mutator marks the pages
it wrote dirty, bumps ``generation`` and, on a store into a live page
table, poisons the TLB bound by ``watch`` (paper section 5.1).  Only the
turbo engine's inline stores (``arm/blocks.py``) repeat that check.
``checkpoint``/``rewind`` save and restore the contents.

Page stamps let verifiers skip pages that have not changed.
``page_stamp(address)`` is ``None`` while the page is in the dirty set;
otherwise it is a process-unique token naming the page's exact bytes:
the token of the ``checkpoint`` that last captured the page dirty, or
0 for a never-written zero page.  The contract: if a page has the same
non-``None`` stamp at two moments, on this memory or any other in the
process, its bytes are identical at both.  ``checkpoint`` stamps the
dirty pages before it clears the set, ``settle`` does the same for a
memory no checkpoint has anchored yet (no ``rewind`` reads its dirty
set, so a cold boot's pages need not stay unstamped until the first
snapshot), ``rewind`` leaves the stamps equal to the checkpoint's and
``__deepcopy__`` copies them with the bytes, so the store path is
untouched: ``_dirty`` stays the one record of writes (including the
turbo engine's inline stores and ``flip_bit``).
``StampMemo`` memoises a per-page derivation on ``(base, stamp)``; the
integrity engine's page CRCs and the campaign audit's table scans use
it (see DESIGN.md, "Memory integrity & graceful degradation").
``generation`` counts every mutation; the fast-path execution engine
uses it to invalidate its decoded-instruction cache (see DESIGN.md,
"Fast-path engine").
"""

from __future__ import annotations

import itertools
from array import array
from copy import deepcopy as _deepcopy
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.arm.bits import WORDSIZE, word_aligned
from repro.arm.modes import World

PAGE_SIZE = 0x1000
WORDS_PER_PAGE = PAGE_SIZE // WORDSIZE

_PAGE_MASK = ~(PAGE_SIZE - 1)

#: Typecode of a 32-bit unsigned array element on this platform.
_TYPECODE = next(tc for tc in ("I", "L") if array(tc).itemsize == 4)

#: Process-wide checkpoint tokens; 0 never issues, so a never-anchored
#: memory matches no checkpoint.  A token also stamps the pages its
#: checkpoint captured dirty (``page_stamp``), so stamps are unique too.
_SNAP_TOKENS = itertools.count(1)

#: Tests set this False to force every ``rewind`` down the full-buffer
#: path, the oracle the dirty-page path is pinned against.
DELTA_RESTORE = True


class MemoryFault(Exception):
    """Raised on an access the hardware would fault: unmapped address,
    misaligned word access, or a world-protection violation."""

    def __init__(self, address: int, reason: str):
        super().__init__(f"memory fault at {address:#010x}: {reason}")
        self.address = address
        self.reason = reason


class Region:
    """A contiguous physical region ``[base, base+size)``."""

    __slots__ = ("name", "base", "size", "limit")

    def __init__(self, name: str, base: int, size: int):
        self.name = name
        self.base = base
        self.size = size
        self.limit = base + size

    def contains(self, address: int) -> bool:
        return self.base <= address < self.limit

    def overlaps(self, other: "Region") -> bool:
        return self.base < other.limit and other.base < self.limit

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Region({self.name!r}, {self.base:#x}, {self.size:#x})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Region)
            and (self.name, self.base, self.size) == (other.name, other.base, other.size)
        )

    def __hash__(self) -> int:
        return hash((self.name, self.base, self.size))


class MemoryMap:
    """The platform physical memory map.

    Defaults give a small SoC-like map: 64 KiB of monitor image/data,
    16 KiB of monitor stack, a configurable number of secure pages, and
    1 MiB of insecure RAM for the OS.  All regions are page aligned and
    disjoint; the constructor checks this.
    """

    def __init__(
        self,
        secure_pages: int = 64,
        insecure_size: int = 0x100000,
        monitor_image_size: int = 0x10000,
        monitor_stack_size: int = 0x4000,
    ):
        if secure_pages < 1:
            raise ValueError("need at least one secure page")
        base = 0x8000_0000
        self.monitor_image = Region("monitor_image", base, monitor_image_size)
        base = self.monitor_image.limit
        self.monitor_stack = Region("monitor_stack", base, monitor_stack_size)
        base = self.monitor_stack.limit
        self.secure = Region("secure", base, secure_pages * PAGE_SIZE)
        base = self.secure.limit
        self.insecure = Region("insecure", base, insecure_size)
        self.secure_pages = secure_pages
        regions = self.regions()
        for i, first in enumerate(regions):
            if first.base % PAGE_SIZE or first.size % PAGE_SIZE:
                raise ValueError(f"region {first.name} is not page aligned")
            for second in regions[i + 1 :]:
                if first.overlaps(second):
                    raise ValueError(f"regions {first.name} and {second.name} overlap")

    def regions(self) -> List[Region]:
        return [self.monitor_image, self.monitor_stack, self.secure, self.insecure]

    # -- secure page numbering -----------------------------------------

    def page_base(self, pageno: int) -> int:
        """Physical base address of secure page ``pageno``."""
        # ``valid_pageno`` inlined: every PageDB field access lands here.
        if isinstance(pageno, int) and 0 <= pageno < self.secure_pages:
            return self.secure.base + pageno * PAGE_SIZE
        raise ValueError(f"invalid secure page number {pageno}")

    def pageno_of(self, address: int) -> int:
        """Secure page number containing ``address`` (must be secure)."""
        if not self.secure.contains(address):
            raise ValueError(f"{address:#x} is not in the secure region")
        return (address - self.secure.base) // PAGE_SIZE

    def valid_pageno(self, pageno: int) -> bool:
        return isinstance(pageno, int) and 0 <= pageno < self.secure_pages

    # -- address classification ------------------------------------------

    def is_secure(self, address: int) -> bool:
        return self.secure.contains(address)

    def is_insecure(self, address: int) -> bool:
        return self.insecure.contains(address)

    def is_monitor(self, address: int) -> bool:
        return self.monitor_image.contains(address) or self.monitor_stack.contains(address)

    def insecure_page_aligned(self, address: int) -> bool:
        """True if ``address`` is a page-aligned address of an insecure page.

        The paper (section 9.1) notes the subtlety this check fixes: an
        address passed by the OS for MapSecure/MapInsecure must not only
        avoid the secure region, it must also avoid the monitor's own
        image and stack.  We classify strictly by region.
        """
        return address % PAGE_SIZE == 0 and self.is_insecure(address)


class PhysicalMemory:
    """Word-granularity physical memory with world-based protection.

    Accesses carry the world performing them; normal-world accesses to
    secure or monitor regions fault, which models the TrustZone-aware
    memory controller that partitions RAM between worlds.
    """

    def __init__(self, memmap: MemoryMap):
        self.map = memmap
        regions = memmap.regions()
        base = min(region.base for region in regions)
        limit = max(region.limit for region in regions)
        if sum(region.size for region in regions) != limit - base:
            # Flat addressing requires the regions to tile one span; the
            # MemoryMap constructor lays them out back to back.
            raise ValueError("memory map regions must tile a contiguous range")
        self._base = base
        self._size = limit - base
        #: Backing bytes; ``_store`` is a word-cast view of this buffer.
        #: Snapshots copy ``_buf`` (a view slice would alias, not copy).
        self._buf = bytearray(self._size)
        self._store = memoryview(self._buf).cast(_TYPECODE)
        #: Bumped on every mutation; invalidates fast-path caches.
        self.generation = 0
        #: Pages (``offset >> 12``) written since the last snapshot
        #: anchor.  Mutated in place only — the turbo engine bakes this
        #: set's identity into compiled code, exactly like ``_store``.
        self._dirty: set = set()
        #: Token of the checkpoint the dirty set is relative to (0 = no
        #: anchor).  See ``checkpoint``/``rewind``.
        self._snap_token = 0
        #: Per-page stamps (index ``offset >> 12``), valid for pages
        #: outside ``_dirty``; see ``page_stamp``.  0 = never written.
        self._stamps: List[int] = [0] * (self._size // PAGE_SIZE)
        #: The TLB stores poison, and its footprint (the TLB's own set).
        self._tlb = None
        self._watched = frozenset()

    def watch(self, tlb) -> None:
        """Make stores into ``tlb``'s page-table footprint poison it
        (bound by ``TLB.set_ttbr`` and ``MachineState.restore``)."""
        self._tlb = tlb
        self._watched = tlb._table_pages

    def _poison(self, address: int, nbytes: int) -> None:
        """Poison once per watched page ``[address, address+nbytes)`` covers."""
        for page in range(address & _PAGE_MASK, address + nbytes, PAGE_SIZE):
            if page in self._watched:
                self._tlb.note_store(page)

    # -- raw access (no protection; used by the monitor and the loader) --

    def read_word(self, address: int) -> int:
        offset = address - self._base
        if not offset & 3 and 0 <= offset < self._size:
            return self._store[offset >> 2]
        raise self._fault(address, "read")

    def write_word(self, address: int, value: int) -> None:
        self._put(address, value)
        if address & _PAGE_MASK in self._watched:  # no call when unwatched
            self._tlb.note_store(address)

    def _put(self, address: int, value: int) -> None:
        """Store one word without poisoning the TLB."""
        offset = address - self._base
        if not offset & 3 and 0 <= offset < self._size:
            self._store[offset >> 2] = value & 0xFFFFFFFF
            self._dirty.add(offset >> 12)
            self.generation += 1
            return
        raise self._fault(address, "write")

    def _fault(self, address: int, what: str) -> MemoryFault:
        if not word_aligned(address):
            return MemoryFault(address, f"misaligned word {what}")
        return MemoryFault(address, f"{what} of unmapped address")

    # -- world-checked access (used by OS code and devices) --------------

    def checked_read(self, address: int, world: World) -> int:
        self._check(address, world, "read")
        return self.read_word(address)

    def checked_write(self, address: int, value: int, world: World) -> None:
        self._check(address, world, "write")
        self.write_word(address, value)

    def _check(self, address: int, world: World, what: str) -> None:
        if world is World.NORMAL and (
            self.map.is_secure(address) or self.map.is_monitor(address)
        ):
            raise MemoryFault(address, f"normal-world {what} of protected memory")

    # -- bulk helpers (slice operations on the flat store) ----------------

    def _span(self, address: int, count: int) -> int:
        """Word index of ``address`` when ``[address, address+4*count)``
        lies inside the store, else a fault."""
        offset = address - self._base
        if not offset & 3 and 0 <= offset and offset + count * WORDSIZE <= self._size:
            return offset >> 2
        raise self._fault(address, "read")

    def read_words(self, address: int, count: int) -> List[int]:
        if count == 0:
            return []
        start = self._span(address, count)
        return self._store[start : start + count].tolist()

    def write_words(self, address: int, values: Iterable[int]) -> None:
        words = [value & 0xFFFFFFFF for value in values]
        if not words:
            return
        offset = address - self._base
        if offset & 3 or offset < 0 or offset + len(words) * WORDSIZE > self._size:
            raise self._fault(address, "write")
        start = offset >> 2
        self._store[start : start + len(words)] = array(_TYPECODE, words)
        self._stored(offset, len(words) * WORDSIZE)

    def zero_page(self, base: int) -> None:
        """Zero-fill a whole page (one bulk byte-slice store)."""
        offset = base - self._base
        if offset & 3 or offset < 0 or offset + PAGE_SIZE > self._size:
            raise self._fault(base, "write")
        self._buf[offset : offset + PAGE_SIZE] = _ZERO_PAGE
        self._stored(offset, PAGE_SIZE)

    def copy_page(self, src: int, dst: int) -> None:
        """Copy one page from ``src`` to ``dst`` (one bulk byte slice)."""
        src_off = self._span(src, WORDS_PER_PAGE) << 2
        offset = dst - self._base
        if offset & 3 or offset < 0 or offset + PAGE_SIZE > self._size:
            raise self._fault(dst, "write")
        self._buf[offset : offset + PAGE_SIZE] = self._buf[
            src_off : src_off + PAGE_SIZE
        ]
        self._stored(offset, PAGE_SIZE)

    def _stored(self, offset: int, nbytes: int) -> None:
        """Record one burst store of ``nbytes`` at ``offset``.  Word
        alignment suffices, so a page-long span may straddle two pages."""
        self._dirty.update(range(offset >> 12, (offset + nbytes - 1 >> 12) + 1))
        self.generation += 1
        self._poison(self._base + offset, nbytes)

    def region_bytes(self, base: int, size: int) -> bytes:
        """Immutable copy of the ``size`` bytes at ``base``: one slice.

        The fingerprint that region comparisons (``==``) and digests
        use.  It neither reads nor changes the dirty-page set; a
        misaligned or out-of-range span faults like every bulk read.
        ``EncryptedMemory`` overrides it for protected spans (their
        plaintext must pass the engine).
        """
        if size % WORDSIZE or size < 0:
            raise MemoryFault(base, f"region size {size:#x} is not whole words")
        count = size // WORDSIZE
        start = self._span(base, count)
        return self._store[start : start + count].tobytes()

    def page_stamp(self, address: int) -> Optional[int]:
        """Stamp of the page holding ``address``: ``None`` while it is
        dirty, else a process-unique token naming its exact bytes (equal
        non-``None`` stamps imply equal bytes, on any memory)."""
        offset = address - self._base
        if not 0 <= offset < self._size:
            raise self._fault(address, "read")
        page = offset >> 12
        return None if page in self._dirty else self._stamps[page]

    def settle(self) -> None:
        """Stamp the dirty pages of a never-anchored memory afresh.

        With no anchor no ``rewind`` reads the dirty set, so the pages
        written so far may take one fresh token, exactly as a
        ``checkpoint`` would stamp them, and leave the set (cleared in
        place: turbo bakes its identity).  Once anchored, the dirty set
        is what a delta ``rewind`` copies back, so this does nothing.
        """
        if not self._snap_token and self._dirty:
            self._stamp_dirty(next(_SNAP_TOKENS))

    def _stamp_dirty(self, token: int) -> None:
        """Stamp every dirty page with ``token``, then clear the set."""
        stamps = self._stamps
        for page in self._dirty:
            stamps[page] = token
        self._dirty.clear()

    def checkpoint(self) -> "MemoryCheckpoint":
        """Capture contents and re-anchor the dirty set: it
        now records exactly the pages that diverge from this checkpoint.
        Every dirty page is stamped with the checkpoint's token first."""
        token = next(_SNAP_TOKENS)
        self._snap_token = token
        self._stamp_dirty(token)
        # bytes(), not a slice: slicing the memoryview-backed store
        # would alias the live buffer instead of copying it.
        return MemoryCheckpoint(
            token,
            bytes(self._buf),
            tuple(self._stamps),
            self.generation,
        )

    def rewind(self, cp: "MemoryCheckpoint") -> None:
        """Restore a ``checkpoint`` in place, poisoning no TLB.

        While anchored to ``cp`` only the dirty pages are copied back;
        any other token (an older or foreign checkpoint) takes the full
        copy of bytes and stamps and re-anchors.  Both leave the buffer
        equal to ``cp.store`` and the stamps equal to ``cp.stamps``:
        stamps change only in ``checkpoint`` and ``rewind``, so an
        anchored memory's stamps already equal its anchor's.
        """
        dirty = self._dirty
        if DELTA_RESTORE and cp.token == self._snap_token:
            buf, store = self._buf, cp.store
            for page in dirty:
                offset = page << 12
                buf[offset : offset + PAGE_SIZE] = store[offset : offset + PAGE_SIZE]
        else:
            self._buf[:] = cp.store
            self._stamps[:] = cp.stamps
            self._snap_token = cp.token
        dirty.clear()
        self.generation = cp.generation

    def __deepcopy__(self, memo):
        # The word-cast memoryview is not picklable/deep-copyable;
        # duplicate the backing bytes and re-cast a fresh view instead.
        cls = self.__class__
        dup = cls.__new__(cls)
        memo[id(self)] = dup
        for key, value in self.__dict__.items():
            if key == "_buf":
                dup._buf = bytearray(self._buf)
            elif key != "_store":
                setattr(dup, key, _deepcopy(value, memo))
        dup._store = memoryview(dup._buf).cast(_TYPECODE)
        return dup


_ZERO_PAGE = bytes(PAGE_SIZE)


class MemoryCheckpoint(NamedTuple):
    """A ``PhysicalMemory.checkpoint``; ``engine`` is what a memory engine
    keeps beside the bytes (``EncryptedMemory``'s tags)."""

    token: int
    store: bytes
    stamps: Tuple[int, ...]
    generation: int
    engine: Optional[object] = None


class StampMemo:
    """Per-page derivations memoised on ``(page base, page_stamp)``.

    ``lookup`` returns ``derive(*args)`` for the page at ``base``,
    computing it only when the page is dirty or its stamp is new; by the
    stamp contract a hit is exactly what a fresh derivation would give.
    A derivation that raises is not remembered.  At most ``cap`` entries
    are kept (the oldest is dropped first).
    """

    __slots__ = ("cap", "_entries")

    def __init__(self, cap: int):
        self.cap = cap
        self._entries: Dict[Tuple[int, int], object] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, memory: PhysicalMemory, base: int, derive: Callable, *args):
        stamp = memory.page_stamp(base)
        if stamp is None:
            return derive(*args)
        entries = self._entries
        key = (base, stamp)
        try:
            return entries[key]
        except KeyError:
            pass
        value = derive(*args)
        if len(entries) >= self.cap:
            del entries[next(iter(entries))]
        entries[key] = value
        return value


def differing_words(base: int, before: bytes, after: bytes) -> List[int]:
    """Addresses of the words at which two ``region_bytes`` fingerprints
    of the span at ``base`` differ, ascending.  Only failure messages
    need this detail; comparisons themselves use ``==``."""
    old = memoryview(before).cast(_TYPECODE)
    new = memoryview(after).cast(_TYPECODE)
    return [base + (i << 2) for i, (a, b) in enumerate(zip(old, new)) if a != b]
