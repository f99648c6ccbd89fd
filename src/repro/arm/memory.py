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
and the zero-copy ``view_words`` window — are single slice operations.
``generation`` counts every mutation; the fast-path execution engine
uses it to invalidate its decoded-instruction cache (see DESIGN.md,
"Fast-path engine").  ``read_ops`` and ``write_ops`` count read/write
*transactions* — a bulk ``read_words`` or ``zero_page`` is one burst —
which the page-table walker's regression tests use to pin its access
complexity and the turbo engine's tests use to pin the inline
memory-path accounting.
"""

from __future__ import annotations

from array import array
from copy import deepcopy as _deepcopy
from typing import Dict, Iterable, List

from repro.arm.bits import WORDSIZE, word_aligned
from repro.arm.modes import World

PAGE_SIZE = 0x1000
WORDS_PER_PAGE = PAGE_SIZE // WORDSIZE

#: Typecode of a 32-bit unsigned array element on this platform.
_TYPECODE = next(tc for tc in ("I", "L") if array(tc).itemsize == 4)


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
        if not self.valid_pageno(pageno):
            raise ValueError(f"invalid secure page number {pageno}")
        return self.secure.base + pageno * PAGE_SIZE

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
        #: Read transactions issued (a bulk read counts once).
        self.read_ops = 0
        #: Write transactions issued (a bulk zero/copy/write counts once).
        self.write_ops = 0
        #: Pages (``offset >> 12``) written since the last snapshot
        #: anchor.  Mutated in place only — the turbo engine bakes this
        #: set's identity into compiled code, exactly like ``_store``.
        self._dirty: set = set()
        #: Token of the snapshot the dirty set is relative to (0 = no
        #: anchor).  See ``MachineState.snapshot``/``restore``.
        self._snap_token = 0

    # -- raw access (no protection; used by the monitor and the loader) --

    def read_word(self, address: int) -> int:
        offset = address - self._base
        if not offset & 3 and 0 <= offset < self._size:
            self.read_ops += 1
            return self._store[offset >> 2]
        raise self._fault(address, "read")

    def write_word(self, address: int, value: int) -> None:
        offset = address - self._base
        if not offset & 3 and 0 <= offset < self._size:
            self._store[offset >> 2] = value & 0xFFFFFFFF
            self._dirty.add(offset >> 12)
            self.generation += 1
            self.write_ops += 1
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
        self.read_ops += 1
        return self._store[start : start + count].tolist()

    def view_words(self, address: int, count: int):
        """Zero-copy read-only window over ``count`` words at ``address``.

        One read transaction, like ``read_words``, but without
        materialising a list: page-table scans and hash ingestion index
        straight into the backing store.  The view is read-only and
        *live* — it observes later stores — so callers must consume it
        before mutating memory.  ``EncryptedMemory`` overrides this
        word-wise (every word must pass through the engine).
        """
        start = self._span(address, count)
        self.read_ops += 1
        return self._store[start : start + count].toreadonly()

    def write_words(self, address: int, values: Iterable[int]) -> None:
        words = [value & 0xFFFFFFFF for value in values]
        if not words:
            return
        offset = address - self._base
        if offset & 3 or offset < 0 or offset + len(words) * WORDSIZE > self._size:
            raise self._fault(address, "write")
        start = offset >> 2
        self._store[start : start + len(words)] = array(_TYPECODE, words)
        self._dirty.update(
            range(offset >> 12, (offset + len(words) * WORDSIZE - 1 >> 12) + 1)
        )
        self.generation += 1
        self.write_ops += 1

    def read_page(self, base: int) -> List[int]:
        """Read a whole page as a list of words."""
        return self.read_words(base, WORDS_PER_PAGE)

    def zero_page(self, base: int) -> None:
        """Zero-fill a whole page (one bulk byte-slice store)."""
        offset = base - self._base
        if offset & 3 or offset < 0 or offset + PAGE_SIZE > self._size:
            raise self._fault(base, "write")
        self._buf[offset : offset + PAGE_SIZE] = _ZERO_PAGE
        # Word alignment suffices here, so the page span may straddle
        # two dirty pages.
        self._dirty.update(range(offset >> 12, (offset + PAGE_SIZE - 1 >> 12) + 1))
        self.generation += 1
        self.write_ops += 1

    def copy_page(self, src: int, dst: int) -> None:
        """Copy one page from ``src`` to ``dst`` (one bulk byte slice)."""
        src_off = self._span(src, WORDS_PER_PAGE) << 2
        self.read_ops += 1
        offset = dst - self._base
        if offset & 3 or offset < 0 or offset + PAGE_SIZE > self._size:
            raise self._fault(dst, "write")
        self._buf[offset : offset + PAGE_SIZE] = self._buf[
            src_off : src_off + PAGE_SIZE
        ]
        self._dirty.update(range(offset >> 12, (offset + PAGE_SIZE - 1 >> 12) + 1))
        self.generation += 1
        self.write_ops += 1

    def snapshot_region(self, region: Region) -> Dict[int, int]:
        """Sparse snapshot of the words stored within ``region``."""
        start = self._span(region.base, region.size // WORDSIZE)
        words = self._store[start : start + region.size // WORDSIZE].tolist()
        base = region.base
        return {
            base + (i << 2): value for i, value in enumerate(words) if value
        }

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
