"""Memory encryption for the physical-attack threat model (section 3.2).

The paper considers two variants of the threat model, split on whether
physical attacks on RAM are in scope.  When they are, the hardware must
protect secure memory with encryption and integrity (SGX's memory
encryption engine) or keep it on-chip; when they are not, "all that is
needed in hardware is an IOMMU-like filter" — which is what the base
``PhysicalMemory`` models with its world checks.

``EncryptedMemory`` models the stronger variant: words in the secure
region are stored encrypted (keystream derived per address from a
device key) with a per-word authentication tag.  The CPU-side interface
is unchanged — secure-world software reads plaintext — but the
*physical* interface a cold-boot or bus attacker uses sees only
ciphertext, and tampering with ciphertext or tags is detected on the
next CPU read, modelling the integrity half of the engine.

Page stamps (``PhysicalMemory.page_stamp``) are inherited unchanged:
every engine store, ``physical_write`` and ``physical_move`` included,
lands in the dirty set through ``_put``, and ``rewind`` restores the
tags together with the bytes and stamps, so an equal stamp still names
equal ciphertext and tags.

As in the paper, the mechanism is hardware configuration: the monitor
is oblivious to which variant it runs on (its proofs hold for both; the
variants differ only in which *physical* attacker they defeat).
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List

from repro.arm.bits import WORDSIZE, to_word
from repro.arm.memory import (
    _TYPECODE,
    PAGE_SIZE,
    WORDS_PER_PAGE,
    MemoryCheckpoint,
    MemoryFault,
    MemoryMap,
    PhysicalMemory,
)
from repro.crypto.sha256 import sha256


class IntegrityViolation(MemoryFault):
    """The memory engine detected tampering (machine-check on real HW)."""

    def __init__(self, address: int):
        super().__init__(address, "memory integrity violation")


class EncryptedMemory(PhysicalMemory):
    """PhysicalMemory with an encryption engine over the secure region.

    Confidentiality: stored words are XORed with a per-address keystream
    derived from the device key.  Integrity: each stored word carries a
    tag binding (key, address, ciphertext); CPU reads verify it.

    ``physical_read`` / ``physical_write`` model the attacker's direct
    access to the RAM chips, bypassing the CPU package entirely.
    """

    def __init__(self, memmap: MemoryMap, device_key: int = 0x5EED):
        super().__init__(memmap)
        self._device_key = device_key
        self._tags: Dict[int, int] = {}

    # -- the engine -----------------------------------------------------

    def _protected(self, address: int) -> bool:
        return self.map.is_secure(address) or self.map.is_monitor(address)

    def _pad(self, address: int) -> int:
        digest = sha256(
            b"mee-pad" + self._device_key.to_bytes(8, "big") + address.to_bytes(8, "big")
        )
        return int.from_bytes(digest[:4], "big")

    def _tag(self, address: int, ciphertext: int) -> int:
        digest = sha256(
            b"mee-tag"
            + self._device_key.to_bytes(8, "big")
            + address.to_bytes(8, "big")
            + ciphertext.to_bytes(4, "big")
        )
        return int.from_bytes(digest[:4], "big")

    # -- CPU-side access (decrypting/verifying) ---------------------------

    def read_word(self, address: int) -> int:
        stored = super().read_word(address)
        if not self._protected(address):
            return stored
        expected = self._tags.get(address)
        if expected is None:
            if stored != 0:
                raise IntegrityViolation(address)
            return 0  # never-written words read as zero, untagged
        if self._tag(address, stored) != expected:
            raise IntegrityViolation(address)
        return stored ^ self._pad(address)

    def _put(self, address: int, value: int) -> None:
        # Tags before the inherited ``write_word`` poisons: the
        # footprint re-walk reads this word through the engine.
        if not self._protected(address):
            super()._put(address, value)
            return
        ciphertext = to_word(value) ^ self._pad(address)
        super()._put(address, ciphertext)
        self._tags[address] = self._tag(address, ciphertext)

    # -- bulk helpers --------------------------------------------------------
    # The base class implements these as raw slice operations on the flat
    # store; here every word must pass through the engine (per-address
    # keystream and tags), so they go word by word through ``_put`` and
    # poison the TLB once per page at the end.

    def read_words(self, address: int, count: int) -> List[int]:
        return [self.read_word(address + i * WORDSIZE) for i in range(count)]

    def region_bytes(self, base: int, size: int) -> bytes:
        # Insecure spans are stored in plaintext: the base slice.  A span
        # touching a protected region is read through the engine, so the
        # fingerprint is plaintext and a tampered word still raises
        # ``IntegrityViolation``.
        raw = super().region_bytes(base, size)  # faults like the base class
        insecure = self.map.insecure
        if insecure.base <= base and base + size <= insecure.limit:
            return raw
        return array(_TYPECODE, self.read_words(base, size // WORDSIZE)).tobytes()

    def write_words(self, address: int, values: Iterable[int]) -> None:
        words = list(values)
        for i, value in enumerate(words):
            self._put(address + i * WORDSIZE, value)
        self._poison(address, len(words) * WORDSIZE)

    def zero_page(self, base: int) -> None:
        for i in range(WORDS_PER_PAGE):
            self._put(base + i * WORDSIZE, 0)
        self._poison(base, PAGE_SIZE)

    def copy_page(self, src: int, dst: int) -> None:
        for i in range(WORDS_PER_PAGE):
            self._put(dst + i * WORDSIZE, self.read_word(src + i * WORDSIZE))
        self._poison(dst, PAGE_SIZE)

    def checkpoint(self) -> MemoryCheckpoint:
        return super().checkpoint()._replace(engine=dict(self._tags))

    def rewind(self, cp: MemoryCheckpoint) -> None:
        super().rewind(cp)
        self._tags = dict(cp.engine)

    # -- the physical attacker's interface ----------------------------------

    def physical_read(self, address: int) -> int:
        """Cold-boot / bus-snoop view: raw stored bits, no decryption."""
        return super().read_word(address)

    def physical_write(self, address: int, value: int) -> None:
        """Bus tamper: overwrite raw RAM, bypassing the engine.  The
        forgery is caught at the next CPU read of the word.  Not a CPU
        store, so it poisons no TLB."""
        super()._put(address, value)

    def physical_move(self, src: int, dst: int) -> None:
        """Splicing attack: relocate ciphertext+tag to another address.
        Address-bound tags make the relocated word unreadable."""
        super()._put(dst, super().read_word(src))
        if src in self._tags:
            self._tags[dst] = self._tags[src]
