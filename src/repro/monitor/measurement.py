"""Enclave measurement (paper section 4, "Attestation").

As the OS constructs an enclave, the monitor hashes the sequence of page
allocation calls and their parameters: the virtual address, permissions
and initial contents of each secure data page, and the entry point of
every thread.  Any change in enclave layout changes the hash.  When the
enclave is finalised the hash becomes its immutable measurement.

The incremental SHA-256 chaining state and the running length are stored
inside the addrspace page between calls (the implementation's chosen
representation; the abstract spec models the measurement as an unbounded
word sequence, and the refinement checker relates the two by replaying
the abstract trace through the same hash).

All measured records are padded to full 64-byte blocks, exploiting the
monitor's block-aligned-hashing precondition (paper section 7.2).

Absorbing blocks into the chaining state is a pure function of the
8 chaining words and the block-aligned words, so it goes through one
bounded memo (:func:`_absorb`); fault campaigns rebuild the same
enclaves trial after trial and nearly every absorb repeats.  The memo
changes only how the new chaining words are computed: each call still
reads the chaining state and length, charges ``sha256_block`` per block
and writes the state and length back in the same order, so simulated
cycles and fault points are those of the uncached hash.  Finalise runs
``SHA256`` directly, and the refinement checker's replay never reads
the memo, so it stays an independent oracle.  A memo miss costs one
compression per block on libcrypto's block function (see
``repro.crypto.sha256``).
"""

from __future__ import annotations

import functools
from array import array
from typing import List, Sequence, Tuple

from repro.arm.memory import WORDS_PER_PAGE, _TYPECODE
from repro.crypto.sha256 import BLOCK_SIZE, SHA256
from repro.monitor.layout import MEASUREMENT_WORDS, PageType
from repro.monitor.pagedb import PageDB

# Record tags, one per measured operation.
MEASURE_MAPSECURE = 0x4D415053  # "MAPS"
MEASURE_MAPINSECURE = 0x4D415049  # "MAPI"
MEASURE_INITTHREAD = 0x54485244  # "THRD"
MEASURE_INITL2PT = 0x4C325054  # "L2PT"

_RECORD_WORDS = 16  # one SHA-256 block

#: Bound on :func:`_absorb`'s memo.  A key is at most 32 + 4096 bytes
#: (chaining words + one page), so with the bytes-object, cache-link and
#: result-tuple overheads the full memo holds at most about 1.2 MB.  A
#: campaign round absorbs far fewer distinct inputs than this.
ABSORB_MEMO_SIZE = 256


def _pack(words: Sequence[int]) -> bytes:
    try:
        return array(_TYPECODE, words).tobytes()
    except OverflowError:  # a word outside 32 bits: hash it masked
        return array(_TYPECODE, [w & 0xFFFFFFFF for w in words]).tobytes()


@functools.lru_cache(maxsize=ABSORB_MEMO_SIZE)
def _absorb(chaining: bytes, blocks: bytes) -> Tuple[int, ...]:
    """Chaining words after absorbing ``blocks`` (memoised, bounded).

    Both arguments are packed 32-bit words; a miss runs ``SHA256``
    from the given chaining state.
    """
    hasher = SHA256.from_state(array(_TYPECODE, chaining), 0)
    words = array(_TYPECODE, blocks)
    for i in range(0, len(words), _RECORD_WORDS):
        hasher.update_block_words(words[i : i + _RECORD_WORDS])
    return tuple(hasher.state_words)


def _record_block(tag: int, arg1: int, arg2: int) -> List[int]:
    """A one-block measurement record: tag, two arguments, zero padding."""
    block = [tag, arg1, arg2] + [0] * (_RECORD_WORDS - 3)
    return block


class MeasurementContext:
    """Incremental measurement bound to one addrspace page."""

    def __init__(self, pagedb: PageDB, asno: int):
        self.pagedb = pagedb
        self.asno = asno

    def _charge_block(self) -> None:
        state = self.pagedb.state
        state.charge(state.costs.sha256_block)

    def _resume_hash(self) -> SHA256:
        return SHA256.from_state(
            self.pagedb.hash_state(self.asno),
            self.pagedb.hash_length(self.asno),
            on_block=self._charge_block,
        )

    def _measure_blocks(self, words: Sequence[int]) -> None:
        """Absorb block-aligned ``words`` into the stored chaining state."""
        pagedb, asno = self.pagedb, self.asno
        chaining = pagedb.hash_state(asno)
        if pagedb.hash_length(asno) % BLOCK_SIZE:
            raise ValueError("resumed length must be block aligned")
        new_state = _absorb(_pack(chaining), _pack(words))
        state = pagedb.state
        state.charge(state.costs.sha256_block * (len(words) // _RECORD_WORDS))
        pagedb.set_hash_state(asno, new_state)
        pagedb.set_hash_length(asno, pagedb.hash_length(asno) + len(words) * 4)

    def init(self) -> None:
        """Initialise the chaining state at InitAddrspace time."""
        state = self.pagedb.state
        state.charge(state.costs.sha256_init)
        hasher = SHA256()
        self.pagedb.set_hash_state(self.asno, hasher.state_words)
        self.pagedb.set_hash_length(self.asno, 0)

    def measure_record(self, tag: int, arg1: int, arg2: int) -> None:
        """Measure one operation record (one block)."""
        self._measure_blocks(_record_block(tag, arg1, arg2))

    def measure_page_contents(self, data_words: List[int]) -> None:
        """Measure the initial contents of a secure data page (64 blocks)."""
        if len(data_words) != WORDS_PER_PAGE:
            raise ValueError("expected exactly one page of words")
        self._measure_blocks(data_words)

    def finalise(self) -> List[int]:
        """Finalise the measurement and store it in the addrspace page."""
        state = self.pagedb.state
        hasher = self._resume_hash()
        state.charge(state.costs.sha256_finish)
        digest = hasher.digest_words()
        self.pagedb.set_measurement(self.asno, digest)
        return digest


def measurement_of(pagedb: PageDB, asno: int) -> List[int]:
    """The stored measurement of a finalised addrspace (8 words)."""
    if pagedb.page_type(asno) is not PageType.ADDRSPACE:
        raise ValueError(f"page {asno} is not an addrspace")
    words = pagedb.measurement(asno)
    if len(words) != MEASUREMENT_WORDS:
        raise AssertionError("measurement must be 8 words")
    return words
