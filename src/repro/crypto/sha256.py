"""SHA-256: the incremental hash and the one-shot helpers.

Komodo does not implement SHA-256 itself; it calls Vale's verified ARM
SHA-256, derived from OpenSSL's assembly (paper section 7.2), and the
simulated cost of every hash is ``CostModel.sha256_block`` per
compressed block, charged through an ``on_block`` hook.  Simulated
cycles therefore depend on block counts alone, never on which
implementation computed the digest.

Two implementations follow from that:

* :class:`SHA256` is used only where the 8 chaining words are
  machine-visible: the enclave measurement, whose midstate and running
  length live in the addrspace page between calls
  (``repro.monitor.measurement``), and the refinement checker's replay
  of the abstract measured sequence (``repro.verification.refinement``).
  As in the paper, the monitor only ever hashes block-aligned data, so
  it exposes a block-at-a-time ``update_block_words`` beside the
  byte-stream ``update``.  Each compression runs on OpenSSL's own block
  function, libcrypto's ``SHA256_Transform``, called through ``ctypes``
  on the library ``hashlib`` already loaded.  Every call fills a
  ``SHA256_CTX`` of its own, so threads never share one (the foreign
  call releases the GIL).  The pure-Python FIPS 180-4 :func:`_compress`
  is the tests' reference for it, and it is the compression wherever
  the symbol cannot be resolved (an OpenSSL built static or without
  deprecated APIs); the choice is made once, at import.
* :func:`sha256` and :func:`sha256_words` are one-shot hashes that
  persist no midstate; they run on ``hashlib``.
"""

from __future__ import annotations

import ctypes
import hashlib
import struct
from typing import Callable, List, Optional, Sequence

from repro.arm.bits import to_word

BLOCK_SIZE = 64  # bytes
DIGEST_SIZE = 32  # bytes
DIGEST_WORDS = 8
_MASK = 0xFFFFFFFF

# First 32 bits of the fractional parts of the cube roots of the first
# 64 primes (the standard round constants).
_K = [
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5,
    0x3956C25B, 0x59F111F1, 0x923F82A4, 0xAB1C5ED5,
    0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3,
    0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174,
    0xE49B69C1, 0xEFBE4786, 0x0FC19DC6, 0x240CA1CC,
    0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7,
    0xC6E00BF3, 0xD5A79147, 0x06CA6351, 0x14292967,
    0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13,
    0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85,
    0xA2BFE8A1, 0xA81A664B, 0xC24B8B70, 0xC76C51A3,
    0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5,
    0x391C0CB3, 0x4ED8AA4A, 0x5B9CCA4F, 0x682E6FF3,
    0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208,
    0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
]

# Initial hash values: first 32 bits of the fractional parts of the
# square roots of the first 8 primes.
_H0 = [
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
    0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
]


def _compress(state: Sequence[int], block: Sequence[int]) -> List[int]:
    """One SHA-256 compression over a 16-word block.

    Rotations are written out inline and the working variables live in
    locals: each ``x >> n | x << (32 - n)`` is exact in its low 32 bits,
    so one mask after the XOR suffices.
    """
    w = list(block)
    append = w.append
    for t in range(16, 64):
        x = w[t - 15]
        y = w[t - 2]
        s0 = (x >> 7 | x << 25) ^ (x >> 18 | x << 14) ^ (x >> 3)
        s1 = (y >> 17 | y << 15) ^ (y >> 19 | y << 13) ^ (y >> 10)
        append((w[t - 16] + (s0 & _MASK) + w[t - 7] + (s1 & _MASK)) & _MASK)
    a, b, c, d, e, f, g, h = state
    for k, wt in zip(_K, w):
        s1 = ((e >> 6 | e << 26) ^ (e >> 11 | e << 21) ^ (e >> 25 | e << 7)) & _MASK
        temp1 = h + s1 + ((e & f) ^ (~e & g)) + k + wt
        temp2 = ((a >> 2 | a << 30) ^ (a >> 13 | a << 19) ^ (a >> 22 | a << 10)) & _MASK
        temp2 += (a & b) ^ (a & c) ^ (b & c)
        h = g
        g = f
        f = e
        e = (d + temp1) & _MASK
        d = c
        c = b
        b = a
        a = (temp1 + temp2) & _MASK
    return [
        (state[0] + a) & _MASK,
        (state[1] + b) & _MASK,
        (state[2] + c) & _MASK,
        (state[3] + d) & _MASK,
        (state[4] + e) & _MASK,
        (state[5] + f) & _MASK,
        (state[6] + g) & _MASK,
        (state[7] + h) & _MASK,
    ]


class _Ctx(ctypes.Structure):
    """``SHA256_CTX`` as <openssl/sha.h> lays it out (``SHA_LONG`` is 32
    bits); the block function reads and writes only ``h``."""

    _fields_ = [
        ("h", ctypes.c_uint32 * 8),
        ("Nl", ctypes.c_uint32),
        ("Nh", ctypes.c_uint32),
        ("data", ctypes.c_uint32 * 16),
        ("num", ctypes.c_uint32),
        ("md_len", ctypes.c_uint32),
    ]


def _load_transform() -> Optional[Callable]:
    """libcrypto's ``SHA256_Transform`` from the extension ``hashlib``
    loaded, or ``None`` where it cannot be resolved."""
    try:
        import _hashlib

        transform = ctypes.CDLL(_hashlib.__file__).SHA256_Transform
    except (ImportError, OSError, AttributeError):
        return None
    transform.argtypes = (ctypes.POINTER(_Ctx), ctypes.c_char_p)
    transform.restype = None
    return transform


_TRANSFORM = _load_transform()
_BLOCK = struct.Struct(">16I")


def _native_compress(state: Sequence[int], block: Sequence[int]) -> List[int]:
    """:func:`_compress` on ``SHA256_Transform``; the block goes in as
    big-endian bytes, and each call owns its context."""
    ctx = _Ctx()
    ctx.h[:] = state
    _TRANSFORM(ctx, _BLOCK.pack(*block))
    return ctx.h[:]


#: The compression every ``SHA256`` runs, chosen once.
_COMPRESS = _compress if _TRANSFORM is None else _native_compress


class SHA256:
    """Incremental SHA-256.

    ``on_block`` is an optional callback invoked once per compression; the
    monitor uses it to charge ``CostModel.sha256_block`` cycles so hashing
    cost scales with the data actually hashed.
    """

    def __init__(self, on_block: Optional[Callable[[], None]] = None):
        self._state = list(_H0)
        self._buffer = bytearray()
        self._length = 0  # total bytes consumed
        self._on_block = on_block
        self._finished = False

    # -- block-aligned interface (monitor measurement path) ---------------

    @property
    def state_words(self) -> List[int]:
        """The current 8-word chaining state (stored in addrspace pages)."""
        return list(self._state)

    @classmethod
    def from_state(
        cls,
        state: Sequence[int],
        length: int,
        on_block: Optional[Callable[[], None]] = None,
    ) -> "SHA256":
        """Rebuild an incremental hash from saved chaining state.

        The monitor persists the measurement's chaining state and running
        length inside the addrspace page between MapSecure calls; this
        constructor resumes from that representation.  ``length`` must be
        block aligned (the monitor only hashes block-aligned data).
        """
        if len(state) != DIGEST_WORDS:
            raise ValueError("chaining state must be 8 words")
        if length % BLOCK_SIZE:
            raise ValueError("resumed length must be block aligned")
        hasher = cls(on_block=on_block)
        hasher._state = [to_word(w) for w in state]
        hasher._length = length
        return hasher

    def update_block_words(self, words: Sequence[int]) -> None:
        """Consume one 64-byte block given as 16 words."""
        if self._finished:
            raise RuntimeError("hash already finalised")
        if self._buffer:
            raise RuntimeError("block interface mixed with unaligned bytes")
        if len(words) != 16:
            raise ValueError("a block is exactly 16 words")
        self._state = _COMPRESS(self._state, [w & _MASK for w in words])
        self._length += BLOCK_SIZE
        if self._on_block:
            self._on_block()

    # -- byte-stream interface ------------------------------------------------

    def update(self, data: bytes) -> None:
        if self._finished:
            raise RuntimeError("hash already finalised")
        self._buffer += data
        self._length += len(data)
        while len(self._buffer) >= BLOCK_SIZE:
            words = _BLOCK.unpack_from(self._buffer)
            del self._buffer[:BLOCK_SIZE]
            self._state = _COMPRESS(self._state, words)
            if self._on_block:
                self._on_block()

    def digest(self) -> bytes:
        """Finalise (pad) and return the 32-byte digest."""
        if not self._finished:
            bit_length = self._length * 8
            padding = b"\x80" + b"\x00" * ((55 - self._length) % 64)
            self.update(padding + bit_length.to_bytes(8, "big"))
            # update() adjusted _length for the padding; that is fine, we
            # never use it again.
            self._finished = True
            self._digest_words = list(self._state)
        return b"".join(w.to_bytes(4, "big") for w in self._digest_words)

    def digest_words(self) -> List[int]:
        """The digest as 8 words (the monitor's native representation)."""
        self.digest()
        return list(self._digest_words)

    def hexdigest(self) -> str:
        return self.digest().hex()


def sha256(data: bytes) -> bytes:
    """One-shot SHA-256 (no midstate is kept, so ``hashlib``)."""
    return hashlib.sha256(data).digest()


def sha256_words(words: Sequence[int]) -> List[int]:
    """One-shot SHA-256 over a word sequence, returning 8 words."""
    digest = sha256(b"".join(to_word(w).to_bytes(4, "big") for w in words))
    return [int.from_bytes(digest[i : i + 4], "big") for i in range(0, 32, 4)]
