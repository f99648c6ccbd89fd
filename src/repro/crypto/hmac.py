"""HMAC-SHA256 (RFC 2104).

Komodo's local attestation is a MAC over (measurement, enclave-supplied
data) keyed with a boot-time secret (paper section 4).  The monitor-side
preconditions mirror the paper's: keys and messages on the attestation
path are block-aligned word sequences, which keeps padding reasoning
trivial.

No HMAC midstate is ever stored in machine memory, so the MAC itself is
computed by the standard library.  What the machine does see is the
cost: ``on_block`` is called exactly as many times as a from-scratch
HMAC compresses (see :func:`_hmac_blocks`), so ``CostModel.sha256_block``
charges are identical to hashing block by block.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
from typing import Callable, List, Optional, Sequence

from repro.arm.bits import to_word
from repro.crypto.sha256 import BLOCK_SIZE

#: Length padding: the 0x80 byte plus the 8-byte bit count.
_PAD_BYTES = 9


def _hmac_blocks(message_len: int) -> int:
    """SHA-256 compressions in one HMAC over ``message_len`` bytes.

    The inner hash compresses the 64-byte ipad key block and then the
    padded message; the outer hash compresses the opad key block and the
    padded 32-byte inner digest (two blocks).  A key longer than one
    block is first hashed down to 32 bytes; that hash is not counted.
    """
    inner = (BLOCK_SIZE + message_len + _PAD_BYTES + BLOCK_SIZE - 1) // BLOCK_SIZE
    return inner + 2


def hmac_sha256(
    key: bytes, message: bytes, on_block: Optional[Callable[[], None]] = None
) -> bytes:
    """Standard HMAC-SHA256 over byte strings."""
    if on_block is not None:
        for _ in range(_hmac_blocks(len(message))):
            on_block()
    return _hmac.digest(key, message, hashlib.sha256)


def hmac_sha256_words(
    key_words: Sequence[int],
    message_words: Sequence[int],
    on_block: Optional[Callable[[], None]] = None,
) -> List[int]:
    """HMAC over word sequences, returning 8 words (the monitor's shape)."""
    key = b"".join(to_word(w).to_bytes(4, "big") for w in key_words)
    message = b"".join(to_word(w).to_bytes(4, "big") for w in message_words)
    mac = hmac_sha256(key, message, on_block=on_block)
    return [int.from_bytes(mac[i : i + 4], "big") for i in range(0, 32, 4)]


def constant_time_equal(a: Sequence[int], b: Sequence[int]) -> bool:
    """Compare two word sequences without early exit.

    The real monitor's comparison is data-independent in its address
    trace; this mirrors that property at the model level.
    """
    if len(a) != len(b):
        return False
    difference = 0
    for x, y in zip(a, b):
        difference |= to_word(x) ^ to_word(y)
    return difference == 0
