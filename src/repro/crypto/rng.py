"""Hardware random-number generator interface.

The prototype platform (Raspberry Pi 2) provides a hardware TRNG; the
monitor reads it at boot to derive the attestation key, and exposes it to
enclaves through the GetRandom SVC (paper Table 1).  We substitute a
deterministic DRBG (SHA-256 in counter mode over a seed) behind the same
interface: callers see a stream of 32-bit words.  Determinism is a
feature for the harness — noninterference bisimulation requires the two
compared executions to draw identical randomness (paper section 6.3's
"unknown integer seed").
"""

from __future__ import annotations

from typing import List

from repro.crypto.sha256 import sha256


class HardwareRNG:
    """SHA-256-CTR DRBG behind a hardware-TRNG-shaped interface."""

    def __init__(self, seed: int = 0xC0FFEE):
        self._seed = seed
        self._counter = 0
        self._pool: List[int] = []

    def read_word(self) -> int:
        """Draw one 32-bit random word (models a device-register read)."""
        if not self._pool:
            material = self._seed.to_bytes(16, "big") + self._counter.to_bytes(8, "big")
            digest = sha256(material)
            self._counter += 1
            self._pool = [
                int.from_bytes(digest[i : i + 4], "big") for i in range(0, 32, 4)
            ]
        return self._pool.pop()

    def read_words(self, count: int) -> List[int]:
        return [self.read_word() for _ in range(count)]

    def fork(self) -> "HardwareRNG":
        """An identical copy (same seed, same position in the stream)."""
        dup = HardwareRNG(self._seed)
        dup._counter = self._counter
        dup._pool = list(self._pool)
        return dup
