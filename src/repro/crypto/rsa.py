"""RSA signing, from scratch, for the notary application.

The paper's notary enclave (section 8.2) constructs an RSA key pair on
first entry and signs SHA-256 hashes of documents.  We implement the
pieces it needs: Miller–Rabin primality testing, key generation driven by
an explicit RNG (so enclave and native runs can be made identical), and
a PKCS#1-v1.5-style signature over a SHA-256 digest.

This is a functional model, not hardened cryptography: no blinding, no
constant-time bignum arithmetic.  The evaluation only needs the cost
*shape* (CPU-bound signing dominating notarisation latency), which the
cost hooks provide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.crypto.rng import HardwareRNG
from repro.crypto.sha256 import sha256

# DER prefix identifying a SHA-256 DigestInfo in PKCS#1 v1.5 signatures.
_SHA256_DIGEST_INFO = bytes.fromhex("3031300d060960864801650304020105000420")

_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
]


def _rng_int(rng: HardwareRNG, bits: int) -> int:
    """Draw a ``bits``-wide integer from the hardware RNG."""
    words = (bits + 31) // 32
    value = 0
    for _ in range(words):
        value = (value << 32) | rng.read_word()
    return value & ((1 << bits) - 1)


def is_probable_prime(n: int, rng: HardwareRNG) -> bool:
    """Miller–Rabin primality test with 16 RNG-chosen witnesses."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(16):
        a = 2 + _rng_int(rng, n.bit_length()) % (n - 3)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def generate_prime(bits: int, rng: HardwareRNG) -> int:
    """Generate an odd prime of exactly ``bits`` bits."""
    while True:
        candidate = _rng_int(rng, bits)
        candidate |= (1 << (bits - 1)) | 1  # full width, odd
        if is_probable_prime(candidate, rng):
            return candidate


@dataclass
class RSAKeyPair:
    """An RSA key pair (n, e, d) with the modulus size in bytes."""

    n: int
    e: int
    d: int

    @property
    def size_bytes(self) -> int:
        return (self.n.bit_length() + 7) // 8


def generate_keypair(bits: int, rng: HardwareRNG) -> RSAKeyPair:
    """Generate an RSA key pair of ``bits`` modulus bits, public exponent
    65537."""
    if bits < 128:
        raise ValueError("modulus too small to be meaningful")
    half = bits // 2
    while True:
        p = generate_prime(half, rng)
        q = generate_prime(bits - half, rng)
        if p == q:
            continue
        n = p * q
        phi = (p - 1) * (q - 1)
        try:
            d = pow(65537, -1, phi)
        except ValueError:
            continue
        if n.bit_length() == bits:
            return RSAKeyPair(n=n, e=65537, d=d)


def _pad_digest(digest: bytes, size: int) -> int:
    """EMSA-PKCS1-v1_5 encoding of a SHA-256 digest."""
    payload = _SHA256_DIGEST_INFO + digest
    if size < len(payload) + 11:
        raise ValueError("modulus too small for PKCS#1 v1.5 padding")
    padded = b"\x00\x01" + b"\xff" * (size - len(payload) - 3) + b"\x00" + payload
    return int.from_bytes(padded, "big")


def sign(
    key: RSAKeyPair, message: bytes, on_cost: Optional[Callable[[int], None]] = None
) -> bytes:
    """Sign SHA-256(message); ``on_cost`` receives a modexp cost estimate."""
    digest = sha256(message)
    encoded = _pad_digest(digest, key.size_bytes)
    if on_cost:
        # One modular exponentiation: ~bits squarings + ~bits/2 multiplies,
        # each quadratic in the word count of the modulus.
        words = (key.n.bit_length() + 31) // 32
        on_cost(int(1.5 * key.n.bit_length() * words * words))
    signature = pow(encoded, key.d, key.n)
    return signature.to_bytes(key.size_bytes, "big")


def verify(key: RSAKeyPair, message: bytes, signature: bytes) -> bool:
    """Verify a signature produced by ``sign``."""
    if len(signature) != key.size_bytes:
        return False
    value = int.from_bytes(signature, "big")
    if value >= key.n:
        return False
    recovered = pow(value, key.e, key.n)
    expected = _pad_digest(sha256(message), key.size_bytes)
    return recovered == expected
