"""RSA signing, from scratch, for the notary application.

The paper's notary enclave (section 8.2) constructs an RSA key pair on
first entry and signs SHA-256 hashes of documents.  We implement the
pieces it needs: Miller–Rabin primality testing, key generation driven by
an explicit RNG (so enclave and native runs can be made identical), and
a PKCS#1-v1.5-style signature over a SHA-256 digest.

Signing is by CRT with a checked fallback.  Callers keep only
``(n, e, d)``, so ``sign`` recovers ``(p, q)`` from ``e·d − 1`` once per
key (fixed bases, no RNG draw) and signs modulo ``p`` and ``q``.  It
uses that factorisation only if ``p·q == n``, ``p != q``, both pass a
fixed-base Miller–Rabin test and ``e·d ≡ 1`` modulo ``p − 1`` and
``q − 1``; any other key, bit-flipped or hand-built, signs with the
plain ``pow(m, d, n)``.  Either way the signature is that of
``pow(m, d, n)``.

This is a functional model, not hardened cryptography: no blinding, no
constant-time bignum arithmetic.  The evaluation only needs the cost
*shape* (CPU-bound signing dominating notarisation latency), which the
cost hooks provide.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Tuple

from repro.crypto.rng import HardwareRNG
from repro.crypto.sha256 import sha256

# DER prefix identifying a SHA-256 DigestInfo in PKCS#1 v1.5 signatures.
_SHA256_DIGEST_INFO = bytes.fromhex("3031300d060960864801650304020105000420")

_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
]

#: Fixed bases for recovering a key's factors and for testing them.
_CRT_BASES = _SMALL_PRIMES[:12]

#: Keys whose CRT parameters (or their absence) ``sign`` remembers.
CRT_CACHE_SIZE = 64


def _rng_int(rng: HardwareRNG, bits: int) -> int:
    """Draw a ``bits``-wide integer from the hardware RNG."""
    words = (bits + 31) // 32
    value = 0
    for _ in range(words):
        value = (value << 32) | rng.read_word()
    return value & ((1 << bits) - 1)


def _miller_rabin(n: int, witnesses: Iterable[int]) -> bool:
    """Trial division by the small primes, then Miller–Rabin over
    ``witnesses``, drawn only until one proves ``n`` composite."""
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
    for a in witnesses:
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


def is_probable_prime(n: int, rng: HardwareRNG) -> bool:
    """Miller–Rabin primality test with 16 RNG-chosen witnesses."""
    return _miller_rabin(
        n, (2 + _rng_int(rng, n.bit_length()) % (n - 3) for _ in range(16))
    )


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


def _factor(n: int, e: int, d: int) -> Optional[int]:
    """A factor of ``n`` found from ``e·d − 1``, or ``None``.

    Each base ``a`` either shares a factor with ``n`` or, squaring up
    from ``a^r`` (``e·d − 1 = r·2^t``, ``r`` odd), may meet a square
    root of 1 other than ±1, whose ``gcd`` with ``n`` splits it."""
    k = e * d - 1
    if k <= 0 or n % 2 == 0:
        return None
    t = (k & -k).bit_length() - 1
    for a in _CRT_BASES:
        g = math.gcd(a, n)
        if g > 1:
            return g if g < n else None
        x = pow(a, k >> t, n)
        for _ in range(t):
            if x in (1, n - 1):
                break
            y = x * x % n
            if y == 1:
                return math.gcd(x - 1, n)
            x = y
    return None


@functools.lru_cache(maxsize=CRT_CACHE_SIZE)
def _crt_params(n: int, e: int, d: int) -> Optional[Tuple[int, int, int, int, int]]:
    """``(p, q, dp, dq, qinv)`` if ``n`` factors into two checked primes
    that ``d`` inverts ``e`` modulo, else ``None`` (sign with ``pow``)."""
    p = _factor(n, e, d)
    if p is None:
        return None
    q = n // p
    if not (
        p * q == n
        and p != q
        and _miller_rabin(p, _CRT_BASES)
        and _miller_rabin(q, _CRT_BASES)
        and (e * d - 1) % (p - 1) == 0
        and (e * d - 1) % (q - 1) == 0
    ):
        return None
    return p, q, d % (p - 1), d % (q - 1), pow(q, -1, p)


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
    params = _crt_params(key.n, key.e, key.d)
    if params is None:
        signature = pow(encoded, key.d, key.n)
    else:
        p, q, dp, dq, qinv = params
        sq = pow(encoded, dq, q)
        signature = sq + (pow(encoded, dp, p) - sq) * qinv % p * q
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
