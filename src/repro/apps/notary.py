"""The trusted notary (paper section 8.2).

The notary assigns logical timestamps to documents so they can be
conclusively ordered.  On first entry it constructs an RSA key pair,
initialises a monotonic counter, and returns an attestation of its
initial state (binding the public key to the enclave measurement).  On
subsequent calls it hashes the provided document together with the
current counter value, signs the hash, increments the counter, and
returns the signature.

Two deployments share the same logic and the same cycle-cost model:

* ``NotaryEnclave`` — a native enclave program; documents arrive through
  shared insecure pages, state (key + counter) lives in secure pages.
* ``NativeNotary`` — the same computation as a plain "Linux process",
  with no monitor mediation; the Figure 5 baseline.

Since notarisation is dominated by CPU-intensive hashing and signing,
the two should perform equivalently — the point of Figure 5.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.arm.bits import bytes_to_words, words_to_bytes
from repro.arm.costs import CostModel
from repro.arm.memory import PAGE_SIZE, WORDS_PER_PAGE
from repro.crypto import rsa
from repro.crypto.rng import HardwareRNG
from repro.crypto.sha256 import sha256
from repro.monitor.errors import KomErr
from repro.monitor.komodo import KomodoMonitor
from repro.osmodel.kernel import OSKernel
from repro.sdk.builder import EnclaveBuilder, EnclaveHandle
from repro.sdk.native import NativeContext, NativeEnclaveProgram

# Notary operations (passed as arg1 to Enter).
OP_INIT = 1
OP_NOTARIZE = 2
OP_GET_COUNTER = 3

# Virtual layout inside the notary enclave.
STATE_VA = 0x0010_0000  # secure page holding key + counter
SHARED_BASE_VA = 0x0020_0000  # control page, then document pages

#: RSA modulus size.  512 bits keeps pure-Python keygen fast while the
#: cost model scales signing cost with the modulus, preserving shape.
RSA_BITS = 512
_RSA_WORDS = RSA_BITS // 32

# State-page layout (words).
_ST_MAGIC = 0
_ST_COUNTER = 1
_ST_N = 2
_ST_D = _ST_N + _RSA_WORDS
_STATE_MAGIC = 0x4E4F5452  # "NOTR"

# Control-page layout (words): outputs written by the enclave.
_CTL_PUBKEY = 0  # n (modulus), _RSA_WORDS words
_CTL_MAC = _CTL_PUBKEY + _RSA_WORDS  # attestation MAC, 8 words
_CTL_SIG = _CTL_MAC + 8  # signature, _RSA_WORDS words
_CTL_COUNTER = _CTL_SIG + _RSA_WORDS  # counter used for the signature


@dataclass
class NotaryReceipt:
    """A notarisation receipt: the counter value and the signature."""

    counter: int
    signature: bytes

    def verify(self, pubkey_n: int, document: bytes) -> bool:
        """Check the receipt against the notary's public key."""
        key = rsa.RSAKeyPair(n=pubkey_n, e=65537, d=0)
        message = document + self.counter.to_bytes(4, "big")
        return rsa.verify(key, message, self.signature)


def _int_to_words(value: int, count: int) -> List[int]:
    return bytes_to_words(value.to_bytes(count * 4, "big"))


def _words_to_int(words: List[int]) -> int:
    return int.from_bytes(words_to_bytes(words), "big")


def _charge_hash(charge, data_len: int, costs: CostModel) -> None:
    """Charge SHA-256 cost for hashing ``data_len`` bytes (padding incl.)."""
    blocks = (data_len + 9 + 63) // 64
    charge(costs.sha256_init + blocks * costs.sha256_block + costs.sha256_finish)


def _sign_with_cost(
    key: rsa.RSAKeyPair, message: bytes, charge, costs: CostModel
) -> bytes:
    _charge_hash(charge, len(message), costs)
    return rsa.sign(key, message, on_cost=charge)


# ---------------------------------------------------------------------------
# Enclave deployment
# ---------------------------------------------------------------------------


def _notary_body(ctx: NativeContext, op: int, arg2: int, arg3: int):
    """The notary's enclave program (one invocation per Enter)."""
    costs = ctx.monitor.state.costs
    if op == OP_INIT:
        if ctx.read_word(STATE_VA + _ST_MAGIC * 4) == _STATE_MAGIC:
            return 0  # already initialised; idempotent
        # Key generation draws from the monitor's secure RNG.
        rng_words: List[int] = []

        class _SvcRNG(HardwareRNG):
            def read_word(inner) -> int:  # noqa: N805 - closure style
                word = ctx.get_random()
                rng_words.append(word)
                return word

        key = rsa.generate_keypair(RSA_BITS, _SvcRNG())
        yield  # preemption point after the expensive keygen
        ctx.write_word(STATE_VA + _ST_MAGIC * 4, _STATE_MAGIC)
        ctx.write_word(STATE_VA + _ST_COUNTER * 4, 0)
        ctx.write_words(STATE_VA + _ST_N * 4, _int_to_words(key.n, _RSA_WORDS))
        ctx.write_words(STATE_VA + _ST_D * 4, _int_to_words(key.d, _RSA_WORDS))
        # Publish the public key and attest to it: MAC over the enclave
        # measurement and the first 8 words of SHA-256(n).
        n_words = _int_to_words(key.n, _RSA_WORDS)
        ctx.write_words(SHARED_BASE_VA + _CTL_PUBKEY * 4, n_words)
        digest = sha256(words_to_bytes(n_words))
        data = bytes_to_words(digest)[:8]
        mac = ctx.attest(data)
        ctx.write_words(SHARED_BASE_VA + _CTL_MAC * 4, mac)
        return 0
    if op == OP_GET_COUNTER:
        return ctx.read_word(STATE_VA + _ST_COUNTER * 4)
    if op == OP_NOTARIZE:
        if ctx.read_word(STATE_VA + _ST_MAGIC * 4) != _STATE_MAGIC:
            return 0xFFFFFFFF  # not initialised
        doc_len = arg2
        if doc_len % 4 or doc_len > 0x100000:
            return 0xFFFFFFFE  # reject unaligned/oversized documents
        counter = ctx.read_word(STATE_VA + _ST_COUNTER * 4)
        # Hash the document incrementally, yielding between pages so a
        # long document stays preemptible.
        hasher = hashlib.sha256()
        doc_va = SHARED_BASE_VA + PAGE_SIZE
        remaining = doc_len
        offset = 0
        while remaining > 0:
            chunk = min(remaining, PAGE_SIZE)
            hasher.update(ctx.read_bytes(doc_va + offset, chunk))
            ctx.charge((chunk // 64) * costs.sha256_block)
            offset += chunk
            remaining -= chunk
            yield
        hasher.update(counter.to_bytes(4, "big"))
        digest = hasher.digest()
        key = rsa.RSAKeyPair(
            n=_words_to_int(ctx.read_words(STATE_VA + _ST_N * 4, _RSA_WORDS)),
            e=65537,
            d=_words_to_int(ctx.read_words(STATE_VA + _ST_D * 4, _RSA_WORDS)),
        )
        # Sign digest-of(document ‖ counter).  _sign_with_cost re-hashes
        # internally from the message; here the message is the digest
        # plus counter, so hashing cost of the body was charged above.
        signature = _sign_with_cost(
            key, digest + counter.to_bytes(4, "big"), ctx.charge, costs
        )
        ctx.write_words(SHARED_BASE_VA + _CTL_SIG * 4, bytes_to_words(signature))
        ctx.write_word(SHARED_BASE_VA + _CTL_COUNTER * 4, counter)
        ctx.write_word(STATE_VA + _ST_COUNTER * 4, counter + 1)
        return counter
    return 0xFFFFFFFD  # unknown operation


class NotaryEnclave:
    """Host-side wrapper: builds the notary enclave and drives it."""

    def __init__(self, kernel: OSKernel, max_doc_bytes: int = 512 * 1024):
        self.kernel = kernel
        self.max_doc_bytes = max_doc_bytes
        doc_pages = (max_doc_bytes + PAGE_SIZE - 1) // PAGE_SIZE
        builder = EnclaveBuilder(kernel)
        builder.add_data(va=STATE_VA, writable=True)
        builder.add_shared_buffer(va=SHARED_BASE_VA, writable=True)
        for i in range(doc_pages):
            builder.add_shared_buffer(
                va=SHARED_BASE_VA + PAGE_SIZE * (1 + i), writable=True
            )
        builder.set_native_program(NativeEnclaveProgram("notary", _notary_body))
        self.handle: EnclaveHandle = builder.build()
        self.pubkey_n: Optional[int] = None
        self.attestation_mac: Optional[List[int]] = None

    def _call(self, op: int, arg2: int = 0) -> int:
        err, value = self.handle.call(op, arg2, 0)
        if err is not KomErr.SUCCESS:
            raise RuntimeError(f"notary call failed: {err!r}")
        return value

    def init(self) -> Tuple[int, List[int]]:
        """First entry: key generation + attestation of the public key."""
        self._call(OP_INIT)
        control = self.handle.buffer(0)
        n_words = control.read_words(self.kernel, _RSA_WORDS, offset=_CTL_PUBKEY)
        self.pubkey_n = _words_to_int(n_words)
        self.attestation_mac = control.read_words(self.kernel, 8, offset=_CTL_MAC)
        return (self.pubkey_n, self.attestation_mac)

    def notarize(self, document: bytes) -> NotaryReceipt:
        """Stamp a document; returns the receipt the OS observes."""
        if len(document) % 4:
            document = document + b"\x00" * (4 - len(document) % 4)
        if len(document) > self.max_doc_bytes:
            raise ValueError("document too large for the shared region")
        words = bytes_to_words(document)
        # The OS stages the document in the shared pages.
        for i, buffer in enumerate(self.handle.buffers[1:]):
            start = i * WORDS_PER_PAGE
            if start >= len(words):
                break
            buffer.write_words(self.kernel, words[start : start + WORDS_PER_PAGE])
        counter = self._call(OP_NOTARIZE, len(document))
        control = self.handle.buffer(0)
        sig_words = control.read_words(self.kernel, _RSA_WORDS, offset=_CTL_SIG)
        return NotaryReceipt(
            counter=counter, signature=words_to_bytes(sig_words)
        )

    def counter(self) -> int:
        return self._call(OP_GET_COUNTER)

    def verify_receipt(self, document: bytes, receipt: NotaryReceipt) -> bool:
        """Verify signature over digest(document ‖ counter) ‖ counter."""
        if self.pubkey_n is None:
            raise RuntimeError("notary not initialised")
        if len(document) % 4:
            document = document + b"\x00" * (4 - len(document) % 4)
        digest = sha256(document + receipt.counter.to_bytes(4, "big"))
        key = rsa.RSAKeyPair(n=self.pubkey_n, e=65537, d=0)
        message = digest + receipt.counter.to_bytes(4, "big")
        return rsa.verify(key, message, receipt.signature)

    def teardown(self) -> None:
        self.handle.teardown()


# ---------------------------------------------------------------------------
# Native-process deployment (the Figure 5 baseline)
# ---------------------------------------------------------------------------


class NativeNotary:
    """The notary as a plain Linux process: same logic, same cost model,
    no monitor crossings, no page-table-mediated memory access.  It
    charges the default ``CostModel`` and draws its key from a
    ``HardwareRNG`` seeded ``0xC0FFEE``."""

    def __init__(self):
        self.costs = CostModel()
        self.cycles = 0
        self._rng = HardwareRNG(0xC0FFEE)
        self._key: Optional[rsa.RSAKeyPair] = None
        self._counter = 0

    def _charge(self, cycles: int) -> None:
        self.cycles += cycles

    def init(self) -> int:
        self._key = rsa.generate_keypair(RSA_BITS, self._rng)
        self._counter = 0
        return self._key.n

    def notarize(self, document: bytes) -> NotaryReceipt:
        if self._key is None:
            raise RuntimeError("notary not initialised")
        if len(document) % 4:
            document = document + b"\x00" * (4 - len(document) % 4)
        counter = self._counter
        self._charge((len(document) // 64) * self.costs.sha256_block)
        digest = sha256(document + counter.to_bytes(4, "big"))
        signature = _sign_with_cost(
            self._key, digest + counter.to_bytes(4, "big"), self._charge, self.costs
        )
        self._counter += 1
        return NotaryReceipt(counter=counter, signature=signature)

    def verify_receipt(self, document: bytes, receipt: NotaryReceipt) -> bool:
        if len(document) % 4:
            document = document + b"\x00" * (4 - len(document) % 4)
        digest = sha256(document + receipt.counter.to_bytes(4, "big"))
        message = digest + receipt.counter.to_bytes(4, "big")
        key = rsa.RSAKeyPair(n=self._key.n, e=65537, d=0)
        return rsa.verify(key, message, receipt.signature)
