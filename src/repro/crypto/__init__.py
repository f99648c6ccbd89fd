"""Cryptographic substrate.

The paper's prototype borrows a verified ARM SHA-256 from Vale and builds
an HMAC-SHA256 attestation MAC on top, with a hardware RNG supplying the
boot-time attestation secret.  Simulated cost comes from block counts:
the monitor charges ``CostModel.sha256_block`` per compression, whatever
computed the digest.  So a hash keeps its chaining words in Python only
where SHA-256's 8 chaining words are machine-visible (the measurement
midstate stored in the addrspace page, and the refinement checker's
replay of it), compressing each block on libcrypto's block function,
and every one-shot hash and HMAC runs on ``hashlib``/``hmac``.  The package
also provides the RSA signing the notary application needs.
"""

from repro.crypto.hmac import hmac_sha256, hmac_sha256_words
from repro.crypto.rng import HardwareRNG
from repro.crypto.sha256 import sha256

__all__ = ["HardwareRNG", "hmac_sha256", "hmac_sha256_words", "sha256"]
