"""Cloud wire types: requests, responses, idempotency, typed errors.

Everything crossing the supervisor/worker pipe is a plain dict built by
``to_wire`` and parsed by ``from_wire`` — explicit, version-checkable,
and independent of pickle's class identity (a worker respawned from a
newer parent still talks the same wire).

Determinism is the backbone of the chaos gate: a response's
``digest()`` covers only engine- and timing-invariant fields (kind,
idempotency key, ok, result words, error code), so a request executed
on any worker, any engine, or the degraded in-process path must produce
the same digest as the pure in-process golden.

A malformed wire dict raises :class:`BadRequest` naming its first
missing or ill-typed field, never a bare ``KeyError`` or ``TypeError``.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

#: The request kinds the cloud serves, and which enclave backs each:
#:
#: * ``attest``   — vault enclave: MAC over 8 caller words (Attest SVC);
#: * ``seal``     — vault enclave: seal payload words to the enclave
#:                  identity, return the blob the OS may store;
#: * ``unseal``   — vault enclave: seal-then-unseal roundtrip of the
#:                  payload (self-contained; returns the plaintext);
#: * ``sign``     — notary enclave: RSA signature over the document,
#:                  returns [counter] ++ signature words;
#: * ``checksum`` — CRC-32 service in real ARM machine code (the
#:                  engine-sensitive kind);
#: * ``spin``     — vault enclave: payload[0] preemption points of pure
#:                  compute (the kind that can exceed a step budget);
#: * ``pipeline`` — composite counter-notary pipeline: a two-enclave
#:                  commit (sealed counter + notary) over transactional
#:                  channels, returns [status, value] ++ receipt words.
REQUEST_KINDS = ("attest", "seal", "unseal", "sign", "checksum", "spin", "pipeline")

#: Payload word-count ceiling (seal blobs must fit the shared page half).
MAX_PAYLOAD_WORDS = 256


class CloudError(Exception):
    """Base of the cloud's typed errors.

    ``code`` is the wire-stable identifier; ``retryable`` says whether
    a client re-submitting the same request could succeed (the chaos
    gate accepts only bit-exact success or a *retryable* typed error).
    """

    code = "cloud_error"
    retryable = False

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)


class WorkerCrashed(CloudError):
    """Every dispatch attempt died with the worker; resubmission may hit
    a healthy pool."""

    code = "worker_crashed"
    retryable = True


class RequestTimeout(CloudError):
    """The request outlived its wall-clock budget on a (wedged) worker."""

    code = "request_timeout"
    retryable = True


class DeadlineExceeded(CloudError):
    """The enclave exhausted its deterministic step budget: the same
    request will exhaust it again, so this is not retryable."""

    code = "deadline_exceeded"
    retryable = False


class PoolClosed(CloudError):
    """The service shut down with the request still pending."""

    code = "pool_closed"
    retryable = True


class BadRequest(CloudError):
    """Malformed request (unknown kind, oversized or ill-shaped payload)."""

    code = "bad_request"
    retryable = False


#: wire code -> exception class, for typed reconstruction client-side.
ERROR_CODES = {
    cls.code: cls
    for cls in (
        CloudError,
        WorkerCrashed,
        RequestTimeout,
        DeadlineExceeded,
        PoolClosed,
        BadRequest,
    )
}


#: ``(field, accepted types)`` of each wire dict, in dataclass order.
_REQUEST_WIRE = (
    ("kind", str),
    ("payload", (list, tuple)),
    ("tenant", str),
    ("nonce", int),
)
_RESPONSE_WIRE = (
    ("kind", str),
    ("key", str),
    ("ok", bool),
    ("words", (list, tuple)),
    ("error_code", (str, type(None))),
    ("error", (str, type(None))),
    ("worker", int),
    ("attempts", int),
    ("degraded", bool),
    ("elapsed", (int, float)),
)
_REQUEST_TYPES = tuple(types for _, types in _REQUEST_WIRE)
_RESPONSE_TYPES = tuple(types for _, types in _RESPONSE_WIRE)


def _malformed(what: str, wire, fields) -> BadRequest:
    """The error for a ``wire`` dict that failed to decode, naming its
    first missing or ill-typed field (the slow path of ``from_wire``)."""
    if not isinstance(wire, dict):
        return BadRequest(f"{what} wire is a {type(wire).__name__}, not a dict")
    for name, types in fields:
        if name not in wire:
            return BadRequest(f"{what} wire lacks field {name!r}")
        value = wire[name]
        if not isinstance(value, types):
            return BadRequest(
                f"{what} wire field {name!r} is ill-typed ({type(value).__name__})"
            )
        # Request payloads are masked to 32 bits; response words must fit.
        if isinstance(value, (list, tuple)) and not all(
            isinstance(word, int) and (what == "request" or 0 <= word <= 0xFFFFFFFF)
            for word in value
        ):
            return BadRequest(f"{what} wire field {name!r} holds a non-word")
        if name == "nonce" and not 0 <= value < 1 << 64:
            return BadRequest(f"{what} wire field 'nonce' is out of range")
    return BadRequest(f"malformed {what} wire")


@dataclass(frozen=True)
class CloudRequest:
    """One tenant request: a kind plus its payload words.

    ``nonce`` distinguishes deliberate repeats of an otherwise identical
    request; two requests with equal ``key`` are *the same* request and
    the service executes them at most once.
    """

    kind: str
    payload: Tuple[int, ...] = ()
    tenant: str = "t0"
    nonce: int = 0

    def __post_init__(self):
        object.__setattr__(self, "payload", tuple(w & 0xFFFFFFFF for w in self.payload))

    @property
    def key(self) -> str:
        """Idempotency key: a stable hash of the request's identity."""
        hasher = hashlib.sha256()
        hasher.update(self.kind.encode())
        hasher.update(self.tenant.encode())
        hasher.update(self.nonce.to_bytes(8, "big"))
        for word in self.payload:
            hasher.update(word.to_bytes(4, "big"))
        return hasher.hexdigest()[:32]

    def validate(self) -> None:
        """Raise :class:`BadRequest` on a request no worker should run."""
        if self.kind not in REQUEST_KINDS:
            raise BadRequest(f"unknown request kind {self.kind!r}")
        if len(self.payload) > MAX_PAYLOAD_WORDS:
            raise BadRequest(
                f"payload of {len(self.payload)} words exceeds "
                f"{MAX_PAYLOAD_WORDS}"
            )
        if self.kind == "attest" and len(self.payload) != 8:
            raise BadRequest("attest needs exactly 8 payload words")
        if self.kind == "spin" and len(self.payload) != 1:
            raise BadRequest("spin needs exactly one payload word")
        if self.kind == "pipeline" and len(self.payload) != 4:
            raise BadRequest("pipeline needs exactly 4 document words")
        if self.kind in ("seal", "unseal", "sign", "checksum") and not self.payload:
            raise BadRequest(f"{self.kind} needs a non-empty payload")

    def to_wire(self) -> Dict:
        return {
            "kind": self.kind,
            "payload": list(self.payload),
            "tenant": self.tenant,
            "nonce": self.nonce,
        }

    @classmethod
    def from_wire(cls, wire: Dict) -> "CloudRequest":
        try:
            values = [wire[name] for name, _ in _REQUEST_WIRE]
            nonce = values[3]
            if all(map(isinstance, values, _REQUEST_TYPES)) and 0 <= nonce < 1 << 64:
                return cls(values[0], tuple(values[1]), values[2], nonce)
        except (KeyError, TypeError):  # a missing field, or a non-int word
            pass
        raise _malformed("request", wire, _REQUEST_WIRE)


@dataclass(frozen=True)
class CloudResponse:
    """The terminal outcome of one request: success words or a typed error.

    ``worker``, ``attempts``, ``degraded`` and ``elapsed`` are serving
    metadata — useful for stats, excluded from :meth:`digest` so the
    digest is a pure function of (request, enclave semantics).
    """

    kind: str
    key: str
    ok: bool
    words: Tuple[int, ...] = ()
    error_code: Optional[str] = None
    error: Optional[str] = None
    worker: int = -1
    attempts: int = 1
    degraded: bool = False
    elapsed: float = field(default=0.0, compare=False)

    @property
    def retryable(self) -> bool:
        if self.ok or self.error_code is None:
            return False
        cls = ERROR_CODES.get(self.error_code, CloudError)
        return cls.retryable

    def digest(self) -> str:
        """Engine- and timing-invariant summary of the outcome."""
        hasher = hashlib.sha256()
        hasher.update(self.kind.encode())
        hasher.update(self.key.encode())
        hasher.update(b"\x01" if self.ok else b"\x00")
        hasher.update((self.error_code or "").encode())
        for word in self.words:
            hasher.update(word.to_bytes(4, "big"))
        return hasher.hexdigest()

    def to_wire(self) -> Dict:
        return {
            "kind": self.kind,
            "key": self.key,
            "ok": self.ok,
            "words": list(self.words),
            "error_code": self.error_code,
            "error": self.error,
            "worker": self.worker,
            "attempts": self.attempts,
            "degraded": self.degraded,
            "elapsed": self.elapsed,
        }

    @classmethod
    def from_wire(cls, wire: Dict) -> "CloudResponse":
        try:
            values = [wire[name] for name, _ in _RESPONSE_WIRE]
            if all(map(isinstance, values, _RESPONSE_TYPES)):
                # array("L") rejects a non-int or negative word at C speed.
                words = array("L", values[3])
                if not words or max(words) <= 0xFFFFFFFF:
                    values[3] = tuple(words)
                    return cls(*values)
        except (KeyError, TypeError, OverflowError):
            pass
        raise _malformed("response", wire, _RESPONSE_WIRE)

    @classmethod
    def failure(
        cls, request: CloudRequest, exc: CloudError, **metadata
    ) -> "CloudResponse":
        return cls(
            kind=request.kind,
            key=request.key,
            ok=False,
            error_code=exc.code,
            error=str(exc),
            **metadata,
        )


def results_digest(responses) -> str:
    """Order-independent digest of a whole result set.

    Responses are sorted by idempotency key, so two runs that completed
    the same requests — in any order, on any engine, on any mix of pool
    and degraded paths — digest identically.
    """
    hasher = hashlib.sha256()
    for response in sorted(responses, key=lambda r: r.key):
        hasher.update(response.digest().encode())
    return hasher.hexdigest()
