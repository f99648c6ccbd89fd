"""SHA-256: standard vectors, hashlib cross-check, incremental state,
and libcrypto's block function against the pure reference compress."""

import ctypes
import hashlib
import importlib
import importlib.util
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arm.bits import bytes_to_words
from repro.crypto.sha256 import BLOCK_SIZE, DIGEST_SIZE, SHA256, sha256, sha256_words

#: The module itself: ``repro.crypto`` re-exports a ``sha256`` function
#: that shadows the submodule attribute.
sha256_mod = importlib.import_module("repro.crypto.sha256")

# FIPS 180-4 / NIST test vectors.
VECTORS = [
    (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
    (
        b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
    ),
    (b"a" * 1_000_000, "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"),
]


class TestVectors:
    @pytest.mark.parametrize("message,expected", VECTORS[:3])
    def test_nist_vectors(self, message, expected):
        assert sha256(message).hex() == expected

    def test_million_a(self):
        message, expected = VECTORS[3]
        assert sha256(message).hex() == expected

    def test_digest_size(self):
        assert len(sha256(b"x")) == DIGEST_SIZE


class TestAgainstHashlib:
    @given(st.binary(max_size=512))
    @settings(max_examples=200)
    def test_matches_hashlib(self, data):
        assert sha256(data) == hashlib.sha256(data).digest()

    @given(st.lists(st.binary(max_size=100), max_size=8))
    def test_incremental_matches(self, chunks):
        ours = SHA256()
        reference = hashlib.sha256()
        for chunk in chunks:
            ours.update(chunk)
            reference.update(chunk)
        assert ours.digest() == reference.digest()

    def test_boundary_lengths(self):
        """Lengths around the padding boundary (55/56/63/64/65 bytes)."""
        for length in (0, 1, 55, 56, 57, 63, 64, 65, 119, 120, 128):
            data = bytes(range(256))[:length] * 1
            data = (b"\xab" * length)
            assert sha256(data) == hashlib.sha256(data).digest()


class TestIncrementalState:
    def test_block_interface_matches_bytes(self):
        data = bytes(range(128))
        block_wise = SHA256()
        for i in range(0, 128, 64):
            block_wise.update_block_words(bytes_to_words(data[i : i + 64]))
        assert block_wise.digest() == sha256(data)

    def test_save_and_resume_state(self):
        """The monitor persists chaining state between MapSecure calls."""
        data = bytes(range(64)) * 3
        full = SHA256()
        full.update(data)
        partial = SHA256()
        partial.update_block_words(bytes_to_words(data[:64]))
        resumed = SHA256.from_state(partial.state_words, 64)
        resumed.update_block_words(bytes_to_words(data[64:128]))
        resumed.update_block_words(bytes_to_words(data[128:]))
        assert resumed.digest() == full.digest()

    def test_resume_requires_block_alignment(self):
        with pytest.raises(ValueError):
            SHA256.from_state([0] * 8, 63)

    def test_resume_requires_eight_words(self):
        with pytest.raises(ValueError):
            SHA256.from_state([0] * 7, 64)

    def test_block_requires_sixteen_words(self):
        with pytest.raises(ValueError):
            SHA256().update_block_words([0] * 15)

    def test_no_update_after_digest(self):
        hasher = SHA256()
        hasher.digest()
        with pytest.raises(RuntimeError):
            hasher.update(b"late")
        with pytest.raises(RuntimeError):
            hasher.update_block_words([0] * 16)

    def test_mixing_interfaces_rejected(self):
        hasher = SHA256()
        hasher.update(b"odd")  # leaves a partial buffer
        with pytest.raises(RuntimeError):
            hasher.update_block_words([0] * 16)

    def test_digest_idempotent(self):
        hasher = SHA256()
        hasher.update(b"hello")
        assert hasher.digest() == hasher.digest()

    def test_digest_words(self):
        words = SHA256()
        words.update(b"abc")
        assert len(words.digest_words()) == 8
        reconstructed = b"".join(w.to_bytes(4, "big") for w in words.digest_words())
        assert reconstructed == sha256(b"abc")


class TestCostHook:
    def test_on_block_called_per_compression(self):
        calls = []
        hasher = SHA256(on_block=lambda: calls.append(1))
        hasher.update(b"x" * 200)  # 3 full blocks consumed, 8 bytes buffered
        assert len(calls) == 3
        hasher.digest()  # padding adds one more block
        assert len(calls) == 4

    def test_sha256_words_helper(self):
        assert sha256_words([0x61626380]) == bytes_to_words(
            hashlib.sha256(b"\x61\x62\x63\x80").digest()
        )


_words = st.integers(0, 0xFFFFFFFF)
native = pytest.mark.skipif(
    sha256_mod._TRANSFORM is None, reason="SHA256_Transform is not resolvable here"
)


@native
class TestNativeCompress:
    def test_is_the_compression_in_use(self):
        assert sha256_mod._COMPRESS is sha256_mod._native_compress

    @given(
        st.lists(_words, min_size=8, max_size=8),
        st.lists(_words, min_size=16, max_size=16),
    )
    @settings(max_examples=300)
    def test_matches_reference_compress(self, state, block):
        assert sha256_mod._native_compress(state, block) == sha256_mod._compress(
            state, block
        )

    @pytest.mark.parametrize("message,expected", VECTORS[:3])
    @pytest.mark.parametrize("compress", ["_native_compress", "_compress"])
    def test_fips_vectors_on_either_compress(self, message, expected, compress, monkeypatch):
        monkeypatch.setattr(sha256_mod, "_COMPRESS", getattr(sha256_mod, compress))
        hasher = SHA256()
        hasher.update(message)
        assert hasher.hexdigest() == expected

    def test_threads_hashing_at_once_match_hashlib(self):
        """The foreign call releases the GIL: no context may be shared."""
        messages = [bytes([i]) * (64 * 400 + 13 * i) for i in range(4)]
        start = threading.Barrier(len(messages))
        digests = [None] * len(messages)

        def work(i):
            hasher = SHA256()
            start.wait()
            for offset in range(0, len(messages[i]), 64):
                hasher.update(messages[i][offset : offset + 64])
            digests[i] = hasher.digest()

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert digests == [hashlib.sha256(m).digest() for m in messages]


class _NoSymbols:
    """A loaded library exporting nothing (a static or ``no-deprecated``
    OpenSSL)."""

    def __init__(self, name):
        pass

    def __getattr__(self, name):
        raise AttributeError(name)


def _unloadable(name):
    raise OSError(f"cannot load {name}")


@pytest.mark.parametrize("missing", ["symbol", "library", "_hashlib"])
def test_unresolvable_symbol_falls_back_to_reference(missing, monkeypatch):
    """A fresh copy of the module, imported where the symbol cannot be
    resolved, picks the pure compress and still hashes correctly."""
    if missing == "symbol":
        monkeypatch.setattr(ctypes, "CDLL", _NoSymbols)
    elif missing == "library":
        monkeypatch.setattr(ctypes, "CDLL", _unloadable)
    else:
        monkeypatch.setitem(sys.modules, "_hashlib", None)
    spec = importlib.util.spec_from_file_location("_sha256_fallback", sha256_mod.__file__)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module._TRANSFORM is None and module._COMPRESS is module._compress
    for message, expected in VECTORS[:3]:
        hasher = module.SHA256()
        hasher.update(message)
        assert hasher.hexdigest() == expected
    data = bytes(range(128))
    block_wise = module.SHA256()
    for i in range(0, 128, 64):
        block_wise.update_block_words(bytes_to_words(data[i : i + 64]))
    assert block_wise.digest() == hashlib.sha256(data).digest()
