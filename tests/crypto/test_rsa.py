"""RSA: primality, keygen, sign/verify, tamper rejection, and CRT
signatures byte-identical to the plain modexp."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.crypto import rsa
from repro.crypto.rng import HardwareRNG


@pytest.fixture(scope="module")
def keypair():
    return rsa.generate_keypair(512, HardwareRNG(seed=11))


_PROPERTY_KEY = []


def _property_key():
    """One 512-bit key shared by the hypothesis property (keygen is slow)."""
    if not _PROPERTY_KEY:
        _PROPERTY_KEY.append(rsa.generate_keypair(512, HardwareRNG(seed=13)))
    return _PROPERTY_KEY[0]


class TestPrimality:
    def test_small_primes(self):
        rng = HardwareRNG(seed=1)
        for p in (2, 3, 5, 7, 97, 101, 65537):
            assert rsa.is_probable_prime(p, rng)

    def test_small_composites(self):
        rng = HardwareRNG(seed=1)
        for c in (0, 1, 4, 9, 100, 65536, 561, 1105):  # incl. Carmichael
            assert not rsa.is_probable_prime(c, rng)

    def test_large_known_prime(self):
        rng = HardwareRNG(seed=1)
        assert rsa.is_probable_prime(2**127 - 1, rng)  # Mersenne prime
        assert not rsa.is_probable_prime(2**128 - 1, rng)

    def test_generated_prime_width(self):
        rng = HardwareRNG(seed=2)
        p = rsa.generate_prime(128, rng)
        assert p.bit_length() == 128
        assert p % 2 == 1


class TestKeygen:
    def test_key_sanity(self, keypair):
        assert keypair.n.bit_length() == 512
        assert keypair.e == 65537
        # d inverts e for a random message (functional check).
        m = 0x1234567890ABCDEF
        assert pow(pow(m, keypair.e, keypair.n), keypair.d, keypair.n) == m

    def test_deterministic_given_seed(self):
        a = rsa.generate_keypair(256, HardwareRNG(seed=5))
        b = rsa.generate_keypair(256, HardwareRNG(seed=5))
        assert a.n == b.n and a.d == b.d

    def test_rejects_tiny_modulus(self):
        with pytest.raises(ValueError):
            rsa.generate_keypair(64, HardwareRNG())

    def test_size_bytes(self, keypair):
        assert keypair.size_bytes == 64


class TestSignVerify:
    def test_roundtrip(self, keypair):
        message = b"attested document"
        signature = rsa.sign(keypair, message)
        assert rsa.verify(keypair, message, signature)

    def test_tampered_message_rejected(self, keypair):
        signature = rsa.sign(keypair, b"original")
        assert not rsa.verify(keypair, b"originaL", signature)

    def test_tampered_signature_rejected(self, keypair):
        signature = bytearray(rsa.sign(keypair, b"msg"))
        signature[0] ^= 1
        assert not rsa.verify(keypair, b"msg", bytes(signature))

    def test_wrong_length_signature_rejected(self, keypair):
        assert not rsa.verify(keypair, b"msg", b"\x00" * 63)

    def test_signature_exceeding_modulus_rejected(self, keypair):
        too_big = (keypair.n + 1).to_bytes(keypair.size_bytes, "big")
        assert not rsa.verify(keypair, b"msg", too_big)

    def test_cost_hook_invoked(self, keypair):
        costs = []
        rsa.sign(keypair, b"m", on_cost=costs.append)
        assert len(costs) == 1 and costs[0] > 0

    @given(st.binary(max_size=64))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_property(self, message):
        key = _property_key()
        signature = rsa.sign(key, message)
        assert rsa.verify(key, message, signature)

    def test_modulus_too_small_for_padding(self):
        # A 256-bit modulus cannot hold the 51-byte DigestInfo + padding.
        key = rsa.generate_keypair(256, HardwareRNG(seed=13))
        with pytest.raises(ValueError):
            rsa.sign(key, b"msg")

    def test_cross_key_rejected(self, keypair):
        other = rsa.generate_keypair(512, HardwareRNG(seed=14))
        signature = rsa.sign(keypair, b"msg")
        assert not rsa.verify(other, b"msg", signature)


# ---------------------------------------------------------------------------
# CRT signing: byte-identical to the plain modexp for every key
# ---------------------------------------------------------------------------


def plain_sign(key, message):
    """The signature as one full-width ``pow(m, d, n)``."""
    encoded = rsa._pad_digest(rsa.sha256(message), key.size_bytes)
    return pow(encoded, key.d, key.n).to_bytes(key.size_bytes, "big")


def recorded_keys(drive):
    """The keys ``rsa.sign`` is called with while ``drive()`` runs."""
    keys = []
    original = rsa.sign

    def recording(key, message, on_cost=None):
        keys.append(key)
        return original(key, message, on_cost=on_cost)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rsa, "sign", recording)
        drive()
    assert keys, "the call site signed nothing"
    return keys


def _template_sign():
    from repro.cloud.api import CloudRequest
    from repro.cloud.chaos import base_payload
    from repro.cloud.worker import get_template

    from tests.cloud.conftest import SPEC

    request = CloudRequest(kind="sign", payload=base_payload("sign", 7), nonce=0)
    get_template(SPEC).execute(request)


def _quoting_enclave_quote():
    from repro.apps.remote_attestation import QuotingEnclave
    from repro.monitor.komodo import KomodoMonitor
    from repro.osmodel.kernel import OSKernel

    from tests.apps.test_remote_attestation import make_attesting_enclave

    kernel = OSKernel(KomodoMonitor(secure_pages=96, step_budget=10**9))
    qe = QuotingEnclave(kernel)
    qe.init()
    _, captured = make_attesting_enclave(kernel)
    assert qe.quote(captured["measurement"], captured["data"], captured["mac"])


def _native_notarize():
    from repro.apps.notary import NativeNotary

    notary = NativeNotary()
    notary.init()
    notary.notarize(b"a document")


def flipped(key, field, bit):
    """``key`` with one bit of ``n`` or ``d`` flipped."""
    fields = {"n": key.n, "e": key.e, "d": key.d}
    fields[field] ^= 1 << bit
    return rsa.RSAKeyPair(**fields)


class TestCRTSign:
    @pytest.mark.parametrize(
        "drive", [_template_sign, _quoting_enclave_quote, _native_notarize]
    )
    def test_call_site_keys_sign_by_crt_identically(self, drive):
        for key in recorded_keys(drive):
            assert rsa._crt_params(key.n, key.e, key.d) is not None
            for message in (b"", b"m", bytes(range(100))):
                assert rsa.sign(key, message) == plain_sign(key, message)

    @given(
        seed=st.integers(0, 2**32 - 1),
        e=st.sampled_from([3, 17, 65537]),
        use_lambda=st.booleans(),
        message=st.binary(max_size=40),
    )
    @settings(max_examples=25, deadline=None)
    def test_generated_keys(self, seed, e, use_lambda, message):
        rng = HardwareRNG(seed=seed)
        p, q = rsa.generate_prime(256, rng), rsa.generate_prime(256, rng)
        order = (p - 1) * (q - 1)
        if use_lambda:
            order //= math.gcd(p - 1, q - 1)
        assume(p != q and math.gcd(e, order) == 1)
        key = rsa.RSAKeyPair(n=p * q, e=e, d=pow(e, -1, order))
        assert rsa._crt_params(key.n, key.e, key.d)[:2] in ((p, q), (q, p))
        assert rsa.sign(key, message) == plain_sign(key, message)

    @pytest.mark.parametrize("field", ["n", "d"])
    def test_flipped_keys_fall_back(self, keypair, field):
        # Bit 0 of n makes it even, which splits on base 2 alone.
        for bit in [0, 1, 2, 3, 100, 255, 256, 400, 510, 511]:
            key = flipped(keypair, field, bit)
            assert rsa._crt_params(key.n, key.e, key.d) is None, bit
            assert rsa.sign(key, b"flip") == plain_sign(key, b"flip"), bit

    def test_small_factor_of_flipped_modulus_is_rejected(self, keypair):
        # Flipped moduli divisible by a small base hand the factoring a
        # split whose cofactor is not prime: every one must fall back.
        split = 0
        for bit in range(1, 64):
            key = flipped(keypair, "n", bit)
            if any(key.n % base == 0 for base in rsa._CRT_BASES):
                split += 1
                assert rsa._crt_params(key.n, key.e, key.d) is None, bit
                assert rsa.sign(key, b"x") == plain_sign(key, b"x"), bit
        assert split

    def test_three_prime_key_falls_back(self):
        rng = HardwareRNG(seed=21)
        primes = [rsa.generate_prime(176, rng) for _ in range(3)]
        n = math.prod(primes)
        order = math.lcm(*(p - 1 for p in primes))
        key = rsa.RSAKeyPair(n=n, e=65537, d=pow(65537, -1, order))
        # The key is valid (d inverts e), but n has no two-prime split.
        assert rsa.verify(key, b"three", plain_sign(key, b"three"))
        assert rsa._crt_params(key.n, key.e, key.d) is None
        for message in (b"three", b"primes", b""):
            assert rsa.sign(key, message) == plain_sign(key, message)

    def test_cost_is_the_plain_modexp_formula(self, keypair):
        costs = []
        rsa.sign(keypair, b"m", on_cost=costs.append)
        bits = keypair.n.bit_length()
        words = (bits + 31) // 32
        assert costs == [int(1.5 * bits * words * words)]

    def test_key_cache_stays_at_its_cap(self, keypair):
        for bit in range(rsa.CRT_CACHE_SIZE + 8):
            rsa.sign(flipped(keypair, "d", bit), b"cap")
        info = rsa._crt_params.cache_info()
        assert info.maxsize == rsa.CRT_CACHE_SIZE
        assert info.currsize == rsa.CRT_CACHE_SIZE
