"""HMAC charges exactly the compressions a block-by-block HMAC performs.

``hmac_sha256`` computes its MAC with the standard library but calls
``on_block`` once per SHA-256 compression the from-scratch hash would
run, which is what the monitor's cycle accounting charges.  The oracle
here is RFC 2104 built on the incremental :class:`SHA256`.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.arm.machine import MachineState
from repro.crypto.hmac import hmac_sha256
from repro.crypto.rng import HardwareRNG
from repro.crypto.sha256 import BLOCK_SIZE, SHA256, sha256
from repro.monitor.attestation import Attestation


def pure_hmac(key: bytes, message: bytes):
    """``(mac, compressions)`` of RFC 2104 HMAC on the incremental SHA256."""
    blocks = []

    def count():
        blocks.append(1)

    if len(key) > BLOCK_SIZE:
        key = sha256(key)  # uncharged, as in the monitor's HMAC
    key = key.ljust(BLOCK_SIZE, b"\x00")
    inner = SHA256(on_block=count)
    inner.update(bytes(b ^ 0x36 for b in key))
    inner.update(message)
    outer = SHA256(on_block=count)
    outer.update(bytes(b ^ 0x5C for b in key))
    outer.update(inner.digest())
    return outer.digest(), len(blocks)


@settings(max_examples=150, deadline=None)
@given(key=st.binary(max_size=100), message=st.binary(max_size=200))
@example(key=b"", message=b"")
@example(key=b"k" * 64, message=b"m" * 55)
@example(key=b"k" * 65, message=b"m" * 56)
@example(key=b"k" * 100, message=b"m" * 64)
@example(key=b"k" * 32, message=b"m" * 119)
@example(key=b"k" * 32, message=b"m" * 120)
@example(key=b"k" * 32, message=b"m" * 200)
def test_on_block_count_matches_pure_compressions(key, message):
    calls = []
    mac = hmac_sha256(key, message, on_block=lambda: calls.append(1))
    expected_mac, expected_blocks = pure_hmac(key, message)
    assert mac == expected_mac
    assert len(calls) == expected_blocks


def test_attestation_mac_charges_five_blocks():
    """Attest MACs 16 words: 3 inner and 2 outer compressions."""
    state = MachineState.boot(secure_pages=4)
    attestation = Attestation(state, HardwareRNG(seed=99))
    attestation.generate_boot_key()
    before = state.cycles
    attestation._key_words()
    key_reads = state.cycles - before
    before = state.cycles
    attestation.mac(list(range(8)), list(range(8, 16)))
    assert state.cycles - before == key_reads + 5 * state.costs.sha256_block
