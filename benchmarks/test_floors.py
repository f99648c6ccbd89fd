"""Wall-clock floors: speed ratios the simulator must keep.

Each floor divides two wall times taken in the same process, so it holds
on any host where absolute times would not: an engine against the
reference interpreter, delta snapshot restore against the full-buffer
copy, a sharded fault campaign against the serial one, CRT RSA
signing against one full-width modexp, and libcrypto's SHA-256 block
function against the pure-Python compress.  The
deterministic side of the same runs (simulated cycles, steps, results,
report digests) is pinned in the tier-1 tests.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_floors.py -q``.
"""

import importlib
import os
import time

import pytest

import repro.arm.memory as memory_mod
from repro.apps.isa_workloads import CODE_VA, WORKLOADS, stage
from repro.apps.notary import NativeNotary
from repro.arm.cpu import CPU, ExitReason
from repro.arm.machine import MachineState
from repro.crypto import rsa
from repro.faults.campaign import LifecycleCampaign
from repro.faults.parallel import report_digest, run_sharded

#: Minimum speedup over the reference engine: 0.7x the recorded
#: speedups (turbo 61.11/50.90/56.12x; fast 6.67/6.04x, and for sha256
#: the higher of its two recorded fast baselines, 6.13x), so a >30%
#: throughput regression fails.
ENGINE_FLOORS = {
    "checksum": {"fast": 4.669, "turbo": 42.777},
    "notary": {"fast": 4.228, "turbo": 35.63},
    "sha256": {"fast": 4.291, "turbo": 39.284},
}


def best_wall(name: str, engine: str, repeats: int) -> float:
    """Best-of-``repeats`` wall seconds for one full-size program run."""
    factory, r0 = WORKLOADS[name]
    program = factory()
    best = None
    for _ in range(repeats):
        state = stage(program, r0)
        cpu = CPU(state, engine=engine)
        start = time.perf_counter()
        result = cpu.run(CODE_VA, max_steps=10_000_000)
        wall = time.perf_counter() - start
        assert result.reason is ExitReason.SVC, (name, engine, result.reason)
        best = wall if best is None else min(best, wall)
    return best


@pytest.mark.parametrize("name", sorted(ENGINE_FLOORS))
def test_engine_speedup_over_reference(name):
    reference = best_wall(name, "reference", 1)
    for engine, floor in ENGINE_FLOORS[name].items():
        speedup = reference / best_wall(name, engine, 3)
        assert speedup >= floor, f"{name} {engine}: {speedup:.2f}x < {floor}x"


def restore_us(state, snap, pages, delta: bool, iterations: int = 200) -> float:
    """Mean microseconds per (dirty ``pages`` + restore) round trip, with
    the dirty-page path (``delta``) or the full-copy oracle selected by
    the module switch."""
    memory = state.memory
    addresses = [state.memmap.page_base(page) for page in pages]
    saved = memory_mod.DELTA_RESTORE
    memory_mod.DELTA_RESTORE = delta
    try:
        start = time.perf_counter()
        for _ in range(iterations):
            for address in addresses:
                memory.write_word(address, 0xD117)
            state.restore(snap)
        return (time.perf_counter() - start) / iterations * 1e6
    finally:
        memory_mod.DELTA_RESTORE = saved


def test_delta_restore_beats_full_copy():
    # 48 secure pages is the cloud template's machine; a full pipeline
    # request dirties about 8 pages, the heaviest serving footprint.
    state = MachineState.boot(secure_pages=48)
    snap = state.snapshot()
    pages = list(range(8))
    delta = restore_us(state, snap, pages, True)
    full = restore_us(state, snap, pages, False)
    assert full / delta >= 5.0, f"delta restore only {full / delta:.2f}x faster"


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4, reason="sharding only scales with 4+ cores"
)
def test_sharded_campaign_scales():
    def campaign():
        return LifecycleCampaign(seed=0xC0FFEE, engine="turbo", stride=6)

    start = time.perf_counter()
    serial = campaign().run()
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    sharded = run_sharded(campaign(), 4)
    jobs_s = time.perf_counter() - start
    assert report_digest(sharded) == report_digest(serial)
    assert serial_s / jobs_s >= 2.0, f"--jobs 4 only {serial_s / jobs_s:.2f}x serial"


#: Minimum CRT signing speedup over one full-width modexp: 0.7x the
#: recorded 2.54x (median of six runs, 512-bit notary key, 2-vCPU
#: host), so a >30% loss of the CRT gain fails.
CRT_SIGN_FLOOR = 1.778


def plain_sign(key, message: bytes) -> bytes:
    """``rsa.sign`` as one full-width ``pow(m, d, n)``."""
    encoded = rsa._pad_digest(rsa.sha256(message), key.size_bytes)
    return pow(encoded, key.d, key.n).to_bytes(key.size_bytes, "big")


def sign_speedup(key, repeats: int = 5, batch: int = 40) -> float:
    """Best plain batch over best CRT batch, the two interleaved."""
    best = {plain_sign: None, rsa.sign: None}
    for _ in range(repeats):
        for sign in best:
            start = time.perf_counter()
            for i in range(batch):
                sign(key, i.to_bytes(4, "big"))
            wall = time.perf_counter() - start
            best[sign] = wall if best[sign] is None else min(best[sign], wall)
    return best[plain_sign] / best[rsa.sign]


def test_crt_sign_beats_plain_modexp():
    notary = NativeNotary()
    notary.init()
    key = notary._key
    assert rsa.sign(key, b"doc") == plain_sign(key, b"doc")  # warms the split
    speedup = sign_speedup(key)
    assert speedup >= CRT_SIGN_FLOOR, f"CRT sign only {speedup:.2f}x plain"


#: Minimum speedup of libcrypto's ``SHA256_Transform`` (through
#: ``ctypes``) over the pure-Python ``_compress``, per block: 0.7x the
#: recorded 68.95x (median of six runs, Python 3.11, 2-vCPU host), so a
#: >30% loss of the native gain fails.
NATIVE_COMPRESS_FLOOR = 48.265

sha256_mod = importlib.import_module("repro.crypto.sha256")


def compress_speedup(repeats: int = 5) -> float:
    """Best reference per-block time over best native per-block time,
    the two interleaved; each batch runs about 20 ms."""
    state, block = sha256_mod._H0, list(range(16))
    batches = {sha256_mod._compress: 100, sha256_mod._native_compress: 5000}
    best = dict.fromkeys(batches)
    for _ in range(repeats):
        for compress, batch in batches.items():
            start = time.perf_counter()
            for _ in range(batch):
                compress(state, block)
            wall = (time.perf_counter() - start) / batch
            best[compress] = wall if best[compress] is None else min(best[compress], wall)
    return best[sha256_mod._compress] / best[sha256_mod._native_compress]


@pytest.mark.skipif(
    sha256_mod._TRANSFORM is None, reason="SHA256_Transform is not resolvable here"
)
def test_native_compress_beats_reference():
    speedup = compress_speedup()
    assert speedup >= NATIVE_COMPRESS_FLOOR, f"native compress only {speedup:.1f}x pure"
