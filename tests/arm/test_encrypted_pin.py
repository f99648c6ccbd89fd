"""Pinned end state of one enclave lifecycle on encrypted memory.

The memory engine's keystream and tags are functions of (device key,
address, ciphertext) only, so how the engine computes its hashes must
not change a single stored bit.  This pins, after a fixed lifecycle,
the plaintext secure-state digest the campaigns compare and the raw
ciphertext words and tags a physical attacker would see at a few fixed
secure addresses.
"""

from repro.arm.assembler import Assembler
from repro.arm.encryption import EncryptedMemory
from repro.arm.machine import MachineState
from repro.arm.memory import MemoryMap
from repro.crypto.rng import HardwareRNG
from repro.faults.audit import secure_state_digest
from repro.monitor.errors import KomErr
from repro.monitor.komodo import KomodoMonitor
from repro.monitor.layout import SVC, pagedb_entry_addr
from repro.osmodel.kernel import OSKernel
from repro.sdk.builder import CODE_VA, EnclaveBuilder

DEVICE_KEY = 0x5EED

DIGEST_AFTER_CALL = "40248b6d827157882e66ea01d4308d9e3c2c105a85cec24ce5f6122c5a412b3b"
DIGEST_AFTER_TEARDOWN = "9b2de6123f63e5b915e0c2e821280ec0332323b8b05f580c702d834604df20ca"

#: (address label, raw ciphertext word, tag) after the call.
RAW_AFTER_CALL = [
    ("pagedb[0].type", 177223321, 3050051163),
    ("pagedb[1].owner", 1558931064, 2351011459),
    ("code[0]", 2771498086, 117419449),
    ("code[1]", 2541809448, 3749764188),
    ("addrspace[0]", 1438086847, 4117295618),
]


def _lifecycle():
    memmap = MemoryMap(secure_pages=6)
    memory = EncryptedMemory(memmap, device_key=DEVICE_KEY)
    state = MachineState(memmap=memmap, memory=memory)
    monitor = KomodoMonitor(state=state, rng=HardwareRNG(seed=3))
    kernel = OSKernel(monitor)
    asm = Assembler()
    asm.add("r0", "r0", "r1")
    asm.svc(SVC.EXIT)
    enclave = EnclaveBuilder(kernel).add_code(asm).add_thread(CODE_VA).build(lint="off")
    assert enclave.call(40, 2) == (KomErr.SUCCESS, 42)
    return monitor, enclave


def _probe_addresses(monitor, enclave):
    memmap = monitor.state.memmap
    code_base = monitor.pagedb.page_base(enclave.data_pages[CODE_VA])
    return [
        ("pagedb[0].type", pagedb_entry_addr(memmap.monitor_image.base, 0)),
        ("pagedb[1].owner", pagedb_entry_addr(memmap.monitor_image.base, 1) + 4),
        ("code[0]", code_base),
        ("code[1]", code_base + 4),
        ("addrspace[0]", memmap.page_base(enclave.as_page)),
    ]


def _raw(monitor, enclave):
    memory = monitor.state.memory
    return [
        (label, memory.physical_read(address), memory._tags.get(address))
        for label, address in _probe_addresses(monitor, enclave)
    ]


def test_encrypted_lifecycle_is_pinned():
    monitor, enclave = _lifecycle()
    assert _raw(monitor, enclave) == RAW_AFTER_CALL
    assert secure_state_digest(monitor.state) == DIGEST_AFTER_CALL
    enclave.teardown()
    assert secure_state_digest(monitor.state) == DIGEST_AFTER_TEARDOWN
