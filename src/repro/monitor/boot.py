"""The bootloader (paper section 7.2).

The prototype's bootloader loads the monitor in secure world, sets up
its memory map and exception vectors, reserves a configurable amount of
RAM as secure memory, provides the attestation secret (standing in for
the hardware-backed root of trust the Raspberry Pi lacks), and finally
switches to normal world to boot the untrusted OS.

The paper notes the bootloader "runs to completion without taking
exceptions, so it is much simpler than the monitor" — and is trusted.
This module models those duties explicitly so they are testable: the
platform's secure-region size, the attestation-secret provenance, and
the handover state are all bootloader decisions, not monitor ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.arm.machine import MachineState
from repro.arm.modes import Mode, World
from repro.arm.registers import PSR
from repro.crypto.rng import HardwareRNG
from repro.monitor import integrity
from repro.monitor.attestation import Attestation
from repro.monitor.pagedb import PageDB


@dataclass
class BootReport:
    """What the bootloader established, for the OS and for audits."""

    secure_pages: int
    monitor_image_base: int
    secure_base: int
    insecure_base: int
    attestation_key_provisioned: bool


class Bootloader:
    """Performs the boot sequence against a machine state.

    Separated from the monitor so tests can check each duty and so a
    platform could substitute its own provisioning (e.g. a fused key
    instead of an RNG draw) without touching monitor code.
    """

    def __init__(
        self,
        secure_pages: int = 64,
        rng: Optional[HardwareRNG] = None,
    ):
        self.secure_pages = secure_pages
        self.rng = rng or HardwareRNG()

    def boot(self, state: Optional[MachineState] = None) -> tuple:
        """Run the boot sequence; returns (state, attestation, report).

        Steps, in the prototype's order:
        1. establish the memory map (done by MachineState construction —
           the map is fixed hardware-plus-bootloader configuration);
        2. zero the PageDB so no secure page appears allocated;
        3. provision the attestation secret from the randomness source;
        4. switch to normal world, SVC mode, interrupts enabled, ready
           to run the untrusted OS.
        """
        state = state or MachineState.boot(secure_pages=self.secure_pages)
        if state.world is not World.SECURE:
            raise RuntimeError("the bootloader must start in secure world")
        pagedb = PageDB(state)
        for pageno in range(pagedb.npages):
            pagedb.free_entry(pageno)
        integrity.initialise(state)
        attestation = Attestation(state, self.rng)
        attestation.generate_boot_key()
        state.world = World.NORMAL
        state.regs.cpsr = PSR(mode=Mode.SVC, irq_masked=False, fiq_masked=True)
        report = BootReport(
            secure_pages=pagedb.npages,
            monitor_image_base=state.memmap.monitor_image.base,
            secure_base=state.memmap.secure.base,
            insecure_base=state.memmap.insecure.base,
            attestation_key_provisioned=True,
        )
        return (state, attestation, report)
