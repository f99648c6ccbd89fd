"""Three raw ARM programs for driving the execution engines directly.

``checksum``, ``notary`` and ``sha256`` are the CPU-bound loops the
engine tests pin (simulated cycles, steps and result must agree on every
engine) and the engine-speedup floors time.  Each runs in user mode on
a machine :func:`stage` boots, with the program mapped RX at ``CODE_VA``
and one data page RW at ``DATA_VA``; ``r0`` is the program's size
argument and holds its result when it exits through ``SVC.EXIT``.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.apps.checksum import CRC_POLY
from repro.arm.assembler import Assembler
from repro.arm.machine import MachineState
from repro.arm.modes import Mode
from repro.arm.pagetable import l1_index, l2_index, make_l1_entry, make_l2_entry
from repro.arm.registers import PSR
from repro.monitor.layout import SVC

CODE_VA = 0x0000_1000
DATA_VA = 0x0000_4000
DATA_WORDS = 256


def checksum_program() -> Assembler:
    """The checksum app's CRC-32 inner loop (repro.apps.checksum), with
    the buffer at DATA_VA; r0 = word count."""
    asm = Assembler()
    asm.mov("r5", "r0")
    asm.mov32("r4", DATA_VA)
    asm.mov32("r6", 0xFFFFFFFF)
    asm.mov32("r9", CRC_POLY)
    asm.movw("r10", 1)
    asm.label("word_loop")
    asm.ldr("r7", "r4", 0)
    asm.eor("r6", "r6", "r7")
    asm.movw("r8", 32)
    asm.label("bit_loop")
    asm.tst("r6", "r10")
    asm.beq("even")
    asm.lsri("r6", "r6", 1)
    asm.eor("r6", "r6", "r9")
    asm.b("bit_done")
    asm.label("even")
    asm.lsri("r6", "r6", 1)
    asm.label("bit_done")
    asm.subi("r8", "r8", 1)
    asm.cmpi("r8", 0)
    asm.bne("bit_loop")
    asm.addi("r4", "r4", 4)
    asm.subi("r5", "r5", 1)
    asm.cmpi("r5", 0)
    asm.bne("word_loop")
    asm.mvn("r0", "r6")
    asm.svc(SVC.EXIT)
    return asm


def notary_program() -> Assembler:
    """A notary-shaped workload: MAC-like chained mixing of a message.

    The notary app proper is a native program (its logic runs in Python);
    this is the equivalent register-pressure profile in actual ARM code:
    per round, absorb one message word into a rotating state with
    add/eor/ror, as a keyed sponge would.  r0 = round count.
    """
    asm = Assembler()
    asm.mov("r5", "r0")  # rounds remaining
    asm.mov32("r4", DATA_VA)  # message base
    asm.movw("r3", 0)  # message cursor (wraps at DATA_WORDS)
    asm.mov32("r6", 0x6A09E667)  # state a
    asm.mov32("r7", 0xBB67AE85)  # state b
    asm.mov32("r8", 0x3C6EF372)  # state c
    asm.movw("r9", 7)  # rotation amounts
    asm.movw("r10", 13)
    asm.label("round")
    asm.ldrr("r11", "r4", "r3")  # m = message[cursor]
    asm.eor("r6", "r6", "r11")  # a ^= m
    asm.add("r6", "r6", "r7")  # a += b
    asm.ror("r7", "r7", "r9")  # b = ror(b, 7)
    asm.eor("r7", "r7", "r8")  # b ^= c
    asm.add("r8", "r8", "r11")  # c += m
    asm.ror("r8", "r8", "r10")  # c = ror(c, 13)
    asm.addi("r3", "r3", 4)  # advance cursor, wrap at page end
    asm.cmpi("r3", DATA_WORDS * 4)
    asm.bne("no_wrap")
    asm.movw("r3", 0)
    asm.label("no_wrap")
    asm.subi("r5", "r5", 1)
    asm.cmpi("r5", 0)
    asm.bne("round")
    asm.eor("r0", "r6", "r7")
    asm.eor("r0", "r0", "r8")
    asm.svc(SVC.EXIT)
    return asm


def sha256_program() -> Assembler:
    """A sha256-shaped workload: the message-schedule sigma functions.

    Per word w: sigma0(w) = ror(w,7) ^ ror(w,18) ^ (w >> 3), accumulated
    across the buffer; r0 = number of passes over the buffer.
    """
    asm = Assembler()
    asm.mov("r5", "r0")  # passes remaining
    asm.mov32("r6", 0)  # accumulator
    asm.movw("r9", 7)
    asm.movw("r10", 18)
    asm.label("pass_loop")
    asm.mov32("r4", DATA_VA)
    asm.movw("r3", DATA_WORDS)
    asm.label("word_loop")
    asm.ldr("r7", "r4", 0)
    asm.ror("r8", "r7", "r9")  # ror(w, 7)
    asm.ror("r11", "r7", "r10")  # ror(w, 18)
    asm.eor("r8", "r8", "r11")
    asm.lsri("r11", "r7", 3)  # w >> 3
    asm.eor("r8", "r8", "r11")
    asm.add("r6", "r6", "r8")
    asm.addi("r4", "r4", 4)
    asm.subi("r3", "r3", 1)
    asm.cmpi("r3", 0)
    asm.bne("word_loop")
    asm.subi("r5", "r5", 1)
    asm.cmpi("r5", 0)
    asm.bne("pass_loop")
    asm.mov("r0", "r6")
    asm.svc(SVC.EXIT)
    return asm


#: workload name -> (program factory, r0 for the full-size run)
WORKLOADS: Dict[str, Tuple[Callable[[], Assembler], int]] = {
    "checksum": (checksum_program, DATA_WORDS),
    "notary": (notary_program, 6000),
    "sha256": (sha256_program, 24),
}


def stage(program: Assembler, r0: int) -> MachineState:
    """Boot a machine with the program mapped RX at CODE_VA and a data
    page RW at DATA_VA (the sidechannel profiler's layout)."""
    state = MachineState.boot(secure_pages=8)
    memmap = state.memmap
    l1, l2 = memmap.page_base(0), memmap.page_base(1)
    memory = state.memory
    memory.write_word(l1 + l1_index(CODE_VA) * 4, make_l1_entry(l2))
    memory.write_word(
        l2 + l2_index(CODE_VA) * 4,
        make_l2_entry(memmap.page_base(2), True, False, True, True),
    )
    memory.write_word(
        l2 + l2_index(DATA_VA) * 4,
        make_l2_entry(memmap.page_base(3), True, True, False, True),
    )
    memory.write_words(memmap.page_base(2), program.assemble())
    data = [(i * 2654435761 + 0x9E3779B9) & 0xFFFFFFFF for i in range(DATA_WORDS)]
    memory.write_words(memmap.page_base(3), data)
    state.load_ttbr0(l1)
    state.flush_tlb()
    state.regs.cpsr = PSR(mode=Mode.USR, irq_masked=False, fiq_masked=False)
    state.regs.write_gpr(0, r0)
    return state
