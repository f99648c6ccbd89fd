"""Side-channel analysis for enclave programs.

Classic side channels are out of scope for the *monitor's* guarantees
(paper section 3.1), which is precisely why enclave code must avoid
secret-dependent behaviour itself: the paper's SHA-256 carries a proof
of "freedom from digital (cache and timing) side channels", i.e. its
instruction count and address trace are independent of the data hashed
(sections 7.2, 10).

This module checks that property *dynamically* for enclave programs on
the machine model: run the program under multiple secrets and compare

* the retired-instruction count (the timing channel an OS measuring
  enclave runtime observes), and
* the full address trace of fetches, loads and stores (the channel a
  cache attacker observes),

reporting the first divergence.  Dynamic checking over chosen secrets is
weaker than Vale's proof, but it catches the standard offenders —
secret-dependent branches and secret-indexed table lookups — and passes
genuinely constant-time code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.arm.assembler import Assembler
from repro.arm.cpu import CPU, ExitReason
from repro.arm.machine import MachineState
from repro.arm.modes import Mode
from repro.arm.pagetable import l1_index, l2_index, make_l1_entry, make_l2_entry
from repro.arm.registers import PSR

CODE_VA = 0x0000_1000
SECRET_VA = 0x0000_2000


@dataclass
class Profile:
    """One run's observable behaviour."""

    steps: int
    trace: List[Tuple[str, int]]
    exit_reason: ExitReason


@dataclass
class LeakReport:
    """The analyser's verdict over a set of secrets."""

    constant_time: bool
    instruction_count_leak: bool = False
    address_trace_leak: bool = False
    first_divergence: Optional[str] = None
    profiles: List[Profile] = field(default_factory=list)


def profile(program: Assembler, secret_words: Sequence[int]) -> Profile:
    """Run ``program`` with ``secret_words`` mapped read-only at
    SECRET_VA, for at most 200,000 steps, and record its observable
    behaviour."""
    state = MachineState.boot(secure_pages=8)
    memmap = state.memmap
    l1 = memmap.page_base(0)
    l2 = memmap.page_base(1)
    state.memory.write_word(l1 + l1_index(CODE_VA) * 4, make_l1_entry(l2))
    state.memory.write_word(
        l2 + l2_index(CODE_VA) * 4,
        make_l2_entry(memmap.page_base(2), True, False, True, True),
    )
    state.memory.write_word(
        l2 + l2_index(SECRET_VA) * 4,
        make_l2_entry(memmap.page_base(3), True, True, False, True),
    )
    # Scratch page for programs that want writable memory.
    state.memory.write_word(
        l2 + l2_index(SECRET_VA + 0x1000) * 4,
        make_l2_entry(memmap.page_base(4), True, True, False, True),
    )
    code_base = memmap.page_base(2)
    for i, word in enumerate(program.assemble()):
        state.memory.write_word(code_base + i * 4, word)
    secret_base = memmap.page_base(3)
    for i, word in enumerate(secret_words):
        state.memory.write_word(secret_base + i * 4, word)
    state.load_ttbr0(l1)
    state.flush_tlb()
    state.regs.cpsr = PSR(mode=Mode.USR, irq_masked=False, fiq_masked=False)
    cpu = CPU(state)
    cpu.access_trace = []
    result = cpu.run(CODE_VA, max_steps=200_000)
    return Profile(steps=result.steps, trace=cpu.access_trace, exit_reason=result.reason)


def check_constant_time(
    program: Assembler, secrets: Sequence[Sequence[int]]
) -> LeakReport:
    """Profile the program under each secret and compare observables."""
    if len(secrets) < 2:
        raise ValueError("need at least two secrets to compare")
    profiles = [profile(program, secret) for secret in secrets]
    report = LeakReport(constant_time=True, profiles=profiles)
    reference = profiles[0]
    for index, candidate in enumerate(profiles[1:], start=1):
        if candidate.steps != reference.steps:
            report.constant_time = False
            report.instruction_count_leak = True
            report.first_divergence = (
                f"secret {index}: {candidate.steps} steps vs "
                f"{reference.steps} — timing leak"
            )
            return report
        if candidate.trace != reference.trace:
            report.constant_time = False
            report.address_trace_leak = True
            for position, (a, b) in enumerate(zip(reference.trace, candidate.trace)):
                if a != b:
                    report.first_divergence = (
                        f"secret {index}: trace diverges at event {position}: "
                        f"{a} vs {b} — address-trace leak"
                    )
                    break
            else:  # pragma: no cover - length mismatch with equal steps
                report.first_divergence = "trace length mismatch"
            return report
    return report
