"""Register file with ARM register banking.

The 32-bit ARM architecture banks SP, LR and SPSR by mode: user-mode code
accessing SP reads the concrete register SP_usr while monitor-mode code
reads SP_mon, and so on (paper section 5.1).  The register file stores one
copy of R0-R12, a banked SP/LR per bank, and a banked SPSR per exception
mode, plus the CPSR fields the model needs (mode, interrupt masks, and
the NZCV condition flags used by comparison results).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.arm.bits import WORD_MASK, get_bit, set_bit, to_word
from repro.arm.modes import BANKED_MODES, SPSR_MODES, Mode, bank_for

# CPSR bit positions (architectural).
CPSR_N_BIT = 31
CPSR_Z_BIT = 30
CPSR_C_BIT = 29
CPSR_V_BIT = 28
CPSR_I_BIT = 7
CPSR_F_BIT = 6
CPSR_MODE_MASK = 0b11111


@dataclass
class PSR:
    """A program status register: condition flags, interrupt masks, mode."""

    n: bool = False
    z: bool = False
    c: bool = False
    v: bool = False
    irq_masked: bool = True
    fiq_masked: bool = True
    mode: Mode = Mode.SVC

    def to_word(self) -> int:
        """Encode into the architectural CPSR/SPSR word layout."""
        word = self.mode.encoding
        word = set_bit(word, CPSR_N_BIT, self.n)
        word = set_bit(word, CPSR_Z_BIT, self.z)
        word = set_bit(word, CPSR_C_BIT, self.c)
        word = set_bit(word, CPSR_V_BIT, self.v)
        word = set_bit(word, CPSR_I_BIT, self.irq_masked)
        word = set_bit(word, CPSR_F_BIT, self.fiq_masked)
        return word

    @classmethod
    def from_word(cls, word: int) -> "PSR":
        """Decode from the architectural word layout."""
        from repro.arm.modes import mode_from_encoding

        return cls(
            n=bool(get_bit(word, CPSR_N_BIT)),
            z=bool(get_bit(word, CPSR_Z_BIT)),
            c=bool(get_bit(word, CPSR_C_BIT)),
            v=bool(get_bit(word, CPSR_V_BIT)),
            irq_masked=bool(get_bit(word, CPSR_I_BIT)),
            fiq_masked=bool(get_bit(word, CPSR_F_BIT)),
            mode=mode_from_encoding(word & CPSR_MODE_MASK),
        )

    def copy(self) -> "PSR":
        return PSR(self.n, self.z, self.c, self.v, self.irq_masked, self.fiq_masked, self.mode)


def _zero_bank() -> Dict[Mode, int]:
    return {bank_for(mode): 0 for mode in BANKED_MODES}


def _zero_spsrs() -> Dict[Mode, PSR]:
    return {mode: PSR() for mode in SPSR_MODES}


@dataclass
class RegisterFile:
    """Core registers R0-R12 plus banked SP/LR/SPSR and the CPSR.

    The program counter is not modelled as a register: following the
    paper, control flow is structured and the PC only becomes visible
    through LR at exception entry.
    """

    gprs: Dict[int, int] = field(default_factory=lambda: {i: 0 for i in range(13)})
    sp_bank: Dict[Mode, int] = field(default_factory=_zero_bank)
    lr_bank: Dict[Mode, int] = field(default_factory=_zero_bank)
    spsr_bank: Dict[Mode, PSR] = field(default_factory=_zero_spsrs)
    cpsr: PSR = field(default_factory=PSR)

    # -- general purpose registers -------------------------------------

    def read_gpr(self, index: int) -> int:
        """Read R0-R12."""
        return self.gprs[index]

    def write_gpr(self, index: int, value: int) -> None:
        """Write R0-R12, truncating to 32 bits."""
        if index not in self.gprs:
            raise KeyError(f"no such general-purpose register r{index}")
        self.gprs[index] = to_word(value)

    # -- banked registers ----------------------------------------------

    @property
    def mode(self) -> Mode:
        return self.cpsr.mode

    def read_sp(self, mode: Mode = None) -> int:
        """Read the SP banked for ``mode`` (default: the current mode)."""
        bank = bank_for(mode or self.mode)
        return self.sp_bank[bank]

    def write_sp(self, value: int, mode: Mode = None) -> None:
        bank = bank_for(mode or self.mode)
        self.sp_bank[bank] = to_word(value)

    def read_lr(self, mode: Mode = None) -> int:
        """Read the LR banked for ``mode`` (default: the current mode)."""
        bank = bank_for(mode or self.mode)
        return self.lr_bank[bank]

    def write_lr(self, value: int, mode: Mode = None) -> None:
        bank = bank_for(mode or self.mode)
        self.lr_bank[bank] = to_word(value)

    def read_spsr(self, mode: Mode = None) -> PSR:
        """Read the SPSR banked for ``mode``; user mode has none."""
        mode = mode or self.mode
        if mode not in self.spsr_bank:
            raise KeyError(f"mode {mode} has no SPSR")
        return self.spsr_bank[mode]

    def write_spsr(self, psr: PSR, mode: Mode = None) -> None:
        mode = mode or self.mode
        if mode not in self.spsr_bank:
            raise KeyError(f"mode {mode} has no SPSR")
        self.spsr_bank[mode] = psr.copy()

    # -- snapshots -------------------------------------------------------

    def copy(self) -> "RegisterFile":
        """Deep copy of the register file."""
        dup = RegisterFile()
        dup.gprs = dict(self.gprs)
        dup.sp_bank = dict(self.sp_bank)
        dup.lr_bank = dict(self.lr_bank)
        dup.spsr_bank = {mode: psr.copy() for mode, psr in self.spsr_bank.items()}
        dup.cpsr = self.cpsr.copy()
        return dup

    def scrub_gprs(self, keep: tuple = ()) -> None:
        """Zero every general-purpose register not listed in ``keep``.

        The monitor uses this on return paths to prevent information
        leaks through registers (paper section 5.2).
        """
        for i in range(13):
            if f"r{i}" not in keep:
                self.gprs[i] = 0
