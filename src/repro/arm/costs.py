"""Cycle-cost model standing in for the Raspberry Pi 2 hardware.

The paper's evaluation (Table 3) reports cycle counts measured on a
900 MHz Cortex-A7.  We replace the silicon with a cost model: every
machine-visible operation the monitor or an enclave performs charges a
constant from this table.  The constants are calibrated once against the
paper's *null SMC* anchor (123 cycles) and the SHA-256 throughput implied
by the Attest row; everything else is derived from operation counts, so
the *shape* of Table 3 (orderings, ratios such as Enter < Resume <
Enter+Exit, hash-dominated Attest/Verify, zero-fill-dominated MapData)
emerges from the implementation rather than being hard-coded.

All constants are plain attributes so the report's ablations can build
variant models (e.g. free TLB flushes) to quantify the optimisations the
paper says it omitted (section 8.1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass
class CostModel:
    """Per-operation cycle costs."""

    # Basic pipeline costs.
    instruction: int = 1  # base cost of a simple ALU instruction
    mem_access: int = 3  # one word load/store (L1-hit flavour)
    branch: int = 2  # taken structured-control-flow edge

    # Exception and mode-switch machinery.
    exception_entry: int = 18  # vector fetch + mode switch + PSR banking
    exception_return: int = 12  # MOVS PC, LR style return
    world_switch: int = 14  # extra cost of crossing the SMC boundary
    ttbr_write: int = 9  # TTBR0 load incl. required barriers
    tlb_flush: int = 260  # full unified TLB invalidate + DSB/ISB barriers
    banked_reg_access: int = 6  # MRS/MSR of a banked register + store/load
    user_entry: int = 40  # SPSR setup + MOVS PC, LR pipeline drain
    enclave_exit: int = 190  # banked-register restore + monitor unwind
    context_restore_word: int = 5  # one word of saved thread context

    # Bulk memory operations (per page).
    page_zero: int = 5650  # zero-fill 1024 words (store-multiple loop)
    page_copy: int = 5400  # copy 1024 words

    # Cryptography.
    sha256_block: int = 2450  # one 64-byte compression (incl. schedule)
    sha256_init: int = 40  # load IV constants
    sha256_finish: int = 90  # padding bookkeeping + digest store
    mac_compare_word: int = 96  # constant-time compare + arg revalidation

    # Hardware random number generator (per 32-bit word).
    rng_word: int = 150

    def variant(self, **overrides: int) -> "CostModel":
        """A copy of this model with some constants replaced.

        Used by the ablations in ``repro.tools.report``, e.g.
        ``variant(tlb_flush=0)`` to model the skip-flush-on-reentry
        optimisation from section 8.1.
        """
        return replace(self, **overrides)


#: Latencies the paper quotes for SGX enclave crossings (section 8.1,
#: citing Orenbach et al.), used by ``repro.tools.report.sgx_row``.
SGX_EENTER_CYCLES = 3800
SGX_EEXIT_CYCLES = 3300
SGX_FULL_CROSSING_CYCLES = 7100
