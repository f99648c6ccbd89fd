"""Entry points of the static analyser.

``analyze_words`` runs every pass — CFG well-formedness, secret-taint,
privilege/ABI — over one assembled code region and returns a ``Report``.
``analyze_assembler`` is the convenience wrapper for programs still in
``Assembler`` form (the usual case: lint before loading).

The environment description lives in ``AnalysisConfig``; helpers here
build the common ones: ``sidechannel_config`` mirrors the page layout of
the dynamic checker's harness so the two tools see the same world, and
``EnclaveBuilder`` constructs one from its page map at build time.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.analysis.cfg import build_cfg
from repro.analysis.dataflow import (
    AnalysisConfig,
    MappedRange,
    TaintAnalysis,
)
from repro.analysis.findings import Report
from repro.arm.assembler import Assembler
from repro.arm.memory import PAGE_SIZE, WORDSIZE


def analyze_words(
    words: Sequence[int],
    config: Optional[AnalysisConfig] = None,
    program: str = "<program>",
    entry_va: Optional[int] = None,
) -> Report:
    """Statically analyse one assembled code region.

    ``entry_va`` defaults to the region base; it must lie inside the
    region (enclave thread entry points name their first instruction).
    """
    config = config or AnalysisConfig()
    base_va = config.base_va
    if entry_va is None:
        entry_va = base_va
    delta = entry_va - base_va
    if delta % WORDSIZE:
        raise ValueError(f"entry {entry_va:#x} is not word aligned")
    report = Report(program=program, base_va=base_va)
    cfg = build_cfg(words, base_va=base_va, entry_index=delta // WORDSIZE)
    report.extend(cfg.findings)
    report.extend(TaintAnalysis(cfg, config).run())
    return report


def analyze_assembler(
    asm: Assembler,
    config: Optional[AnalysisConfig] = None,
    program: str = "<program>",
) -> Report:
    """Analyse an ``Assembler`` program (labels resolved, then encoded)
    from its first instruction."""
    return analyze_words(asm.assemble(), config=config, program=program)


def sidechannel_config() -> AnalysisConfig:
    """The environment of ``repro.security.sidechannel.profile``:

    code at CODE_VA (r-x), one read-write secret page at SECRET_VA, and a
    read-write scratch page right after it.  Using this config makes the
    static analyser and the dynamic checker judge the *same* program in
    the *same* world, which is what the cross-validation tests assert.
    """
    from repro.security.sidechannel import CODE_VA, SECRET_VA

    mapped: List[MappedRange] = [
        MappedRange(CODE_VA, CODE_VA + PAGE_SIZE, True, False, True),
        MappedRange(SECRET_VA, SECRET_VA + PAGE_SIZE, True, True, False),
        MappedRange(
            SECRET_VA + PAGE_SIZE, SECRET_VA + 2 * PAGE_SIZE,
            True, True, False,
        ),
    ]
    return AnalysisConfig(
        base_va=CODE_VA,
        secret_ranges=((SECRET_VA, SECRET_VA + PAGE_SIZE),),
        mapped_ranges=tuple(mapped),
    )
