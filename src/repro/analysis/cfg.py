"""Control-flow graph construction over assembled programs.

A program is a contiguous region of 32-bit instruction words.  The CFG
decodes every word once (through the same ``decode`` the CPU uses, so
there is no second decoder to drift), splits the region into basic
blocks at branch targets and after control transfers, and records edges:

* unconditional ``b`` — one edge to the target;
* conditional branches — taken edge plus fall-through;
* ``bl`` — edge to the callee plus an edge to the return site (the
  static stand-in for the matching ``bxlr``);
* ``bxlr`` — a return: no static successors;
* ``svc EXIT`` — thread exit: no successors; other SVCs resume at the
  next instruction after the monitor handles them;
* ``udf``/``smc`` and undecodable words — an exception is taken and the
  thread never resumes at this point: no successors.

Well-formedness findings (reachable undecodable words, falling off the
end of the region, out-of-range branch targets, unreachable code) are
reported with KA0xx rule IDs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding, make_finding
from repro.arm.instructions import (
    Instruction,
    branch_target_index,
    decode,
    metadata,
)
from repro.monitor.layout import SVC


def _successors(
    instr: Optional[Instruction], index: int, count: int
) -> Tuple[List[int], bool]:
    """Static successor word indices of the instruction at ``index``.

    Returns ``(successors, falls_off_end)`` where out-of-range branch
    targets are *kept* in the successor list (the CFG builder turns them
    into findings) and ``falls_off_end`` is True when the fall-through
    successor would lie past the end of the region.
    """
    if instr is None:  # undecodable: undefined-instruction exception
        return [], False
    meta = metadata(instr)
    succs: List[int] = []
    falls_off = False
    if meta.is_branch:
        succs.append(branch_target_index(instr, index))
        if meta.is_conditional or meta.is_call:
            if index + 1 < count:
                succs.append(index + 1)
            else:
                falls_off = True
        return succs, falls_off
    if meta.is_return or meta.is_privileged or meta.is_trap:
        return [], False
    if meta.is_svc and instr.imm == SVC.EXIT:
        return [], False
    if index + 1 < count:
        return [index + 1], False
    return [], True


@dataclass
class BasicBlock:
    """A maximal straight-line run of instructions.

    ``start``/``end`` are word indices (end exclusive); ``successors``
    are the start indices of successor blocks.
    """

    start: int
    end: int
    successors: List[int] = field(default_factory=list)

    @property
    def last(self) -> int:
        return self.end - 1

    def __contains__(self, index: int) -> bool:
        return self.start <= index < self.end


@dataclass
class CFG:
    """The decoded program plus its block structure."""

    base_va: int
    words: List[int]
    instructions: List[Optional[Instruction]]
    blocks: Dict[int, BasicBlock]
    entry: int
    reachable: Set[int]  # block start indices reachable from the entry
    findings: List[Finding] = field(default_factory=list)

    def block_at(self, index: int) -> BasicBlock:
        """The block containing word ``index``."""
        for start in sorted(self.blocks, reverse=True):
            if start <= index:
                block = self.blocks[start]
                if index in block:
                    return block
                break
        raise KeyError(f"no block contains index {index}")

    def reachable_indices(self) -> Set[int]:
        """Word indices of every reachable instruction."""
        indices: Set[int] = set()
        for start in self.reachable:
            block = self.blocks[start]
            indices.update(range(block.start, block.end))
        return indices

    def va(self, index: int) -> int:
        return self.base_va + index * 4


def build_cfg(
    words: Sequence[int], base_va: int = 0, entry_index: int = 0
) -> CFG:
    """Decode a code region and construct its control-flow graph.

    ``entry_index`` is the word index execution starts at (the thread
    entry point relative to the region base).
    """
    words = list(words)
    count = len(words)
    if not 0 <= entry_index < count:
        raise ValueError(f"entry index {entry_index} outside the region")
    instructions = [decode(word) for word in words]

    # Pass 1: leaders.  The entry, every in-range branch target, and the
    # instruction after every control transfer start a block.
    leaders: Set[int] = {entry_index}
    for index, instr in enumerate(instructions):
        succs, _ = _successors(instr, index, count)
        terminator = (
            instr is None
            or succs != [index + 1]  # anything but plain fall-through
        )
        if terminator:
            for succ in succs:
                if 0 <= succ < count:
                    leaders.add(succ)
            if index + 1 < count:
                leaders.add(index + 1)

    # Pass 2: blocks and edges.
    ordered = sorted(leaders)
    blocks: Dict[int, BasicBlock] = {}
    findings: List[Finding] = []
    fall_off_indices: Set[int] = set()
    for position, start in enumerate(ordered):
        end = start
        while end < count:
            end += 1
            if end in leaders:
                break
            succs, _ = _successors(instructions[end - 1], end - 1, count)
            if succs != [end]:
                break
        block = BasicBlock(start=start, end=end)
        last = block.last
        succs, falls_off = _successors(instructions[last], last, count)
        if falls_off:
            fall_off_indices.add(last)
        for succ in succs:
            if 0 <= succ < count:
                block.successors.append(succ)
            else:
                instr = instructions[last]
                if instr is not None and metadata(instr).is_branch:
                    findings.append(
                        make_finding(
                            "KA003",
                            f"{instr.op} targets word {succ}, outside the "
                            f"{count}-word region",
                            last,
                            base_va,
                        )
                    )
                else:
                    fall_off_indices.add(last)
        blocks[start] = block

    # Pass 3: reachability from the entry block.
    reachable: Set[int] = set()
    worklist = [entry_index]
    while worklist:
        start = worklist.pop()
        if start in reachable:
            continue
        reachable.add(start)
        worklist.extend(
            succ for succ in blocks[start].successors if succ not in reachable
        )

    reachable_words = set()
    for start in reachable:
        reachable_words.update(range(blocks[start].start, blocks[start].end))

    # Findings that depend on reachability.
    for index in sorted(fall_off_indices):
        if index in reachable_words:
            findings.append(
                make_finding(
                    "KA002",
                    "execution continues past the last word of the region",
                    index,
                    base_va,
                )
            )
    for index, instr in enumerate(instructions):
        if instr is None and index in reachable_words:
            findings.append(
                make_finding(
                    "KA001",
                    f"word {words[index]:#010x} does not decode",
                    index,
                    base_va,
                )
            )
    # Unreachable code: report one finding per maximal unreachable run.
    index = 0
    while index < count:
        if index in reachable_words:
            index += 1
            continue
        run_start = index
        while index < count and index not in reachable_words:
            index += 1
        # Trailing zero padding (e.g. the rest of a code page) is not
        # interesting; only flag unreachable *instructions*.
        if all(words[i] == 0 for i in range(run_start, index)):
            continue
        findings.append(
            make_finding(
                "KA004",
                f"words {run_start}..{index - 1} can never execute",
                run_start,
                base_va,
            )
        )

    # Exit reachability: some reachable instruction must be svc EXIT (a
    # return is also accepted: library fragments end in bxlr).
    has_exit = any(
        instructions[i] is not None
        and (
            (instructions[i].op == "svc" and instructions[i].imm == SVC.EXIT)
            or instructions[i].op == "bxlr"
        )
        for i in reachable_words
    )
    if not has_exit:
        findings.append(
            make_finding(
                "KA005",
                "no svc EXIT (or return) is reachable from the entry",
                entry_index,
                base_va,
            )
        )

    return CFG(
        base_va=base_va,
        words=words,
        instructions=instructions,
        blocks=blocks,
        entry=entry_index,
        reachable=reachable,
        findings=findings,
    )
