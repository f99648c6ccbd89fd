"""The initial-state lattice and its constructive SMC setup traces.

A scenario is a point in a small lattice of abstract PageDB states:
which page roles exist (L2 table, mapped program page, thread, spare,
second data page, a second addrspace with its own spare) and which
state the addrspace is in (INIT / FINAL / STOPPED, with an optionally
*entered* thread).  Scenario choice-variables are forked by the path
explorer exactly like spec branches, so a driver that never observes a
dimension never pays for it.

Every scenario is **constructive**: it is defined by the SMC trace that
builds it from a freshly booted monitor.  The abstract initial PageDB
is the fold of the pure spec functions over that trace, which by the
refinement theorem (checked at replay by ``CheckedMonitor``) equals the
PageDB extracted from a machine that executed the same trace.  That is
what makes every explored path concretizable into a *replayable*
witness: unreachable states can never enter the census.

Page-role layout (fixed page numbers, ``NPAGES`` = 12)::

    0  addrspace          5  spare page      9  other's spare
    1  L1 table           6  second data    10  free
    2  L2 table           7  other aspace   11  free
    3  program page       8  other L1
    4  thread
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arm.assembler import Assembler
from repro.arm.memory import WORDS_PER_PAGE
from repro.monitor.errors import KomErr
from repro.monitor.layout import SMC, SVC, AddrspaceState, Mapping
from repro.spec.pagedb import AbsPageDb, AbsThread
from repro.spec.smc_spec import (
    spec_alloc_spare,
    spec_finalise,
    spec_init_addrspace,
    spec_init_l2ptable,
    spec_init_thread,
    spec_map_insecure,
    spec_map_secure,
    spec_remove,
    spec_stop,
)

from repro.analysis.symbex.engine import Branch, PathContext

# Page roles.
AS_PAGE = 0
L1_PAGE = 1
L2_PAGE = 2
PROG_PAGE = 3
THREAD_PAGE = 4
SPARE_PAGE = 5
DATA2_PAGE = 6
OTHER_AS_PAGE = 7
OTHER_L1_PAGE = 8
OTHER_SPARE_PAGE = 9
FREE_A_PAGE = 10
FREE_B_PAGE = 11

NPAGES = 12
#: Out-of-range representative included in symbolic pageno domains.
OOB_PAGE = NPAGES

#: VAs of the scenario's fixed mappings and the free probe slots.
PROG_VA = 0x1000  # l1index 0, l2index 1
DATA2_VA = 0x3000  # l1index 0, l2index 3
FREE_SLOT_VA = 0x2000  # l1index 0, l2index 2: valid, never pre-mapped
NO_L2_VA = 0x0040_0000  # l1index 1: no L2 table there in any scenario

THREAD_ENTRY = PROG_VA
EXIT_SENTINEL = 0x600D

#: Scenario choice variables, their option lists, and lattice defaults.
CHOICES: Tuple[Tuple[str, Tuple[int, ...], int], ...] = (
    ("aspace_state", tuple(int(s) for s in AddrspaceState), int(AddrspaceState.INIT)),
    ("has_l2", (0, 1), 1),
    ("slot_used", (0, 1), 1),
    ("has_thread", (0, 1), 1),
    ("thread_entered", (0, 1), 0),
    ("has_spare", (0, 1), 1),
    ("has_data2", (0, 1), 0),
    ("has_other", (0, 1), 0),
    ("other_spare", (0, 1), 1),
)

_DEFAULTS = {name: default for name, _, default in CHOICES}


def prog_mapping_word() -> int:
    return Mapping(va=PROG_VA, readable=True, writable=False, executable=True).encode()


def data2_mapping_word() -> int:
    return Mapping(va=DATA2_VA, readable=True, writable=True, executable=False).encode()


def default_program() -> List[int]:
    """The scenario enclave: return a sentinel and exit (3 instructions)."""
    asm = Assembler()
    asm.movw("r0", EXIT_SENTINEL)
    asm.svc(SVC.EXIT)
    return list(asm.assemble())


def svc_probe_program(number: int, args: Sequence[int]) -> List[int]:
    """An enclave that issues one SVC and exits with its error code.

    The dynamic-memory SVCs return no values, so after the SVC R0 holds
    the error code; EXIT then hands exactly that code back to the OS as
    the Enter result value.
    """
    asm = Assembler()
    padded = list(args) + [0] * (2 - len(args))
    asm.mov32("r0", padded[0] & 0xFFFFFFFF)
    asm.mov32("r1", padded[1] & 0xFFFFFFFF)
    asm.svc(number)
    asm.svc(SVC.EXIT)
    return list(asm.assemble())


def _page_words(words: Sequence[int]) -> Tuple[int, ...]:
    if len(words) > WORDS_PER_PAGE:
        raise ValueError("scenario page contents exceed one page")
    return tuple(words) + (0,) * (WORDS_PER_PAGE - len(words))


def data2_words() -> Tuple[int, ...]:
    return _page_words([0xD2000000 + i for i in range(8)])


@dataclass(frozen=True)
class Scenario:
    """One concrete point of the lattice plus its constructive trace."""

    choices: Tuple[Tuple[str, int], ...]
    setup: Tuple[Tuple, ...]  # ops, see build_setup
    db: AbsPageDb
    #: insecure page-offset -> full-page word tuple written during setup
    insecure: Tuple[Tuple[int, Tuple[int, ...]], ...]

    def choice(self, name: str) -> int:
        return dict(self.choices)[name]

    def insecure_page(self, offset: int) -> Tuple[int, ...]:
        for page_offset, words in self.insecure:
            if page_offset == offset:
                return words
        return (0,) * WORDS_PER_PAGE


class ScenarioError(AssertionError):
    """A constructive setup trace diverged from the spec fold."""


def choose_scenario(
    ctx: PathContext,
    free: Sequence[str],
    pins: Optional[Dict[str, int]] = None,
) -> Scenario:
    """Fork scenario choice variables, then build the chosen scenario
    around the default program.

    ``free`` names the lattice dimensions this driver explores; all
    other dimensions are pinned to their defaults (or to ``pins``).
    Dependent dimensions are only forked when meaningful: ``slot_used``
    requires ``has_l2``, ``thread_entered`` requires an executable
    program page, a thread, and a FINAL-or-STOPPED addrspace, and
    ``other_spare`` requires ``has_other``.
    """
    pins = dict(pins or {})
    unknown = [name for name in list(free) + list(pins) if name not in _DEFAULTS]
    if unknown:
        raise ValueError(f"unknown scenario dimensions {unknown}")
    values: Dict[str, int] = {}

    def pick(name: str, options: Tuple[int, ...]) -> int:
        if name in pins:
            value = pins[name]
        elif name not in free or len(options) == 1:
            value = _DEFAULTS[name] if _DEFAULTS[name] in options else options[0]
        else:
            value = ctx.choose(
                name, tuple(Branch(tag=str(v), value=v) for v in options)
            )
        values[name] = int(value)
        return values[name]

    for name, options, _ in CHOICES:
        if name == "slot_used" and not values["has_l2"]:
            options = (0,)
        if name == "has_data2" and not values["has_l2"]:
            options = (0,)
        if name == "thread_entered":
            executable = values["has_thread"] and values["slot_used"]
            final_or_stopped = values["aspace_state"] in (
                int(AddrspaceState.FINAL),
                int(AddrspaceState.STOPPED),
            )
            if not (executable and final_or_stopped):
                options = (0,)
        if name == "other_spare" and not values["has_other"]:
            options = (0,)
        pick(name, options)

    return build_scenario(values)


# ---------------------------------------------------------------------------
# Constructive build: choices -> (setup ops, spec fold)
# ---------------------------------------------------------------------------

_SCENARIO_CACHE: Dict[Tuple, Scenario] = {}


def build_scenario(
    choices: Dict[str, int], program: Optional[Sequence[int]] = None
) -> Scenario:
    prog = tuple(program if program is not None else default_program())
    key = (tuple(sorted(choices.items())), prog)
    cached = _SCENARIO_CACHE.get(key)
    if cached is None:
        cached = _build_scenario(dict(choices), prog)
        _SCENARIO_CACHE[key] = cached
    return cached


def _build_scenario(c: Dict[str, int], prog: Tuple[int, ...]) -> Scenario:
    setup: List[Tuple] = []
    insecure: List[Tuple[int, Tuple[int, ...]]] = []
    state = AddrspaceState(c["aspace_state"])

    if c["slot_used"]:
        insecure.append((0, _page_words(prog)))
        setup.append(("write_insecure", 0, list(_page_words(prog))))
    if c["has_data2"]:
        insecure.append((1, data2_words()))
        setup.append(("write_insecure", 1, list(data2_words())))

    def smc(callno: int, *args: int, expect: str = "success") -> None:
        setup.append(("smc", int(callno), [int(a) for a in args], expect))

    smc(SMC.INIT_ADDRSPACE, AS_PAGE, L1_PAGE)
    if c["has_l2"]:
        smc(SMC.INIT_L2PTABLE, AS_PAGE, L2_PAGE, 0)
    if c["slot_used"]:
        smc(SMC.MAP_SECURE, AS_PAGE, PROG_PAGE, prog_mapping_word(), 0)
    if c["has_data2"]:
        smc(SMC.MAP_SECURE, AS_PAGE, DATA2_PAGE, data2_mapping_word(), 1)
    if c["has_thread"]:
        smc(SMC.INIT_THREAD, AS_PAGE, THREAD_PAGE, THREAD_ENTRY)
    if c["has_spare"]:
        smc(SMC.ALLOC_SPARE, AS_PAGE, SPARE_PAGE)
    if c["has_other"]:
        smc(SMC.INIT_ADDRSPACE, OTHER_AS_PAGE, OTHER_L1_PAGE)
        if c["other_spare"]:
            smc(SMC.ALLOC_SPARE, OTHER_AS_PAGE, OTHER_SPARE_PAGE)
    needs_final = state is AddrspaceState.FINAL or c["thread_entered"]
    if needs_final:
        smc(SMC.FINALISE, AS_PAGE)
    if c["thread_entered"]:
        setup.append(("interrupt", 1))
        smc(SMC.ENTER, THREAD_PAGE, 0, 0, 0, expect="interrupted")
    if state is AddrspaceState.STOPPED:
        smc(SMC.STOP, AS_PAGE)

    db = fold_setup(AbsPageDb.initial(NPAGES), setup)
    return Scenario(
        choices=tuple(sorted(choices_items(c))),
        setup=tuple(_freeze_op(op) for op in setup),
        db=db,
        insecure=tuple(insecure),
    )


def _freeze_op(op: Tuple) -> Tuple:
    if op[0] == "smc":
        return (op[0], op[1], tuple(op[2]), op[3])
    if op[0] == "write_insecure":
        return (op[0], op[1], tuple(op[2]))
    return tuple(op)


def choices_items(c: Dict[str, int]) -> List[Tuple[str, int]]:
    return [(name, int(c[name])) for name, _, _ in CHOICES]


# ---------------------------------------------------------------------------
# The spec fold: the pure oracle for a setup trace
# ---------------------------------------------------------------------------

#: Placeholder saved context for a spec-side suspended thread; the real
#: machine context is execution-dependent, so witness comparisons erase
#: contexts on both sides (see ``witness.normalise_db``).
PLACEHOLDER_CONTEXT = (0,) * 17


def fold_setup(db: AbsPageDb, setup: Sequence[Tuple]) -> AbsPageDb:
    """Fold the pure spec over a setup trace; raises on any error."""
    insecure: Dict[int, Tuple[int, ...]] = {}
    for op in setup:
        kind = op[0]
        if kind == "write_insecure":
            insecure[op[1]] = tuple(op[2])
        elif kind == "interrupt":
            continue
        elif kind == "smc":
            _, callno, args, expect = op
            err, db = apply_spec_smc(db, callno, list(args), insecure)
            wanted = KomErr.INTERRUPTED if expect == "interrupted" else KomErr.SUCCESS
            if err is not wanted:
                raise ScenarioError(
                    f"setup op {op!r} returned {err!r}, wanted {wanted!r}"
                )
        else:
            raise ValueError(f"unknown setup op {op!r}")
    return db


def apply_spec_smc(
    db: AbsPageDb,
    callno: int,
    args: Sequence[int],
    insecure: Dict[int, Tuple[int, ...]],
) -> Tuple[KomErr, AbsPageDb]:
    """Run one SMC through the pure spec (no machine involved).

    Insecure-source arguments are resolved against the trace's written
    pages: MAP_SECURE argument 3 is a page *offset* into insecure RAM,
    and unwritten pages read as zeros.  ENTER appears only in setup
    traces (interrupted immediately); its spec effect is suspending the
    thread with a placeholder context.
    """
    from dataclasses import replace

    padded = list(args) + [0] * (4 - len(args))
    if callno == SMC.INIT_ADDRSPACE:
        return spec_init_addrspace(db, padded[0], padded[1])
    if callno == SMC.INIT_THREAD:
        return spec_init_thread(db, padded[0], padded[1], padded[2])
    if callno == SMC.INIT_L2PTABLE:
        return spec_init_l2ptable(db, padded[0], padded[1], padded[2])
    if callno == SMC.MAP_SECURE:
        contents = insecure.get(padded[3], (0,) * WORDS_PER_PAGE)
        return spec_map_secure(
            db, padded[0], padded[1], padded[2], contents, insecure_valid=True
        )
    if callno == SMC.MAP_INSECURE:
        return spec_map_insecure(db, padded[0], padded[1], padded[2], True)
    if callno == SMC.ALLOC_SPARE:
        return spec_alloc_spare(db, padded[0], padded[1])
    if callno == SMC.REMOVE:
        return spec_remove(db, padded[0])
    if callno == SMC.FINALISE:
        return spec_finalise(db, padded[0])
    if callno == SMC.STOP:
        return spec_stop(db, padded[0])
    if callno == SMC.ENTER:
        thread = db[padded[0]]
        if not isinstance(thread, AbsThread):
            raise ScenarioError("setup ENTER on a non-thread page")
        suspended = replace(thread, entered=True, context=PLACEHOLDER_CONTEXT)
        return (KomErr.INTERRUPTED, db.updated(padded[0], suspended))
    raise ValueError(f"setup trace cannot contain SMC {callno}")
