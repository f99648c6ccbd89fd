"""Per-SMC symbolic drivers and the feasible-path census.

A driver binds one spec function to (a) the scenario-lattice dimensions
it explores, (b) symbolic argument specs (page numbers over the full
page range plus an out-of-range representative, curated mapping-word
domains, boolean flags), and (c) an ``apply`` function that runs the
*real* spec code.  ``apply`` is written once and used twice: under the
explorer with symbolic values (path discovery) and at witness time with
the solver's concrete model (the oracle for expected outcomes).

After every probe the driver re-checks the spec-level postconditions:
the full PageDB validity invariants plus the from-scratch refcount
recount audit (``spec.invariants.collect_refcount_violations``) — a
path that produces an invalid or miscounted PageDB fails exploration
immediately, before it can become a "passing" witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.monitor.errors import KomErr
from repro.monitor.layout import SMC, SVC, AddrspaceState, Mapping
from repro.spec.enter_spec import spec_validate_execution
from repro.spec.invariants import collect_refcount_violations, collect_violations
from repro.spec.pagedb import AbsPageDb
from repro.spec.smc_spec import (
    spec_alloc_spare,
    spec_finalise,
    spec_get_physpages,
    spec_init_addrspace,
    spec_init_l2ptable,
    spec_init_thread,
    spec_map_insecure,
    spec_map_secure,
    spec_remove,
    spec_stop,
)
from repro.spec.svc_spec import (
    spec_svc_init_l2ptable,
    spec_svc_map_data,
    spec_svc_unmap_data,
)

from repro.analysis.symbex.engine import PathContext, PathExplorer, PathResult
from repro.analysis.symbex.scenario import (
    AS_PAGE,
    DATA2_VA,
    FREE_SLOT_VA,
    NO_L2_VA,
    NPAGES,
    OOB_PAGE,
    PROG_VA,
    Scenario,
    THREAD_ENTRY,
    choose_scenario,
)
from repro.analysis.symbex.state import SymPageDb, reify_db

# ---------------------------------------------------------------------------
# Argument specs
# ---------------------------------------------------------------------------

PAGE_DOMAIN = tuple(range(NPAGES)) + (OOB_PAGE,)


def _word(va: int, r: bool = True, w: bool = False, x: bool = False) -> int:
    return Mapping(va=va, readable=r, writable=w, executable=x).encode()


#: A mapping word with bits outside the encoding: always invalid.
BAD_BITS_WORD = 0x8000_0000 | _word(PROG_VA, r=True)
#: Page-aligned VA but no permission bits: rejected (unreadable).
NO_PERM_WORD = PROG_VA

MAP_WORDS = (
    BAD_BITS_WORD,
    NO_PERM_WORD,
    _word(PROG_VA, r=True, w=True),  # scenario slot: ADDRINUSE when mapped
    _word(FREE_SLOT_VA, r=True, w=True),  # always-empty slot: SUCCESS
    _word(NO_L2_VA, r=True),  # l1index with no L2 table
)
MAP_INSECURE_WORDS = MAP_WORDS + (
    _word(FREE_SLOT_VA, r=True, x=True),  # executable insecure: rejected
)
UNMAP_WORDS = (
    BAD_BITS_WORD,
    NO_PERM_WORD,
    _word(DATA2_VA, r=True, w=True),  # the second data page's slot
    _word(FREE_SLOT_VA, r=True, w=True),  # empty slot
    _word(NO_L2_VA, r=True),
)

#: Arg spec kinds: ("page", name) | ("word", name, domain) |
#: ("flag", name) | ("const", value).
ArgSpec = Tuple


def _make_args(ctx: PathContext, specs: Sequence[ArgSpec]) -> List[object]:
    out: List[object] = []
    for spec in specs:
        kind = spec[0]
        if kind == "page":
            out.append(ctx.new_int(spec[1], PAGE_DOMAIN))
        elif kind == "word":
            out.append(ctx.new_int(spec[1], spec[2]))
        elif kind == "flag":
            out.append(ctx.new_int(spec[1], (0, 1)))
        elif kind == "const":
            out.append(spec[1])
        else:
            raise ValueError(f"unknown arg spec {spec!r}")
    return out


def _concrete_args(specs: Sequence[ArgSpec], model_values: Dict[str, int]) -> List[int]:
    out: List[int] = []
    for spec in specs:
        kind = spec[0]
        if kind == "const":
            out.append(int(spec[1]))
        else:
            out.append(int(model_values[spec[1]]))
    return out


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Driver:
    """One probed monitor call: scenario dimensions + symbolic args."""

    name: str
    kind: str  # "smc" | "enter" | "svc"
    callno: int
    args: Tuple[ArgSpec, ...]
    free: Tuple[str, ...] = ()
    pins: Tuple[Tuple[str, int], ...] = ()
    #: apply(db, args, scenario) -> (KomErr | None, AbsPageDb)
    apply: Callable = None
    #: want_entered for kind == "enter"
    want_entered: bool = False

    def explore(self, max_paths: int = 200_000) -> List[PathResult]:
        explorer = PathExplorer(max_paths=max_paths)
        return explorer.explore(self._probe)

    def _probe(self, ctx: PathContext):
        scenario = choose_scenario(ctx, self.free, dict(self.pins))
        args = _make_args(ctx, self.args)
        err, db = self.apply(SymPageDb.wrap(scenario.db), args, scenario)
        db = reify_db(db)
        _check_postconditions(self.name, db)
        return ProbeOutcome(scenario=scenario, err=err, db=db)

    def concrete_outcome(
        self, scenario: Scenario, args: Sequence[int], env=None
    ) -> Tuple[Optional[KomErr], AbsPageDb]:
        """The pure-spec oracle for one concrete argument vector.

        ``env`` carries replay-time machine facts the spec result
        depends on but exploration abstracts (the insecure base).
        """
        err, db = self.apply(scenario.db, list(args), scenario, env)
        _check_postconditions(self.name, db)
        return err, db


@dataclass
class ProbeOutcome:
    scenario: Scenario
    err: Optional[KomErr]  # None = Enter/Resume validation passed (executes)
    db: AbsPageDb


class PostconditionError(AssertionError):
    """A spec path produced an invalid or miscounted PageDB."""


def _check_postconditions(name: str, db: AbsPageDb) -> None:
    failures = collect_violations(db) + collect_refcount_violations(db)
    if failures:
        raise PostconditionError(f"{name}: {failures}")


# -- apply functions ---------------------------------------------------------


def _apply_get_physpages(db, args, scenario, env=None):
    err, _value, out = spec_get_physpages(db)
    return err, out


def _apply_init_addrspace(db, args, scenario, env=None):
    return spec_init_addrspace(db, args[0], args[1])


def _apply_init_thread(db, args, scenario, env=None):
    return spec_init_thread(db, args[0], args[1], args[2])


def _apply_init_l2ptable(db, args, scenario, env=None):
    return spec_init_l2ptable(db, args[0], args[1], args[2])


def _apply_map_secure(db, args, scenario, env=None):
    as_page, data_page, word, valid = args
    contents = scenario.insecure_page(0)
    return spec_map_secure(db, as_page, data_page, word, contents, valid)


def _apply_map_insecure(db, args, scenario, env=None):
    as_page, word, valid = args
    # The concrete insecure target only exists at replay time (it
    # depends on the machine's memory map); during exploration the spec
    # never branches on it, so 0 is a sound placeholder.
    target = 0
    if env is not None:
        base = env["insecure_base"]
        target = base if valid else base + 4
    return spec_map_insecure(db, as_page, word, target, valid)


def _apply_alloc_spare(db, args, scenario, env=None):
    return spec_alloc_spare(db, args[0], args[1])


def _apply_remove(db, args, scenario, env=None):
    return spec_remove(db, args[0])


def _apply_finalise(db, args, scenario, env=None):
    return spec_finalise(db, args[0])


def _apply_stop(db, args, scenario, env=None):
    return spec_stop(db, args[0])


def _apply_enter(want_entered):
    def apply(db, args, scenario, env=None):
        # Validation never mutates the PageDB; the execution itself (the
        # ``None`` outcome) is machine-dependent and checked by replay.
        err = spec_validate_execution(db, args[0], want_entered=want_entered)
        return err, db

    return apply


def _apply_svc(spec_fn):
    def apply(db, args, scenario, env=None):
        return spec_fn(db, AS_PAGE, *args)

    return apply


_SVC_PINS = (
    ("aspace_state", int(AddrspaceState.FINAL)),
    ("has_l2", 1),
    ("slot_used", 1),
    ("has_thread", 1),
    ("thread_entered", 0),
)

DRIVERS: Tuple[Driver, ...] = (
    Driver(
        name="get_physpages",
        kind="smc",
        callno=int(SMC.GET_PHYSPAGES),
        args=(),
        apply=_apply_get_physpages,
    ),
    Driver(
        name="init_addrspace",
        kind="smc",
        callno=int(SMC.INIT_ADDRSPACE),
        args=(("page", "as_page"), ("page", "l1pt_page")),
        apply=_apply_init_addrspace,
    ),
    Driver(
        name="init_thread",
        kind="smc",
        callno=int(SMC.INIT_THREAD),
        args=(("page", "as_page"), ("page", "thread_page"), ("const", THREAD_ENTRY)),
        free=("aspace_state",),
        apply=_apply_init_thread,
    ),
    Driver(
        name="init_l2ptable",
        kind="smc",
        callno=int(SMC.INIT_L2PTABLE),
        args=(("page", "as_page"), ("page", "l2pt_page"), ("word", "l1index", (0, 1, 256))),
        free=("aspace_state",),
        apply=_apply_init_l2ptable,
    ),
    Driver(
        name="map_secure",
        kind="smc",
        callno=int(SMC.MAP_SECURE),
        args=(
            ("page", "as_page"),
            ("page", "data_page"),
            ("word", "mapping_word", MAP_WORDS),
            ("flag", "insecure_valid"),
        ),
        free=("aspace_state", "slot_used"),
        apply=_apply_map_secure,
    ),
    Driver(
        name="map_insecure",
        kind="smc",
        callno=int(SMC.MAP_INSECURE),
        args=(
            ("page", "as_page"),
            ("word", "mapping_word", MAP_INSECURE_WORDS),
            ("flag", "insecure_valid"),
        ),
        free=("aspace_state", "slot_used"),
        apply=_apply_map_insecure,
    ),
    Driver(
        name="alloc_spare",
        kind="smc",
        callno=int(SMC.ALLOC_SPARE),
        args=(("page", "as_page"), ("page", "spare_page")),
        free=("aspace_state",),
        apply=_apply_alloc_spare,
    ),
    Driver(
        name="remove",
        kind="smc",
        callno=int(SMC.REMOVE),
        args=(("page", "pageno"),),
        free=("aspace_state", "has_l2", "slot_used", "has_thread", "has_spare"),
        apply=_apply_remove,
    ),
    Driver(
        name="finalise",
        kind="smc",
        callno=int(SMC.FINALISE),
        args=(("page", "as_page"),),
        free=("aspace_state",),
        apply=_apply_finalise,
    ),
    Driver(
        name="stop",
        kind="smc",
        callno=int(SMC.STOP),
        args=(("page", "as_page"),),
        free=("aspace_state",),
        apply=_apply_stop,
    ),
    Driver(
        name="enter",
        kind="enter",
        callno=int(SMC.ENTER),
        args=(("page", "thread_page"), ("const", 0), ("const", 0), ("const", 0)),
        free=("aspace_state", "has_thread", "slot_used", "thread_entered"),
        pins=(("has_spare", 0),),
        apply=_apply_enter(want_entered=False),
        want_entered=False,
    ),
    Driver(
        name="resume",
        kind="enter",
        callno=int(SMC.RESUME),
        args=(("page", "thread_page"),),
        free=("aspace_state", "has_thread", "slot_used", "thread_entered"),
        pins=(("has_spare", 0),),
        apply=_apply_enter(want_entered=True),
        want_entered=True,
    ),
    Driver(
        name="svc_init_l2ptable",
        kind="svc",
        callno=int(SVC.INIT_L2PTABLE),
        args=(("page", "spare_page"), ("word", "l1index", (0, 1, 256))),
        free=("has_spare", "has_other", "other_spare"),
        pins=_SVC_PINS,
        apply=_apply_svc(spec_svc_init_l2ptable),
    ),
    Driver(
        name="svc_map_data",
        kind="svc",
        callno=int(SVC.MAP_DATA),
        args=(("page", "spare_page"), ("word", "mapping_word", MAP_WORDS)),
        free=("has_spare", "has_other", "other_spare"),
        pins=_SVC_PINS,
        apply=_apply_svc(spec_svc_map_data),
    ),
    Driver(
        name="svc_unmap_data",
        kind="svc",
        callno=int(SVC.UNMAP_DATA),
        args=(("page", "data_page"), ("word", "mapping_word", UNMAP_WORDS)),
        free=("has_data2", "has_spare"),
        pins=_SVC_PINS,
        apply=_apply_svc(spec_svc_unmap_data),
    ),
)

_BY_NAME = {driver.name: driver for driver in DRIVERS}


def driver_names() -> Tuple[str, ...]:
    return tuple(driver.name for driver in DRIVERS)


def get_driver(name: str) -> Driver:
    if name not in _BY_NAME:
        raise KeyError(f"no such SMC driver {name!r}; see driver_names()")
    return _BY_NAME[name]


# ---------------------------------------------------------------------------
# Census
# ---------------------------------------------------------------------------


@dataclass
class ExploreResult:
    name: str
    paths: List[PathResult]

    @property
    def leaves(self) -> int:
        return len(self.paths)

    def signatures(self) -> Dict[Tuple[str, ...], PathResult]:
        """First path per distinct signature (the path classes)."""
        out: Dict[Tuple[str, ...], PathResult] = {}
        for path in self.paths:
            out.setdefault(path.signature, path)
        return out

    def census(self) -> Dict[str, object]:
        """The pinned regression shape: path classes per outcome."""
        by_error: Dict[str, int] = {}
        for signature, path in sorted(self.signatures().items()):
            outcome = path.value
            label = "EXECUTE" if outcome.err is None else KomErr(outcome.err).name
            by_error[label] = by_error.get(label, 0) + 1
        return {
            "paths": len(self.signatures()),
            "leaves": self.leaves,
            "errors": dict(sorted(by_error.items())),
        }


def explore_smc(name: str, max_paths: int = 200_000) -> ExploreResult:
    driver = get_driver(name)
    return ExploreResult(name=name, paths=driver.explore(max_paths=max_paths))
