"""Witness replay on the real monitor, across all execution engines.

Every witness is executed end-to-end on a booted ``KomodoMonitor`` —
once per engine (reference / fast / turbo) — wrapped in the existing
``CheckedMonitor`` refinement machinery, so each setup SMC and the
probe itself are already held to spec lockstep, frame conditions,
invariants, measurement refinement, and Enter/Resume containment.  On
top of that the harness asserts the witness's own expectations:

1. the setup trace reproduces the scenario's spec-fold PageDB;
2. the probe returns exactly the predicted ``(err, value)``;
3. the extracted post-probe PageDB equals the spec oracle's output
   (modulo measurement/context normalization), and
4. all engines produce identical outcomes (the tri-engine
   differential), including identical normalized post-states.

Per engine the monitor is booted once and rewound per witness with
``CampaignSnapshot`` (the PR 5 fast-rewind machinery); post-setup
checkpoints are additionally cached per scenario so the ~15 setup SMCs
of a lattice point are paid once per engine, not once per witness.
SVC witnesses bake their arguments into the enclave program, making
every setup unique — those pay full price and are the replay budget's
dominant term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.arm.memory import PAGE_SIZE
from repro.faults.snapshot import CampaignSnapshot
from repro.monitor.errors import KomErr
from repro.monitor.komodo import KomodoMonitor
from repro.monitor.layout import SMC
from repro.spec.pagedb import AbsPageDb
from repro.util.watchdog import TrialTimeout, time_limit
from repro.verification.extract import extract_pagedb
from repro.verification.refinement import CheckedMonitor, RefinementError

from repro.analysis.symbex.scenario import NPAGES, THREAD_PAGE, Scenario
from repro.analysis.symbex.witness import Witness, normalise_db

DEFAULT_ENGINES: Tuple[str, ...] = ("reference", "fast", "turbo")

#: Scenarios touch two insecure pages; a small window keeps per-engine
#: snapshots cheap (the default 1 MiB insecure RAM would dominate them).
INSECURE_SIZE = 4 * PAGE_SIZE


class ReplayError(AssertionError):
    """A witness did not replay as its spec path predicts."""


@dataclass(frozen=True)
class ReplayOutcome:
    """What one engine produced for one witness."""

    engine: str
    err: str
    value: int
    db: AbsPageDb  # normalized post-probe extraction


@dataclass(frozen=True)
class ReplayFailure:
    witness: str
    engine: str
    message: str

    def __str__(self) -> str:
        return f"{self.witness} [{self.engine}]: {self.message}"


class ReplayHarness:
    """Boot-once, rewind-per-witness replay across engines."""

    def __init__(
        self,
        engines: Sequence[str] = DEFAULT_ENGINES,
    ):
        self.engines = tuple(engines)
        self._sessions: Dict[str, Tuple[KomodoMonitor, CampaignSnapshot]] = {}
        #: (engine, setup ops) -> post-setup checkpoint + lockstep spec db
        self._prepared_cache: Dict[Tuple, Tuple[CampaignSnapshot, AbsPageDb]] = {}

    # -- per-engine machinery -------------------------------------------------

    def _session(self, engine: str) -> Tuple[KomodoMonitor, CampaignSnapshot]:
        if engine not in self._sessions:
            monitor = KomodoMonitor(
                secure_pages=NPAGES,
                insecure_size=INSECURE_SIZE,
                cpu_engine=engine,
            )
            self._sessions[engine] = (monitor, CampaignSnapshot(monitor))
        return self._sessions[engine]

    def _run_setup(self, checked: CheckedMonitor, scenario: Scenario) -> None:
        memmap = checked.monitor.state.memmap
        for op in scenario.setup:
            kind = op[0]
            if kind == "write_insecure":
                checked.monitor.state.memory.write_words(
                    memmap.insecure.base + op[1] * PAGE_SIZE, list(op[2])
                )
            elif kind == "interrupt":
                checked.schedule_interrupt(op[1])
            elif kind == "smc":
                _, callno, args, expect = op
                args = list(args)
                if callno == SMC.MAP_SECURE:
                    # Setup traces address insecure RAM by page offset.
                    args[3] = memmap.insecure.base + args[3] * PAGE_SIZE
                err, _value = checked.smc(callno, *args)
                wanted = (
                    KomErr.INTERRUPTED if expect == "interrupted" else KomErr.SUCCESS
                )
                if err is not wanted:
                    raise ReplayError(
                        f"setup {op!r} returned {err!r}, scenario needs {wanted!r}"
                    )
            else:
                raise ReplayError(f"unknown setup op {op!r}")

    def _prepare(
        self, engine: str, scenario: Scenario, cacheable: bool
    ) -> CheckedMonitor:
        """A CheckedMonitor sitting exactly at the scenario's state."""
        monitor, boot = self._session(engine)
        key = (engine, scenario.setup)
        cached = self._prepared_cache.get(key)
        if cached is not None:
            snapshot, spec_db = cached
            snapshot.restore()
            checked = CheckedMonitor(monitor=monitor)
            checked.spec_db = spec_db
            return checked
        boot.restore()
        checked = CheckedMonitor(monitor=monitor)
        self._run_setup(checked, scenario)
        # The constructive-lattice guarantee: the machine that ran the
        # setup trace extracts to the spec fold of the same trace.
        if normalise_db(checked.spec_db) != normalise_db(scenario.db):
            raise ReplayError(
                f"setup lockstep db diverged from the scenario fold "
                f"for choices {scenario.choices!r}"
            )
        if cacheable:
            self._prepared_cache[key] = (CampaignSnapshot(monitor), checked.spec_db)
        return checked

    # -- witness execution ----------------------------------------------------

    @staticmethod
    def _machine_call(witness: Witness, memmap) -> Tuple[int, Tuple[int, ...]]:
        """The concrete ``monitor.smc`` invocation for a witness probe."""
        base = memmap.insecure.base
        args = list(witness.args)
        if witness.kind == "svc":
            # The SVC arguments are baked into the enclave program; the
            # probe is the Enter that runs it.
            return int(SMC.ENTER), (THREAD_PAGE, 0, 0, 0)
        if witness.smc == "map_secure":
            as_page, data_page, word, valid = args
            source = base if valid else base + 4  # page-aligned vs not
            return witness.callno, (as_page, data_page, word, source)
        if witness.smc == "map_insecure":
            as_page, word, valid = args
            target = base if valid else base + 4
            return witness.callno, (as_page, word, target)
        return witness.callno, tuple(args)

    def replay_one(self, witness: Witness, engine: str) -> ReplayOutcome:
        """Run one witness on one engine; raises ReplayError on mismatch."""
        scenario = witness.scenario()
        checked = self._prepare(engine, scenario, cacheable=witness.kind != "svc")
        monitor = checked.monitor
        memmap = monitor.state.memmap

        env = {"insecure_base": memmap.insecure.base}
        _scenario, spec_err, spec_db = witness.expected(env=env)
        spec_err_name = "EXECUTE" if spec_err is None else KomErr(spec_err).name
        if spec_err_name != witness.spec_err:
            raise ReplayError(
                f"corpus drift: stored spec error {witness.spec_err}, "
                f"spec now returns {spec_err_name}"
            )

        callno, call_args = self._machine_call(witness, memmap)
        try:
            err, value = checked.smc(callno, *call_args)
        except RefinementError as exc:
            raise ReplayError(f"refinement check failed: {exc}") from exc

        if KomErr(err).name != witness.machine_err:
            raise ReplayError(
                f"probe returned {KomErr(err).name}, witness expects "
                f"{witness.machine_err}"
            )
        if witness.expected_value is not None and value != witness.expected_value:
            raise ReplayError(
                f"probe value {value:#x}, witness expects "
                f"{witness.expected_value:#x}"
            )
        extracted = normalise_db(extract_pagedb(monitor.state))
        if witness.check_db:
            expected = normalise_db(witness.expected_final_db(scenario, spec_db))
            if extracted != expected:
                diff = _first_diff(expected, extracted)
                raise ReplayError(f"post-state diverged from spec: {diff}")
        return ReplayOutcome(
            engine=engine, err=KomErr(err).name, value=value, db=extracted
        )

    def check(
        self,
        witnesses: Iterable[Witness],
        trial_timeout: Optional[float] = None,
    ) -> List[ReplayFailure]:
        """Replay every witness on every engine; collect all failures.

        ``trial_timeout`` bounds one witness replay in wall-clock
        seconds (``repro.util.watchdog``): a wedged replay fails that
        witness with a clear error instead of hanging the run.  The
        stranded session monitor is discarded and rebooted so later
        witnesses replay from a clean machine.
        """
        failures: List[ReplayFailure] = []
        for witness in witnesses:
            outcomes: Dict[str, ReplayOutcome] = {}
            for engine in self.engines:
                try:
                    with time_limit(trial_timeout, f"witness {witness.label}"):
                        outcomes[engine] = self.replay_one(witness, engine)
                except TrialTimeout as exc:
                    failures.append(ReplayFailure(witness.label, engine, str(exc)))
                    # A timeout can interrupt replay anywhere — mid-SMC,
                    # mid-snapshot-capture — so nothing about this
                    # engine's session or its cached checkpoints can be
                    # trusted any more.  Drop them; the next witness
                    # reboots and re-prepares from scratch.
                    self._sessions.pop(engine, None)
                    self._prepared_cache = {
                        key: entry
                        for key, entry in self._prepared_cache.items()
                        if key[0] != engine
                    }
                except AssertionError as exc:
                    failures.append(ReplayFailure(witness.label, engine, str(exc)))
            if len(outcomes) == len(self.engines) > 1:
                reference = outcomes[self.engines[0]]
                for engine in self.engines[1:]:
                    other = outcomes[engine]
                    if (other.err, other.value, other.db) != (
                        reference.err,
                        reference.value,
                        reference.db,
                    ):
                        failures.append(
                            ReplayFailure(
                                witness.label,
                                engine,
                                f"diverges from {reference.engine}: "
                                f"({other.err}, {other.value:#x}) vs "
                                f"({reference.err}, {reference.value:#x})",
                            )
                        )
        return failures


def _first_diff(expected: AbsPageDb, actual: AbsPageDb) -> str:
    for pageno in range(expected.npages):
        if expected[pageno] != actual[pageno]:
            return (
                f"page {pageno}: spec {expected[pageno]!r} "
                f"!= machine {actual[pageno]!r}"
            )
    return "page counts differ"
