"""Bisimulation harness for Theorem 6.1.

The paper proves noninterference by bisimulation: two executions of the
SMC handler beginning in ≈L-related states, given the same adversary
inputs, end in ≈L-related states.  This harness *checks* the same
statement executably:

* **Confidentiality** (observer = the OS adversary, relation ≈adv):
  two worlds are set up identically, then the victim enclave's private
  state is perturbed in one world (so the initial states are ≈adv-related
  but not equal).  The same adversary trace is run in both; every
  OS-observable output (each SMC's return registers, modulo the
  declassification axioms) must be identical, and the final states must
  again be ≈adv-related.

* **Integrity** (observer = the trusted enclave, relation ≈enc):
  adversary-controlled state (insecure memory, other enclaves' contents)
  is perturbed instead; after the same trace, the trusted enclave's pages
  must be unaffected — the final states ≈enc-related.

Randomness is handled as in section 6.3: both worlds draw from RNGs with
identical seeds, so nondeterministic updates happen deterministically and
equally in both runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.arm.machine import MachineState
from repro.crypto.rng import HardwareRNG
from repro.monitor import integrity
from repro.monitor.errors import KomErr
from repro.monitor.komodo import KomodoMonitor
from repro.monitor.layout import SMC
from repro.security.declassify import DeclassifiedOutcome
from repro.security.equivalence import adv_set_equivalent, enc_set_equivalent
from repro.verification.extract import extract_pagedb


def _observer_set(enc) -> Tuple[int, ...]:
    """Normalise an observer spec: a single addrspace page number or a
    sequence of them (a colluding coalition)."""
    if isinstance(enc, int):
        return (enc,)
    return tuple(enc)


class NoninterferenceViolation(AssertionError):
    """A bisimulation check failed: information flowed where it must not."""


@dataclass(frozen=True)
class OSAction:
    """One adversary step: an SMC, optionally preceded by insecure-memory
    writes and an interrupt scheduling decision (the attacker's levers)."""

    callno: int
    args: Tuple[int, ...] = ()
    insecure_writes: Tuple[Tuple[int, int], ...] = ()  # (address, value)
    interrupt_after: Optional[int] = None


@dataclass
class ObservableOutcome:
    """Everything the OS observes from one action."""

    err: KomErr
    value: int
    declassified: DeclassifiedOutcome

    @classmethod
    def capture(cls, callno: int, err: KomErr, value: int) -> "ObservableOutcome":
        if callno in (SMC.ENTER, SMC.RESUME):
            declassified = DeclassifiedOutcome.from_smc_result(err, value)
        else:
            declassified = DeclassifiedOutcome(err=err, exit_value=value, fault_code=None)
        return cls(err=err, value=value, declassified=declassified)


@dataclass
class World:
    """One of the two bisimulated executions."""

    monitor: KomodoMonitor
    outcomes: List[ObservableOutcome] = field(default_factory=list)

    @property
    def state(self) -> MachineState:
        return self.monitor.state

    def apply(self, action: OSAction) -> ObservableOutcome:
        from repro.arm.modes import World as TZWorld

        for address, value in action.insecure_writes:
            self.state.memory.checked_write(address, value, TZWorld.NORMAL)
        if action.interrupt_after is not None:
            self.monitor.schedule_interrupt(action.interrupt_after)
        err, value = self.monitor.smc(action.callno, *action.args)
        outcome = ObservableOutcome.capture(action.callno, err, value)
        self.outcomes.append(outcome)
        return outcome


class BisimulationHarness:
    """Drives two worlds in lockstep and checks the ≈L relations."""

    def __init__(
        self,
        secure_pages: int = 32,
        step_budget: int = 100_000,
    ):
        """Two monitors whose RNGs are both seeded ``0xC0FFEE``."""
        self.worlds = (
            World(
                KomodoMonitor(
                    secure_pages=secure_pages,
                    rng=HardwareRNG(0xC0FFEE),
                    step_budget=step_budget,
                )
            ),
            World(
                KomodoMonitor(
                    secure_pages=secure_pages,
                    rng=HardwareRNG(0xC0FFEE),
                    step_budget=step_budget,
                )
            ),
        )

    # -- setup ---------------------------------------------------------------

    def setup_both(self, build: Callable[[KomodoMonitor], None]) -> None:
        """Run identical setup (e.g. enclave construction) in both worlds."""
        for world in self.worlds:
            build(world.monitor)

    def perturb(
        self,
        world_index: int,
        mutate: Callable[[KomodoMonitor], None],
    ) -> None:
        """Apply a secret/adversary perturbation to one world only.

        For confidentiality tests, this rewrites the victim's private
        state (data-page contents); for integrity tests it rewrites
        adversary-controlled state.  The caller is responsible for
        keeping the perturbed pair inside the intended ≈L relation, which
        ``require_related`` can confirm before running the trace.

        The perturbation is part of the world's *history*, not a memory
        fault, so the integrity engine's tags are resynchronised over
        the mutated contents — otherwise the monitor would (correctly,
        but unhelpfully for these experiments) quarantine the perturbed
        page as corrupted.
        """
        mutate(self.worlds[world_index].monitor)
        integrity.resync(self.worlds[world_index].state)

    # -- relation checks -----------------------------------------------------------

    def require_related(self, enc, adversary_view: bool) -> None:
        """Assert the two worlds are currently ≈L-related.

        ``enc`` is a single observer addrspace page number or a sequence
        of them — a coalition of colluding enclaves whose pooled view
        (union of their page sets) defines the relation.
        """
        observers = _observer_set(enc)
        failures: List[str] = []
        d1 = extract_pagedb(self.worlds[0].state)
        d2 = extract_pagedb(self.worlds[1].state)
        if adversary_view:
            adv_set_equivalent(
                self.worlds[0].state, d1, self.worlds[1].state, d2, observers, failures
            )
        else:
            enc_set_equivalent(d1, d2, observers, failures)
        if failures:
            raise NoninterferenceViolation(
                "worlds not ≈-related: " + "; ".join(failures)
            )

    # -- the bisimulation ---------------------------------------------------------

    def run_trace(
        self,
        trace: Sequence[OSAction],
        enc,
        adversary_view: bool,
    ) -> None:
        """Run the adversary trace in both worlds, checking as we go.

        After every step the worlds must stay related (an empty trace
        checks the starting pair once).  With
        ``adversary_view`` (confidentiality), every OS-observable outcome
        must match between worlds, and ≈adv must hold.  Without it
        (integrity), ≈enc must hold: the adversary perturbation may
        legitimately change OS-visible outcomes, but never the trusted
        enclave's state.

        ``enc`` may be a coalition (sequence of addrspace page numbers)
        — e.g. two pipeline stages pooling their views against a third
        victim enclave.
        """
        for step, action in enumerate(trace):
            out1 = self.worlds[0].apply(action)
            out2 = self.worlds[1].apply(action)
            if adversary_view:
                if out1.declassified != out2.declassified or out1.err != out2.err:
                    raise NoninterferenceViolation(
                        f"step {step} ({action.callno}): OS-visible outcomes "
                        f"diverged: {out1} vs {out2} — enclave secret leaked"
                    )
                if out1.value != out2.value:
                    raise NoninterferenceViolation(
                        f"step {step}: return values diverged: "
                        f"{out1.value:#x} vs {out2.value:#x}"
                    )
            self.require_related(enc, adversary_view)
        if not trace:
            self.require_related(enc, adversary_view)
