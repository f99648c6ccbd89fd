"""Bisimulation checks of Theorem 6.1: confidentiality and integrity.

Each test sets up two worlds, perturbs one side of the relation (enclave
secrets for confidentiality, adversary-controlled state for integrity),
runs the same OS trace in both, and checks the final states are still
≈-related.  Negative tests plant a deliberately leaky/influenced enclave
and assert the harness *detects* the flow — guarding against a vacuous
harness.
"""

import pytest

from repro.arm.assembler import Assembler
from repro.arm.memory import WORDS_PER_PAGE
from repro.monitor.layout import SMC, SVC, Mapping
from repro.osmodel.kernel import OSKernel
from repro.sdk.builder import CODE_VA, DATA_VA, SHARED_VA, EnclaveBuilder
from repro.security.noninterference import (
    BisimulationHarness,
    NoninterferenceViolation,
    OSAction,
)

SECRET_W1 = 0x1111_1111
SECRET_W2 = 0x2222_2222


def quiet_victim_asm() -> Assembler:
    """Computes on its secret but releases only a constant."""
    asm = Assembler()
    asm.mov32("r4", DATA_VA)
    asm.ldr("r5", "r4", 0)  # load the secret
    asm.movw("r6", 0)
    asm.label("loop")
    asm.add("r6", "r6", "r5")  # secret-dependent data flow
    asm.addi("r7", "r7", 1)
    asm.cmpi("r7", 40)
    asm.bne("loop")
    asm.movw("r0", 7)  # public constant out
    asm.svc(SVC.EXIT)
    return asm


def leaky_victim_asm() -> Assembler:
    """Exits with its secret: a deliberate confidentiality violation."""
    asm = Assembler()
    asm.mov32("r4", DATA_VA)
    asm.ldr("r0", "r4", 0)
    asm.svc(SVC.EXIT)
    return asm


def shared_leaky_victim_asm() -> Assembler:
    """Writes its secret to insecure shared memory."""
    asm = Assembler()
    asm.mov32("r4", DATA_VA)
    asm.ldr("r5", "r4", 0)
    asm.mov32("r6", SHARED_VA)
    asm.str_("r5", "r6", 0)
    asm.movw("r0", 0)
    asm.svc(SVC.EXIT)
    return asm


class _Setup:
    """Builds the victim (+ optional attacker enclave) identically in
    both worlds and remembers the page numbers (identical across worlds
    because allocation is deterministic)."""

    def __init__(self, victim_asm: Assembler, shared: bool = False):
        self.victim_asm = victim_asm
        self.shared = shared
        self.victim = None
        self.attacker = None

    def __call__(self, monitor):
        kernel = OSKernel(monitor)
        builder = EnclaveBuilder(kernel).add_code(self.victim_asm)
        builder.add_data(contents=[SECRET_W1], va=DATA_VA, writable=False)
        if self.shared:
            builder.add_shared_buffer(va=SHARED_VA)
        builder.add_thread(CODE_VA)
        # Some victims fault on purpose: skip the static lint, which
        # correctly predicts the aborts.
        self.victim = builder.build(lint="off")
        # A colluding attacker enclave (trivial: exits immediately).
        attacker_asm = Assembler()
        attacker_asm.svc(SVC.EXIT)
        self.attacker = (
            EnclaveBuilder(kernel)
            .add_code(attacker_asm)
            .add_thread(CODE_VA)
            .build()
        )


def perturb_victim_secret(setup: _Setup, new_secret: int):
    def mutate(monitor):
        page = setup.victim.data_pages[DATA_VA]
        monitor.state.memory.write_word(
            monitor.pagedb.page_base(page), new_secret
        )

    return mutate


def adversary_trace(setup: _Setup):
    """A representative hostile trace: run the victim with interrupts at
    attacker-chosen points, run the colluding enclave, poke the PageDB
    via failing SMCs, use dynamic allocation."""
    victim_thread = setup.victim.thread
    attacker_thread = setup.attacker.thread
    return [
        OSAction(SMC.GET_PHYSPAGES),
        OSAction(SMC.ENTER, (victim_thread, 1, 2, 3), interrupt_after=13),
        OSAction(SMC.ENTER, (victim_thread, 0, 0, 0)),  # ALREADY_ENTERED
        OSAction(SMC.RESUME, (victim_thread,), interrupt_after=9),
        OSAction(SMC.REMOVE, (setup.victim.data_pages[DATA_VA],)),  # NOT_STOPPED
        OSAction(SMC.RESUME, (victim_thread,)),
        OSAction(SMC.ENTER, (attacker_thread, 0, 0, 0)),
        OSAction(SMC.ALLOC_SPARE, (setup.victim.as_page, 20)),
        OSAction(SMC.REMOVE, (20,)),
        OSAction(SMC.ENTER, (victim_thread, 0, 0, 0)),
    ]


class TestConfidentiality:
    def test_quiet_victim_does_not_leak(self):
        harness = BisimulationHarness(secure_pages=32, step_budget=100_000)
        setup = _Setup(quiet_victim_asm())
        harness.setup_both(setup)
        harness.perturb(1, perturb_victim_secret(setup, SECRET_W2))
        harness.require_related(enc=setup.attacker.as_page, adversary_view=True)
        harness.run_trace(
            adversary_trace(setup),
            enc=setup.attacker.as_page,
            adversary_view=True,
        )

    def test_leaky_exit_value_detected(self):
        """The harness must flag an enclave exiting with its secret."""
        harness = BisimulationHarness(secure_pages=32)
        setup = _Setup(leaky_victim_asm())
        harness.setup_both(setup)
        harness.perturb(1, perturb_victim_secret(setup, SECRET_W2))
        with pytest.raises(NoninterferenceViolation):
            harness.run_trace(
                [OSAction(SMC.ENTER, (setup.victim.thread, 0, 0, 0))],
                enc=setup.attacker.as_page,
                adversary_view=True,
            )

    def test_leak_through_insecure_memory_detected(self):
        harness = BisimulationHarness(secure_pages=32)
        setup = _Setup(shared_leaky_victim_asm(), shared=True)
        harness.setup_both(setup)
        harness.perturb(1, perturb_victim_secret(setup, SECRET_W2))
        with pytest.raises(NoninterferenceViolation):
            harness.run_trace(
                [OSAction(SMC.ENTER, (setup.victim.thread, 0, 0, 0))],
                enc=setup.attacker.as_page,
                adversary_view=True,
            )

    def test_interrupted_register_state_does_not_leak(self):
        """Mid-computation interrupts expose no secret-dependent state:
        the victim's registers carry the secret when interrupted, and the
        OS must see nothing of them."""
        harness = BisimulationHarness(secure_pages=32)
        setup = _Setup(quiet_victim_asm())
        harness.setup_both(setup)
        harness.perturb(1, perturb_victim_secret(setup, SECRET_W2))
        trace = [
            OSAction(SMC.ENTER, (setup.victim.thread, 0, 0, 0), interrupt_after=n)
            for n in (5,)
        ] + [
            OSAction(SMC.RESUME, (setup.victim.thread,), interrupt_after=3),
            OSAction(SMC.RESUME, (setup.victim.thread,)),
        ]
        harness.run_trace(trace, enc=setup.attacker.as_page, adversary_view=True)

    def test_faulting_victim_reveals_only_exception_type(self):
        asm = Assembler()
        asm.mov32("r4", DATA_VA)
        asm.ldr("r5", "r4", 0)
        asm.mov32("r6", 0x0FF0_0000)  # unmapped -> abort
        asm.ldr("r7", "r6", 0)
        harness = BisimulationHarness(secure_pages=32)
        setup = _Setup(asm)
        harness.setup_both(setup)
        harness.perturb(1, perturb_victim_secret(setup, SECRET_W2))
        harness.run_trace(
            [OSAction(SMC.ENTER, (setup.victim.thread, 0, 0, 0))],
            enc=setup.attacker.as_page,
            adversary_view=True,
        )


class TestIntegrity:
    def test_insecure_memory_does_not_influence_victim(self):
        """Perturb unread insecure memory; the victim's final state must
        be identical (≈enc with the victim as observer)."""
        harness = BisimulationHarness(secure_pages=32, step_budget=100_000)
        setup = _Setup(quiet_victim_asm())
        harness.setup_both(setup)

        def scribble(monitor):
            base = monitor.state.memmap.insecure.base
            for i in range(64):
                monitor.state.memory.write_word(base + 0x8000 + i * 4, 0xA77A)

        harness.perturb(1, scribble)
        harness.require_related(enc=setup.victim.as_page, adversary_view=False)
        harness.run_trace(
            adversary_trace(setup),
            enc=setup.victim.as_page,
            adversary_view=False,
        )

    def test_other_enclave_does_not_influence_victim(self):
        """Perturb the attacker enclave's code page contents (its own
        secret); the victim must be unaffected."""
        harness = BisimulationHarness(secure_pages=32, step_budget=100_000)
        setup = _Setup(quiet_victim_asm())
        harness.setup_both(setup)

        def corrupt_attacker(monitor):
            page = setup.attacker.data_pages[CODE_VA]
            base = monitor.pagedb.page_base(page)
            # Change a non-executed word of the attacker's code page.
            monitor.state.memory.write_word(base + 0xFF0, 0x12345678)

        harness.perturb(1, corrupt_attacker)
        harness.run_trace(
            [
                OSAction(SMC.ENTER, (setup.victim.thread, 5, 6, 7)),
                OSAction(SMC.ENTER, (setup.attacker.thread, 0, 0, 0)),
                OSAction(SMC.ENTER, (setup.victim.thread, 5, 6, 7)),
            ],
            enc=setup.victim.as_page,
            adversary_view=False,
        )

    def test_influence_through_shared_memory_detected(self):
        """An enclave that *reads* attacker-controlled shared memory into
        its private state is influenced — the harness must see it.  (This
        is the paper's caveat: enclaves must sanitise insecure inputs.)"""
        asm = Assembler()
        asm.mov32("r4", SHARED_VA)
        asm.ldr("r5", "r4", 0)  # read attacker-controlled word
        asm.mov32("r6", DATA_VA)
        asm.str_("r5", "r6", 0)  # store into private page
        asm.movw("r0", 0)
        asm.svc(SVC.EXIT)
        harness = BisimulationHarness(secure_pages=32)
        setup = _Setup(asm, shared=True)
        # Make the victim's data page writable for this test.
        orig_call = _Setup.__call__

        def build(monitor):
            kernel = OSKernel(monitor)
            builder = EnclaveBuilder(kernel).add_code(asm)
            builder.add_data(contents=[SECRET_W1], va=DATA_VA, writable=True)
            builder.add_shared_buffer(va=SHARED_VA)
            builder.add_thread(CODE_VA)
            setup.victim = builder.build()
            attacker_asm = Assembler()
            attacker_asm.svc(SVC.EXIT)
            setup.attacker = (
                EnclaveBuilder(kernel).add_code(attacker_asm).add_thread(CODE_VA).build()
            )

        harness.setup_both(build)

        def scribble_shared(monitor):
            base = setup.victim.buffers[0].base
            monitor.state.memory.write_word(base, 0xE11)

        harness.perturb(1, scribble_shared)
        with pytest.raises(NoninterferenceViolation):
            harness.run_trace(
                [OSAction(SMC.ENTER, (setup.victim.thread, 0, 0, 0))],
                enc=setup.victim.as_page,
                adversary_view=False,
            )


class TestRelationPreconditions:
    def test_unrelated_worlds_rejected_upfront(self):
        harness = BisimulationHarness(secure_pages=32)
        setup = _Setup(quiet_victim_asm())
        harness.setup_both(setup)

        def diverge(monitor):
            monitor.smc(SMC.INIT_ADDRSPACE, 25, 26)

        harness.perturb(1, diverge)
        with pytest.raises(NoninterferenceViolation):
            harness.require_related(enc=setup.attacker.as_page, adversary_view=True)

    def test_empty_trace_on_unrelated_worlds_raises(self):
        harness = BisimulationHarness(secure_pages=32)
        setup = _Setup(quiet_victim_asm())
        harness.setup_both(setup)
        harness.perturb(1, lambda monitor: monitor.smc(SMC.INIT_ADDRSPACE, 25, 26))
        with pytest.raises(NoninterferenceViolation):
            harness.run_trace([], enc=setup.attacker.as_page, adversary_view=True)


class TestRelationCheckCount:
    """``run_trace`` checks the relation once per step; an empty trace
    checks the starting pair once."""

    @pytest.mark.parametrize("length", [0, 1, 3])
    def test_one_check_per_step(self, length, monkeypatch):
        harness = BisimulationHarness(secure_pages=32)
        setup = _Setup(quiet_victim_asm())
        harness.setup_both(setup)
        calls = []
        check = harness.require_related
        monkeypatch.setattr(
            harness,
            "require_related",
            lambda enc, adversary_view: calls.append(enc) or check(enc, adversary_view),
        )
        trace = [OSAction(SMC.GET_PHYSPAGES)] * length
        harness.run_trace(trace, enc=setup.attacker.as_page, adversary_view=True)
        assert len(calls) == max(length, 1)
