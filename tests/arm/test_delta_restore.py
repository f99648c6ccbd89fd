"""Delta (O(dirty-pages)) restore parity with the full-buffer path.

``MachineState.restore`` may copy back only the pages dirtied since the
snapshot was taken, keyed by the snapshot token the memory is anchored
to.  That is a pure wall-clock optimisation: every observable —
memory bytes, registers, digests, op counters — must land bit-identical
to the full-buffer copy, the fallback must engage whenever the token
anchor is stale, and writes issued by the turbo engine's inline-store
fast path must mark the dirty set like every other store.
"""

import repro.arm.memory as memory_mod
from repro.apps.isa_workloads import CODE_VA, DATA_VA, stage
from repro.arm.assembler import Assembler
from repro.arm.cpu import CPU, ExitReason
from repro.arm.machine import MachineState
from repro.faults.audit import secure_state_digest
from repro.faults.bitflip import BitflipCampaign
from repro.faults.campaign import LifecycleCampaign


def observables(state):
    return (
        bytes(state.memory._buf),
        state.memory.generation,
        state.memory.read_ops,
        state.memory.write_ops,
        dict(state.regs.gprs),
        state.regs.cpsr.to_word(),
        state.cycles,
        state.world,
        state.ttbr0,
        state.pending_interrupt,
        secure_state_digest(state),
    )


def restore(state, snap, delta):
    """``state.restore(snap)`` down the dirty-page path (``delta``) or
    the full-copy oracle, selected by the module switch."""
    saved = memory_mod.DELTA_RESTORE
    memory_mod.DELTA_RESTORE = delta
    try:
        state.restore(snap)
    finally:
        memory_mod.DELTA_RESTORE = saved


def scribble(state, pages=(1, 2, 5)):
    for page in pages:
        state.memory.write_word(state.memmap.page_base(page), 0xD117 + page)
    state.regs.write_gpr(4, 0xABCD)
    state.cycles += 321


class TestDeltaRestoreParity:
    def test_delta_restore_matches_full_restore(self):
        state = MachineState.boot(secure_pages=8)
        snap = state.snapshot()
        before = observables(state)

        scribble(state)
        restore(state, snap, True)
        assert observables(state) == before

        scribble(state)
        restore(state, snap, False)
        assert observables(state) == before

    def test_delta_restore_is_repeatable(self):
        state = MachineState.boot(secure_pages=8)
        snap = state.snapshot()
        before = observables(state)
        for round_no in range(4):
            scribble(state, pages=(round_no, round_no + 1))
            restore(state, snap, True)
            assert observables(state) == before

    def test_stale_token_falls_back_to_full_copy(self):
        """Restoring a snapshot the memory is no longer anchored to
        (a newer snapshot re-anchored it) must take the full-buffer
        path and still be exact."""
        state = MachineState.boot(secure_pages=8)
        old_snap = state.snapshot()
        old_before = observables(state)

        scribble(state, pages=(1,))
        state.snapshot()  # re-anchors the dirty set to a new token
        scribble(state, pages=(2,))

        assert old_snap.memory.token != state.memory._snap_token
        restore(state, old_snap, True)
        assert observables(state) == old_before
        # ...and the memory is re-anchored to the restored snapshot, so
        # a subsequent delta restore of the same snapshot is exact too.
        scribble(state, pages=(3,))
        restore(state, old_snap, True)
        assert observables(state) == old_before


class TestTurboInlineStoreDirtyMarking:
    def make_store_loop(self):
        """r0 words stored through the turbo inline-store fast path."""
        from repro.monitor.layout import SVC

        asm = Assembler()
        asm.mov("r5", "r0")
        asm.mov32("r4", DATA_VA)
        asm.mov32("r6", 0xFEED0000)
        asm.label("store_loop")
        asm.str_("r6", "r4", 0)
        asm.addi("r4", "r4", 4)
        asm.addi("r6", "r6", 1)
        asm.subi("r5", "r5", 1)
        asm.cmpi("r5", 0)
        asm.bne("store_loop")
        asm.svc(SVC.EXIT)
        return asm

    def test_turbo_stores_mark_dirty_pages(self):
        state = stage(self.make_store_loop(), 64)
        snap = state.snapshot()
        assert not state.memory._dirty

        result = CPU(state, engine="turbo").run(CODE_VA, max_steps=100_000)
        assert result.reason is ExitReason.SVC
        # The compiled superblocks issue the stores through their inline
        # fast path; those writes must land in the dirty set, or the
        # delta restore below would silently skip them.
        assert state.memory._dirty

        restore(state, snap, True)
        assert bytes(state.memory._buf) == snap.memory.store

    def test_turbo_run_then_delta_restore_matches_full(self):
        program = self.make_store_loop()

        def run_and_restore(delta):
            state = stage(program, 64)
            snap = state.snapshot()
            result = CPU(state, engine="turbo").run(CODE_VA, max_steps=100_000)
            assert result.reason is ExitReason.SVC
            restore(state, snap, delta)
            return observables(state)

        assert run_and_restore(True) == run_and_restore(False)


class TestCampaignDeltaParity:
    """Whole campaigns with delta restore globally off must emit reports
    byte-identical to the default delta-on runs."""

    def test_lifecycle_campaign_identical_with_delta_off(self, monkeypatch):
        kwargs = dict(seed=0x5EED, stride=13, secure_pages=16, engine="turbo")
        on = LifecycleCampaign(**kwargs).run()
        monkeypatch.setattr(memory_mod, "DELTA_RESTORE", False)
        off = LifecycleCampaign(**kwargs).run()
        assert on.ok, on.violations[:5]
        assert on == off

    def test_bitflip_campaign_identical_with_delta_off(self, monkeypatch):
        kwargs = dict(stride=211, targets=["pagedb", "itag"], secure_pages=16)
        on = BitflipCampaign(**kwargs).run()
        monkeypatch.setattr(memory_mod, "DELTA_RESTORE", False)
        off = BitflipCampaign(**kwargs).run()
        assert on.ok, on.violations[:5]
        assert on.total_trials > 0
        assert on == off
