"""Refinement checking: scripted lifecycles plus random hostile traces.

The CheckedMonitor runs every SMC through both the pure specification
and the implementation and cross-checks them; these tests drive it hard
enough that any divergence between ``repro.monitor`` and ``repro.spec``
surfaces.  The hypothesis trace test is the workhorse: random call
sequences with adversarial arguments must keep impl and spec in lockstep
and preserve every invariant.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arm.assembler import Assembler
from repro.monitor.errors import KomErr
from repro.monitor.layout import Mapping, SMC, SVC
from repro.verification.refinement import CheckedMonitor, RefinementError

NPAGES = 12


@pytest.fixture
def checked():
    return CheckedMonitor(secure_pages=NPAGES)


def rw_mapping(va=0x1000, x=False):
    return Mapping(va=va, readable=True, writable=True, executable=x).encode()


class TestScriptedLifecycles:
    def test_full_lifecycle_checks(self, checked):
        asm = Assembler()
        asm.add("r0", "r0", "r1")
        asm.svc(SVC.EXIT)
        insecure = checked.state.memmap.insecure.base
        for i, word in enumerate(asm.assemble()):
            checked.state.memory.write_word(insecure + i * 4, word)
        code_mapping = Mapping(
            va=0x1000, readable=True, writable=False, executable=True
        ).encode()
        assert checked.smc(SMC.INIT_ADDRSPACE, 0, 1)[0] is KomErr.SUCCESS
        assert checked.smc(SMC.INIT_L2PTABLE, 0, 2, 0)[0] is KomErr.SUCCESS
        assert checked.smc(SMC.MAP_SECURE, 0, 3, code_mapping, insecure)[0] is KomErr.SUCCESS
        assert checked.smc(SMC.INIT_THREAD, 0, 4, 0x1000)[0] is KomErr.SUCCESS
        assert checked.smc(SMC.FINALISE, 0)[0] is KomErr.SUCCESS
        assert checked.smc(SMC.ENTER, 4, 40, 2, 0) == (KomErr.SUCCESS, 42)
        assert checked.smc(SMC.ALLOC_SPARE, 0, 5)[0] is KomErr.SUCCESS
        assert checked.smc(SMC.STOP, 0)[0] is KomErr.SUCCESS
        for page in (2, 3, 4, 5, 1, 0):
            assert checked.smc(SMC.REMOVE, page)[0] is KomErr.SUCCESS
        assert checked.checks_performed == 14

    def test_interrupted_execution_checks(self, checked):
        asm = Assembler()
        asm.label("spin")
        asm.addi("r0", "r0", 1)
        asm.b("spin")
        insecure = checked.state.memmap.insecure.base
        for i, word in enumerate(asm.assemble()):
            checked.state.memory.write_word(insecure + i * 4, word)
        code_mapping = Mapping(
            va=0x1000, readable=True, writable=False, executable=True
        ).encode()
        checked.smc(SMC.INIT_ADDRSPACE, 0, 1)
        checked.smc(SMC.INIT_L2PTABLE, 0, 2, 0)
        checked.smc(SMC.MAP_SECURE, 0, 3, code_mapping, insecure)
        checked.smc(SMC.INIT_THREAD, 0, 4, 0x1000)
        checked.smc(SMC.FINALISE, 0)
        checked.schedule_interrupt(25)
        assert checked.smc(SMC.ENTER, 4, 0, 0, 0)[0] is KomErr.INTERRUPTED
        checked.schedule_interrupt(25)
        assert checked.smc(SMC.RESUME, 4)[0] is KomErr.INTERRUPTED

    def test_error_paths_check_too(self, checked):
        assert checked.smc(SMC.INIT_ADDRSPACE, 5, 5)[0] is KomErr.INVALID_PAGENO
        assert checked.smc(SMC.REMOVE, 0)[0] is KomErr.INVALID_PAGENO
        assert checked.smc(SMC.FINALISE, 3)[0] is KomErr.INVALID_ADDRSPACE
        assert checked.smc(SMC.ENTER, 99, 0, 0, 0)[0] is KomErr.INVALID_PAGENO
        assert checked.smc(0x1234)[0] is KomErr.INVALID_CALL


class TestDetectsDivergence:
    def test_detects_injected_pagedb_corruption(self, checked):
        """Corrupting concrete state out-of-band is caught on the next SMC."""
        checked.smc(SMC.INIT_ADDRSPACE, 0, 1)
        # A 'bug': flip the addrspace's refcount in machine memory.
        checked.monitor.pagedb.adjust_refcount(0, +1)
        with pytest.raises(RefinementError):
            checked.smc(SMC.GET_PHYSPAGES)

    def test_detects_measurement_corruption(self, checked):
        checked.smc(SMC.INIT_ADDRSPACE, 0, 1)
        checked.monitor.pagedb.set_hash_length(0, 64)
        with pytest.raises(RefinementError):
            checked.smc(SMC.GET_PHYSPAGES)

    def test_detects_insecure_write_by_non_executing_smc(self, checked):
        """The smchandler frame condition: a non-executing SMC leaves
        insecure memory unchanged, and the error names the word."""
        inner = checked.monitor.smc
        target = checked.state.memmap.insecure.base + 0x2468

        def leaky_smc(callno, *args):
            result = inner(callno, *args)
            checked.state.memory.write_word(target, 0xBAD)
            return result

        checked.monitor.smc = leaky_smc
        with pytest.raises(RefinementError, match=rf"\['{target:#x}'\]"):
            checked.smc(SMC.INIT_ADDRSPACE, 0, 1)


# ---------------------------------------------------------------------------
# Random hostile traces
# ---------------------------------------------------------------------------

pagenos = st.integers(min_value=0, max_value=NPAGES + 1)
vas = st.sampled_from([0x0, 0x1000, 0x3000, 0x0040_0000, 0x3FFF_F000])
l1indices = st.integers(min_value=0, max_value=3)


def smc_calls():
    insecure_flag = st.booleans()
    return st.one_of(
        st.tuples(st.just(SMC.INIT_ADDRSPACE), pagenos, pagenos, st.just(0), st.just(0)),
        st.tuples(st.just(SMC.INIT_THREAD), pagenos, pagenos, vas, st.just(0)),
        st.tuples(st.just(SMC.INIT_L2PTABLE), pagenos, pagenos, l1indices, st.just(0)),
        st.tuples(st.just(SMC.MAP_SECURE), pagenos, pagenos, vas, insecure_flag),
        st.tuples(st.just(SMC.MAP_INSECURE), pagenos, vas, insecure_flag, st.just(0)),
        st.tuples(st.just(SMC.ALLOC_SPARE), pagenos, pagenos, st.just(0), st.just(0)),
        st.tuples(st.just(SMC.FINALISE), pagenos, st.just(0), st.just(0), st.just(0)),
        st.tuples(st.just(SMC.STOP), pagenos, st.just(0), st.just(0), st.just(0)),
        st.tuples(st.just(SMC.REMOVE), pagenos, st.just(0), st.just(0), st.just(0)),
        st.tuples(st.just(SMC.ENTER), pagenos, st.just(1), st.just(2), st.just(3)),
        st.tuples(st.just(SMC.RESUME), pagenos, st.just(0), st.just(0), st.just(0)),
    )


class TestRandomTraces:
    @given(st.lists(smc_calls(), max_size=25))
    @settings(max_examples=60, deadline=None)
    def test_impl_tracks_spec_on_hostile_traces(self, calls):
        checked = CheckedMonitor(secure_pages=NPAGES, step_budget=200)
        insecure_base = checked.state.memmap.insecure.base
        for call in calls:
            callno = call[0]
            args = list(call[1:])
            if callno == SMC.MAP_SECURE:
                # Translate the validity flag into a real address choice:
                # a proper insecure page or the monitor image (hostile).
                args[3] = (
                    insecure_base
                    if args[3]
                    else checked.state.memmap.monitor_image.base
                )
                mapping = Mapping(
                    va=args[2], readable=True, writable=True, executable=False
                )
                args[2] = mapping.encode()
            if callno == SMC.MAP_INSECURE:
                target = (
                    insecure_base
                    if args[2]
                    else checked.state.memmap.secure.base
                )
                mapping = Mapping(
                    va=args[1], readable=True, writable=True, executable=False
                )
                args = [args[0], mapping.encode(), target, 0]
            if callno == SMC.INIT_THREAD:
                # Entry point: any VA; enclaves will fault, which is fine.
                pass
            checked.smc(callno, *args)  # raises RefinementError on divergence
