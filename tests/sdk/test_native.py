"""Native enclave programs: memory semantics, SVCs, preemption."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.arm.bits import WORDSIZE
from repro.arm.memory import PAGE_SIZE, MemoryFault
from repro.arm.pagetable import (
    PERM_W,
    PageTableWalker,
    entry_target,
    l1_index,
    l2_index,
    make_l2_entry,
)
from repro.monitor.enclave_exec import NativeFault
from repro.monitor.errors import KomErr
from repro.monitor.komodo import KomodoMonitor
from repro.monitor.layout import Mapping, PageType
from repro.osmodel.kernel import OSKernel
from repro.sdk.builder import DATA_VA, SHARED_VA, EnclaveBuilder
from repro.sdk.native import NativeContext, NativeEnclaveProgram, NativeSvcError


@pytest.fixture
def env():
    monitor = KomodoMonitor(secure_pages=48)
    return monitor, OSKernel(monitor)


def build_native(kernel, body, name="native", **builder_calls):
    builder = EnclaveBuilder(kernel)
    for method, arg in builder_calls.items():
        getattr(builder, method)(**arg) if isinstance(arg, dict) else getattr(
            builder, method
        )(arg)
    return builder.set_native_program(NativeEnclaveProgram(name, body)).build()


class TestMemoryAccess:
    def test_reads_writes_through_page_tables(self, env):
        monitor, kernel = env

        def body(ctx, a, b, c):
            ctx.write_word(DATA_VA, 0xABCD)
            ctx.write_words(DATA_VA + 8, [1, 2, 3])
            assert ctx.read_word(DATA_VA) == 0xABCD
            assert ctx.read_words(DATA_VA + 8, 3) == [1, 2, 3]
            return 1
            yield

        builder = EnclaveBuilder(kernel).add_data(va=DATA_VA, writable=True)
        handle = builder.set_native_program(NativeEnclaveProgram("m", body)).build()
        assert handle.call() == (KomErr.SUCCESS, 1)
        # The write landed in the enclave's secure page.
        page = handle.data_pages[DATA_VA]
        assert monitor.state.memory.read_word(monitor.pagedb.page_base(page)) == 0xABCD

    def test_unmapped_access_faults(self, env):
        monitor, kernel = env

        def body(ctx, a, b, c):
            ctx.read_word(0x0FF0_0000)
            return 0
            yield

        handle = build_native(kernel, body)
        err, code = handle.call()
        assert err is KomErr.FAULT

    def test_write_to_readonly_faults(self, env):
        monitor, kernel = env

        def body(ctx, a, b, c):
            ctx.write_word(DATA_VA, 1)
            return 0
            yield

        builder = EnclaveBuilder(kernel).add_data(va=DATA_VA, writable=False)
        handle = builder.set_native_program(NativeEnclaveProgram("ro", body)).build()
        assert handle.call()[0] is KomErr.FAULT

    def test_misaligned_access_faults(self, env):
        monitor, kernel = env

        def body(ctx, a, b, c):
            ctx.read_word(DATA_VA + 2)
            return 0
            yield

        builder = EnclaveBuilder(kernel).add_data(va=DATA_VA)
        handle = builder.set_native_program(NativeEnclaveProgram("mis", body)).build()
        assert handle.call()[0] is KomErr.FAULT

    def test_read_bytes(self, env):
        monitor, kernel = env

        def body(ctx, a, b, c):
            ctx.write_word(DATA_VA, 0x01020304)
            assert ctx.read_bytes(DATA_VA, 4) == b"\x01\x02\x03\x04"
            return 1
            yield

        builder = EnclaveBuilder(kernel).add_data(va=DATA_VA, writable=True)
        handle = builder.set_native_program(NativeEnclaveProgram("rb", body)).build()
        assert handle.call() == (KomErr.SUCCESS, 1)


class TestArgumentsAndExit:
    def test_args_passed(self, env):
        _, kernel = env

        def body(ctx, a, b, c):
            return a * 100 + b * 10 + c
            yield

        handle = build_native(kernel, body)
        assert handle.call(1, 2, 3) == (KomErr.SUCCESS, 123)

    def test_none_return_is_zero(self, env):
        _, kernel = env

        def body(ctx, a, b, c):
            return None
            yield

        handle = build_native(kernel, body)
        assert handle.call() == (KomErr.SUCCESS, 0)

    def test_return_truncated_to_word(self, env):
        _, kernel = env

        def body(ctx, a, b, c):
            return 0x1_0000_0002
            yield

        handle = build_native(kernel, body)
        assert handle.call() == (KomErr.SUCCESS, 2)


class TestPreemption:
    def test_yield_without_interrupt_continues(self, env):
        _, kernel = env

        def body(ctx, a, b, c):
            total = 0
            for i in range(10):
                total += i
                yield
            return total

        handle = build_native(kernel, body)
        assert handle.call() == (KomErr.SUCCESS, 45)

    def test_interrupt_suspends_at_yield(self, env):
        monitor, kernel = env
        progress = []

        def body(ctx, a, b, c):
            for i in range(5):
                progress.append(i)
                yield
            return 99

        handle = build_native(kernel, body)
        monitor.schedule_interrupt(2)
        err, _ = handle.enter()
        assert err is KomErr.INTERRUPTED
        assert progress == [0, 1]
        assert monitor.pagedb.thread_entered(handle.thread)
        err, value = handle.resume()
        assert (err, value) == (KomErr.SUCCESS, 99)
        assert progress == [0, 1, 2, 3, 4]

    def test_nonconforming_yield_value_rejected(self, env):
        _, kernel = env

        def body(ctx, a, b, c):
            yield 42  # programs must yield None
            return 0

        handle = build_native(kernel, body)
        with pytest.raises(RuntimeError):
            handle.enter()


class TestSvcAccess:
    def test_svc_error_raises(self, env):
        _, kernel = env
        caught = {}

        def body(ctx, a, b, c):
            try:
                ctx.map_data(0, 0)  # page 0 is not our spare
            except NativeSvcError as error:
                caught["err"] = error.err
            return 0
            yield

        handle = build_native(kernel, body)
        assert handle.call()[0] is KomErr.SUCCESS
        assert caught["err"] is not KomErr.SUCCESS

    def test_attest_requires_eight_words(self, env):
        _, kernel = env

        def body(ctx, a, b, c):
            try:
                ctx.attest([1, 2, 3])
            except ValueError:
                return 1
            return 0
            yield

        handle = build_native(kernel, body)
        assert handle.call() == (KomErr.SUCCESS, 1)

    def test_work_charged_to_cost_model(self, env):
        monitor, kernel = env

        def body(ctx, a, b, c):
            ctx.charge(12345)
            return 0
            yield

        handle = build_native(kernel, body)
        before = monitor.state.cycles
        handle.call()
        assert monitor.state.cycles - before > 12345


# ---------------------------------------------------------------------------
# The micro-TLB: invalidation, the bulk-access differential, the cost contract
# ---------------------------------------------------------------------------


def _l2_descriptor_address(state, va):
    """Physical address of the live L2 descriptor that maps ``va``."""
    l1_entry = state.memory.read_word(state.ttbr0 + l1_index(va) * WORDSIZE)
    return entry_target(l1_entry) + l2_index(va) * WORDSIZE


class TestTranslationInvalidation:
    """A stale cached translation would let an enclave reach a frame its
    tables no longer grant.  Each case caches a translation and then
    changes the tables inside one program body, without yielding."""

    def test_unmap_data_drops_the_translation(self, env):
        _, kernel = env
        new_va = 0x0011_0000
        outcome = {}

        def body(ctx, spare, b, c):
            mapping = Mapping(va=new_va, readable=True, writable=True, executable=False)
            ctx.map_data(spare, mapping.encode())
            ctx.write_word(new_va, 0x5EC12E7)
            outcome["before"] = ctx.read_word(new_va)
            ctx.unmap_data(spare, mapping.encode())
            try:
                ctx.read_word(new_va)
            except NativeFault:
                return 1
            return 0
            yield

        builder = EnclaveBuilder(kernel).add_spares(1)
        handle = builder.set_native_program(NativeEnclaveProgram("um", body)).build()
        assert handle.call(handle.spares[0]) == (KomErr.SUCCESS, 1)
        assert outcome["before"] == 0x5EC12E7

    def test_new_l2_table_and_mapping_become_visible(self, env):
        _, kernel = env
        far_va = 0x0080_0000  # l1index 2: no table there until the SVC

        def body(ctx, table_spare, data_spare, c):
            ctx.write_word(DATA_VA, 1)  # warm the micro-TLB
            try:
                ctx.read_word(far_va)
                return 0
            except NativeFault:
                pass  # the failed walk must not be cached
            ctx.init_l2ptable(table_spare, l1_index(far_va))
            mapping = Mapping(va=far_va, readable=True, writable=True, executable=False)
            ctx.map_data(data_spare, mapping.encode())
            ctx.write_words(far_va + PAGE_SIZE - 8, [7, 8])
            ctx.write_word(far_va, 99)
            return ctx.read_word(far_va) + sum(ctx.read_words(far_va + PAGE_SIZE - 8, 2))
            yield

        builder = EnclaveBuilder(kernel).add_data(va=DATA_VA).add_spares(2)
        handle = builder.set_native_program(NativeEnclaveProgram("grow", body)).build()
        assert handle.call(handle.spares[0], handle.spares[1]) == (KomErr.SUCCESS, 114)

    def test_restore_drops_translations_cached_before_it(self, env):
        monitor, kernel = env
        new_va = 0x0011_0000
        mapping = Mapping(va=new_va, readable=True, writable=True, executable=False)
        frames = {}

        def body(ctx, first, second, c):
            state = ctx.monitor.state
            snap = state.snapshot()  # new_va unmapped; both spares free
            ctx.map_data(first, mapping.encode())
            ctx.read_word(new_va)  # cache new_va -> first
            state.restore(snap)
            # The same SVC on the other spare bumps ``TLB.version`` back
            # to the value the stale entry was cached under.
            ctx.map_data(second, mapping.encode())
            ctx.write_word(new_va, 0xFEED)
            frames["utlb"] = state.uarch.utlb[new_va >> 12].phys_base
            return 1
            yield

        builder = EnclaveBuilder(kernel).add_spares(2)
        handle = builder.set_native_program(NativeEnclaveProgram("rs", body)).build()
        first, second = handle.spares
        assert handle.call(first, second) == (KomErr.SUCCESS, 1)
        pagedb, memory = monitor.pagedb, monitor.state.memory
        assert frames["utlb"] == pagedb.page_base(second)
        assert memory.read_word(pagedb.page_base(second)) == 0xFEED
        assert pagedb.page_type(first) is PageType.SPARE

    def test_bit_flip_clearing_write_permission_faults_next_write(self, env):
        _, kernel = env

        def body(ctx, a, b, c):
            state = ctx.monitor.state
            ctx.write_word(DATA_VA, 1)  # cache a writable translation
            state.flip_bit(_l2_descriptor_address(state, DATA_VA), PERM_W.bit_length() - 1)
            assert ctx.read_word(DATA_VA) == 1  # still readable
            try:
                ctx.write_word(DATA_VA, 2)
            except NativeFault:
                return 1
            return 0
            yield

        builder = EnclaveBuilder(kernel).add_data(va=DATA_VA, writable=True)
        handle = builder.set_native_program(NativeEnclaveProgram("bf", body)).build()
        assert handle.call() == (KomErr.SUCCESS, 1)


# The differential layout: five consecutive pages from DATA_VA, read-write,
# read-write, read-only, unmapped, and one whose descriptor is corrupted to
# map the L2 table itself (so a store there rewrites live translations).
_RW, _RO, _HOLE, _SELF = (
    DATA_VA + PAGE_SIZE,
    DATA_VA + 2 * PAGE_SIZE,
    DATA_VA + 3 * PAGE_SIZE,
    DATA_VA + 4 * PAGE_SIZE,
)
# Word offset, inside the self-mapped page, of that page's own descriptor.
_SELF_SLOT = l2_index(_SELF) * WORDSIZE


def _parent_translate(ctx, va, write):
    """Translation as it was before the micro-TLB: re-read the L1PT word
    from the PageDB (one charged monitor read) and walk both levels."""
    pagedb = ctx.monitor.pagedb
    l1_base = pagedb.page_base(pagedb.l1pt_page(ctx.asno))
    translation = PageTableWalker(ctx.monitor.state.memory).walk(l1_base, va)
    if translation is None:
        raise NativeFault()
    if not (translation.writable if write else translation.readable):
        raise NativeFault()
    return translation.phys_addr(va)


def _parent_read_words(ctx, va, count):
    state = ctx.monitor.state
    words = []
    for i in range(count):
        if (va + i * WORDSIZE) % WORDSIZE:
            raise NativeFault()
        paddr = _parent_translate(ctx, va + i * WORDSIZE, write=False)
        state.charge(state.costs.mem_access)
        words.append(state.memory.read_word(paddr))
    return words


def _parent_write_words(ctx, va, words):
    state = ctx.monitor.state
    for i, word in enumerate(words):
        if (va + i * WORDSIZE) % WORDSIZE:
            raise NativeFault()
        paddr = _parent_translate(ctx, va + i * WORDSIZE, write=True)
        state.charge(state.costs.mem_access)
        state.memory.write_word(paddr, word)
        state.tlb.note_store(paddr)


@pytest.fixture(scope="module")
def entered():
    """A native context over the differential layout, with TTBR0 loaded
    as Enter leaves it, plus the frames whose contents are compared."""
    monitor = KomodoMonitor(secure_pages=48)
    kernel = OSKernel(monitor)
    builder = (
        EnclaveBuilder(kernel)
        .add_data(contents=list(range(1024)), va=DATA_VA)
        .add_data(contents=list(range(5000, 6024)), va=_RW)
        .add_data(contents=[0xA5A5] * 1024, va=_RO, writable=False)
        .add_data(va=_SELF)
    )
    handle = builder.set_native_program(
        NativeEnclaveProgram("diff", lambda ctx, a, b, c: iter(()))
    ).build()
    state = monitor.state
    pagedb = monitor.pagedb
    state.load_ttbr0(pagedb.page_base(pagedb.l1pt_page(handle.as_page)))
    state.flush_tlb()
    descriptor = _l2_descriptor_address(state, _SELF)
    l2_base = descriptor & ~(PAGE_SIZE - 1)
    state.memory.write_word(descriptor, make_l2_entry(l2_base, True, True, False, True))
    state.tlb.note_store(descriptor)
    frames = sorted(
        {pagedb.page_base(page) for page in handle.data_pages.values()} | {l2_base}
    )
    return NativeContext(monitor, handle.thread), frames


def _run(ctx, frames, op, warm):
    """Run ``op`` from the shared start state, with the micro-TLB cold or
    holding every mapped page; return what it observed."""
    state = ctx.monitor.state
    snap = state.snapshot()
    try:
        if warm:
            for va in (DATA_VA, _RW, _RO, _SELF):
                ctx.read_word(va)
        start = state.cycles
        try:
            result = op()
        except (NativeFault, MemoryFault) as fault:
            # A store into the self-mapped table can point a descriptor
            # outside physical memory: the next access is a bus fault.
            result = type(fault).__name__
        memory = [state.memory.read_words(frame, 1024) for frame in frames]
        return result, state.cycles - start, memory
    finally:
        state.restore(snap)


_SPAN_START = st.integers(min_value=DATA_VA - 8, max_value=_SELF + PAGE_SIZE)


class TestBulkAccessDifferential:
    """Bulk ``read_words``/``write_words`` against the per-word loop they
    replace: same words or fault, same memory after a partial write, and
    the same cycles."""

    @settings(max_examples=150, deadline=None)
    @example(start=_RW - 8, count=4, misalign=0, warm=True)
    @example(start=_HOLE - 4, count=2, misalign=0, warm=False)
    @example(start=_RO + 16, count=0, misalign=2, warm=False)
    @given(
        start=_SPAN_START.map(lambda va: va & ~3),
        count=st.integers(min_value=0, max_value=2100),
        misalign=st.sampled_from([0, 0, 0, 1, 2, 3]),
        warm=st.booleans(),
    )
    def test_read_words(self, entered, start, count, misalign, warm):
        ctx, frames = entered
        va = start + misalign
        want = _run(ctx, frames, lambda: _parent_read_words(ctx, va, count), warm)
        got = _run(ctx, frames, lambda: ctx.read_words(va, count), warm)
        assert got == want

    @settings(max_examples=150, deadline=None)
    @example(start=DATA_VA + PAGE_SIZE - 8, count=2000, misalign=0, seed=1, warm=True)
    @example(start=_RO - 12, count=5, misalign=0, seed=2, warm=True)
    @example(start=_SELF + _SELF_SLOT - 4, count=4, misalign=0, seed=3, warm=True)
    @example(start=_SELF + _SELF_SLOT, count=3, misalign=0, seed=4, warm=False)
    @example(start=DATA_VA, count=0, misalign=1, seed=5, warm=False)
    @given(
        start=_SPAN_START.map(lambda va: va & ~3),
        count=st.integers(min_value=0, max_value=2100),
        misalign=st.sampled_from([0, 0, 0, 1, 2, 3]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        warm=st.booleans(),
    )
    def test_write_words(self, entered, start, count, misalign, seed, warm):
        ctx, frames = entered
        va = start + misalign
        words = [(seed * (i + 1) * 2654435761) & 0xFFFFFFFF for i in range(count)]
        want = _run(ctx, frames, lambda: _parent_write_words(ctx, va, words), warm)
        got = _run(ctx, frames, lambda: ctx.write_words(va, iter(words)), warm)
        assert got == want

    def test_store_into_a_self_mapped_table_retargets_the_rest_of_the_run(self, entered):
        """The case the per-word walk exists for: the run rewrites its own
        page's descriptor, so the words after it must fault."""
        ctx, frames = entered
        run = _run(ctx, frames, lambda: ctx.write_words(_SELF + _SELF_SLOT, [0, 1]), True)
        assert run[0] == "NativeFault"


class TestCostContract:
    """Each word costs the modelled PageDB lookup of the addrspace's L1PT
    plus the access itself, whether or not the micro-TLB hits."""

    def test_word_access_costs_two_accesses_on_miss_and_hit(self, entered):
        ctx, _ = entered
        state = ctx.monitor.state
        access = state.costs.mem_access
        uarch = state.uarch
        for op in (lambda: ctx.read_word(_RW), lambda: ctx.write_word(_RW, 3)):
            state.flush_tlb()
            assert uarch.utlb_version != state.tlb.version  # the next access misses
            before = state.cycles
            op()
            assert state.cycles - before == 2 * access
            assert uarch.utlb_version == state.tlb.version  # ... and this one hits
            assert (_RW >> 12) in uarch.utlb
            before = state.cycles
            op()
            assert state.cycles - before == 2 * access

    @pytest.mark.parametrize(
        "start,count",
        [(DATA_VA, 1), (DATA_VA + 4000, 700), (DATA_VA + 8, 2046), (DATA_VA + 4092, 1100)],
    )
    def test_bulk_access_costs_two_accesses_per_word(self, entered, start, count):
        ctx, _ = entered
        state = ctx.monitor.state
        access = state.costs.mem_access
        writable = start + count * WORDSIZE <= _RO
        state.flush_tlb()
        for _cold_then_warm in range(2):
            before = state.cycles
            ctx.read_words(start, count)
            assert state.cycles - before == 2 * count * access
            if writable:
                before = state.cycles
                ctx.write_words(start, [0] * count)
                assert state.cycles - before == 2 * count * access

    def test_empty_read_costs_nothing_and_never_faults(self, entered):
        ctx, _ = entered
        state = ctx.monitor.state
        before = state.cycles
        assert ctx.read_words(_HOLE + 1, 0) == []
        ctx.write_words(_HOLE + 1, [])
        assert state.cycles == before
