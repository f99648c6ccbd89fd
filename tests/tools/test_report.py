"""The experiment report: every paper artifact, pinned in simulated cycles.

The numbers depend only on the cost model, so any drift is a bug; the
shape assertions say which property of the paper each number carries.
"""

import pytest

from repro.arm import cpu
from repro.arm.assembler import Assembler
from repro.arm.costs import SGX_FULL_CROSSING_CYCLES, CostModel
from repro.crypto.hmac import hmac_sha256
from repro.crypto.sha256 import SHA256
from repro.monitor.errors import KomErr
from repro.monitor.komodo import KomodoMonitor
from repro.monitor.layout import SMC, SVC, Mapping
from repro.osmodel.kernel import OSKernel
from repro.sdk.builder import CODE_VA, EnclaveBuilder
from repro.sdk.native import NativeEnclaveProgram
from repro.spec.invariants import collect_violations
from repro.tools.report import (
    PAPER_TABLE3,
    Row,
    dispatcher_rows,
    encryption_rows,
    evolution_rows,
    figure5_rows,
    optimisation_rows,
    sgx_row,
    table3_rows,
)
from repro.verification.extract import extract_pagedb

#: Table 3 in simulated cycles; every engine must give the same numbers.
TABLE3_CYCLES = {
    "GetPhysPages (null SMC)": 123,
    "Enter + Exit (full crossing)": 788,
    "Enter only (no return)": 475,
    "Resume only (no return)": 595,
    "AllocSpare": 144,
    "Attest": 12331,
    "Verify": 13228,
    "MapData": 5704,
}

#: Figure 5 as (kB, enclave cycles, native cycles), 4-512 kB.
FIGURE5_SERIES = [
    (4, 363_150, 355_988),
    (8, 526_094, 512_788),
    (16, 851_982, 826_388),
    (32, 1_503_758, 1_453_588),
    (64, 2_807_310, 2_707_988),
    (128, 5_414_414, 5_216_788),
    (256, 10_628_622, 10_234_388),
    (512, 21_057_038, 20_269_588),
]

#: The API by the change that added each call (section 7.3): the
#: SGXv1-equivalent baseline, SGXv2-style dynamic memory, the section
#: 9.2 dispatcher interface, and the integrity engine's sweep.
V1_SMCS = {
    SMC.QUERY, SMC.GET_PHYSPAGES, SMC.INIT_ADDRSPACE, SMC.INIT_THREAD,
    SMC.INIT_L2PTABLE, SMC.MAP_SECURE, SMC.MAP_INSECURE, SMC.REMOVE,
    SMC.FINALISE, SMC.ENTER, SMC.RESUME, SMC.STOP,
}
V1_SVCS = {
    SVC.EXIT, SVC.GET_RANDOM, SVC.ATTEST,
    SVC.VERIFY_STEP0, SVC.VERIFY_STEP1, SVC.VERIFY_STEP2,
}
V2_SMCS = {SMC.ALLOC_SPARE}
V2_SVCS = {SVC.INIT_L2PTABLE, SVC.MAP_DATA, SVC.UNMAP_DATA}
DISPATCHER_SVCS = {SVC.SET_FAULT_HANDLER, SVC.RESUME_FAULT}
INTEGRITY_SMCS = {SMC.SCRUB}


def pairs(rows):
    return {row.name: (row.paper, row.measured) for row in rows}


@pytest.fixture(scope="module")
def table3():
    return {row.name: row.measured for row in table3_rows()}


@pytest.fixture(scope="module")
def figure5():
    return figure5_rows()


class TestReportGenerators:
    def test_table3_rows_complete(self, table3):
        assert set(table3) == set(PAPER_TABLE3)

    def test_table3_all_measured_positive(self, table3):
        assert all(cycles > 0 for cycles in table3.values())

    def test_table3_within_factor_two_of_paper(self, table3):
        for name, cycles in table3.items():
            assert 0.5 < cycles / PAPER_TABLE3[name] < 2.0, name

    @pytest.mark.parametrize("engine", cpu.ENGINES)
    def test_table3_cycles_are_pinned_on_every_engine(self, engine, monkeypatch):
        monkeypatch.setattr(cpu, "DEFAULT_ENGINE", engine)
        cycles = {row.name: row.measured for row in table3_rows()}
        assert cycles == TABLE3_CYCLES
        # The one-way SVC exit path: a full crossing minus its entry leg.
        one_way = cycles["Enter + Exit (full crossing)"] - cycles["Enter only (no return)"]
        assert one_way == 313

    def test_table3_shape_matches_paper(self, table3):
        # The hash- and zero-fill-dominated rows track the paper closely.
        for name in ("Attest", "Verify", "MapData"):
            assert abs(table3[name] - PAPER_TABLE3[name]) / PAPER_TABLE3[name] < 0.15
        for name in ("GetPhysPages (null SMC)", "Enter only (no return)",
                     "Enter + Exit (full crossing)", "Resume only (no return)"):
            assert abs(table3[name] - PAPER_TABLE3[name]) / PAPER_TABLE3[name] < 0.30
        # Context restore makes Resume dearer than Enter; Verify recomputes
        # the MAC Attest made; donation is cheap because MapData pays the
        # zero-fill.
        assert table3["Resume only (no return)"] > table3["Enter only (no return)"]
        assert table3["Verify"] > table3["Attest"]
        assert table3["AllocSpare"] < 500
        assert table3["AllocSpare"] * 10 < PAPER_TABLE3["MapData"]

    def test_row_render(self):
        line = Row("thing", 100, 106).render()
        assert "thing" in line and "1.06x" in line


class TestAblations:
    def test_sgx_comparison(self):
        """Section 8.1: a crossing is about an order of magnitude below
        SGX's EENTER+EEXIT."""
        row = sgx_row()
        assert (row.paper, row.measured) == (SGX_FULL_CROSSING_CYCLES, 788)
        assert row.measured * 5 < SGX_FULL_CROSSING_CYCLES

    def test_omitted_optimisations(self, table3):
        """Section 8.1: the prototype's conservative banked-register save
        and per-entry TLB flush, each quantified."""
        rows = pairs(optimisation_rows())
        assert rows == {
            "crossing, no banked-reg save": (788, 728),
            "crossing, no TLB flush on reentry": (788, 528),
            "crossing, both optimisations": (788, 468),
        }
        baseline = table3["Enter + Exit (full crossing)"]
        assert all(paper == baseline for paper, _ in rows.values())
        no_banked = rows["crossing, no banked-reg save"][1]
        assert 0 < baseline - no_banked < baseline * 0.25
        # The flush is the single largest avoidable cost on this path.
        assert baseline - rows["crossing, no TLB flush on reentry"][1] >= 200
        # Even fully optimised, exception entry, validation, scrubbing
        # and context establishment remain.
        assert 200 < rows["crossing, both optimisations"][1] < baseline

    def test_memory_encryption(self):
        """Section 3.2: crossings barely move under a memory-encryption
        engine; page zero-fill absorbs the per-word cost; the Table 3
        ordering survives."""
        rows = pairs(encryption_rows())
        assert rows == {
            "GetPhysPages (null SMC)": (123, 155),
            "Enter + Exit (full crossing)": (788, 834),
            "MapData": (5704, 7697),
        }
        plain, encrypted = rows["Enter + Exit (full crossing)"]
        assert encrypted / plain - 1 < 0.30
        plain, encrypted = rows["MapData"]
        assert encrypted / plain - 1 > 0.25
        null_smc, crossing, mapdata = (encrypted for _, encrypted in rows.values())
        assert null_smc < crossing < mapdata

    def test_dispatcher_interface(self):
        """Section 9.2: self-paging inside one Enter saves the second
        Enter's crossing, less the in-enclave fault dispatch, over demand
        paging through an exit to the OS.  The generator fails unless the
        self-paged call returns SUCCESS, so the OS never sees the fault."""
        [row] = dispatcher_rows()
        exit_based, self_paging = row.paper, row.measured
        assert (exit_based, self_paging) == (7580, 7157)
        assert 200 < exit_based - self_paging < 1500


class TestEvolution:
    """Section 7.3: SGXv2-style dynamic memory as an addition to the
    SGXv1-equivalent monitor."""

    def test_api_surface_by_extension(self):
        assert (len(V2_SMCS), len(V2_SVCS)) == (1, 3)
        # Each call was added by exactly one change.
        smcs, svcs = (V1_SMCS, V2_SMCS, INTEGRITY_SMCS), (V1_SVCS, V2_SVCS, DISPATCHER_SVCS)
        assert set(SMC) == set().union(*smcs) and len(SMC) == sum(map(len, smcs))
        assert set(SVC) == set().union(*svcs) and len(SVC) == sum(map(len, svcs))

    def test_v1_call_cost_unchanged_by_v2_use(self):
        assert pairs(evolution_rows()) == {"v1 call, v2 unused vs used": (789, 789)}

    def test_spare_leaves_running_enclave_invariants_intact(self):
        """Weakened PageDB invariants cover only spare pages and stopped
        enclaves: a running enclave with a spare violates none."""
        monitor = KomodoMonitor(secure_pages=48)
        kernel = OSKernel(monitor)
        asm = Assembler()
        asm.svc(SVC.EXIT)
        enclave = EnclaveBuilder(kernel).add_code(asm).add_thread(CODE_VA).build()
        kernel.alloc_spare(enclave.as_page)
        assert not collect_violations(extract_pagedb(monitor.state), monitor.state.memmap)

    def test_dynamic_growth_keeps_measurement(self):
        """The OS donates, the enclave grows, and its measured identity
        is untouched: spares are unmeasured by design."""

        def body(ctx, spare, b, c):
            mapping = Mapping(
                va=0x0010_0000, readable=True, writable=True, executable=False
            ).encode()
            ctx.map_data(spare, mapping)
            ctx.write_word(0x0010_0000, 1)
            ctx.unmap_data(spare, mapping)
            return 0
            yield

        kernel = OSKernel(KomodoMonitor(secure_pages=48))
        enclave = (
            EnclaveBuilder(kernel)
            .add_spares(1)
            .set_native_program(NativeEnclaveProgram("grow", body))
            .build()
        )
        measurement = enclave.measurement()
        assert enclave.call(enclave.spares[0])[0] is KomErr.SUCCESS
        assert enclave.measurement() == measurement


class TestFigure5:
    def test_series_is_pinned(self, figure5):
        assert figure5 == FIGURE5_SERIES

    def test_enclave_tracks_native(self, figure5):
        """The curves overlap: hashing and signing dominate, so the
        enclave's overhead is small and flat across 4-512 kB."""
        overheads = [enclave / native - 1 for _, enclave, native in figure5]
        assert all(0 <= overhead < 0.10 for overhead in overheads)
        assert max(overheads) - min(overheads) < 0.05

    def test_linear_scaling(self, figure5):
        """Doubling the input from 64 kB up roughly doubles the cycles."""
        enclave = {size_kb: cycles for size_kb, cycles, _ in figure5}
        for small in (64, 128, 256):
            assert 1.6 < enclave[2 * small] / enclave[small] < 2.4


class TestCostModel:
    """The cost constants every hash-dominated Table 3 row inherits."""

    def test_sha256_cycles_per_byte_realistic(self):
        # Optimised ARMv7 SHA-256 runs at roughly 15-60 cycles/byte.
        assert 15 <= CostModel().sha256_block / 64 <= 60

    def test_block_counts(self):
        blocks = []
        # 2 pads, 1 message block, 1 inner padding block, 1 outer digest block.
        hmac_sha256(b"\x00" * 32, b"\x00" * 64, on_block=lambda: blocks.append(1))
        assert len(blocks) == 5
        blocks.clear()
        # Measuring a 4 kB page, the dominant cost of MapSecure.
        SHA256(on_block=lambda: blocks.append(1)).update(b"\x00" * 4096)
        assert len(blocks) == 64

    def test_attest_is_derived_from_hash_cost(self):
        """Attest is five compressions plus overhead, not hard-coded."""
        assert 0.90 < 5 * CostModel().sha256_block / PAPER_TABLE3["Attest"] < 1.05
