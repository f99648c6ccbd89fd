"""One-command experiment report: regenerate every paper artifact.

``python -m repro.tools.report`` prints Table 3 with the section 8.1 SGX
comparison, the four ablations (sections 8.1, 3.2, 7.3 and 9.2), the
Figure 5 notary series and the Table 2 line counts.  This module is the
only definition of each artifact: every number is simulated cycles, so
``tests/tools/test_report.py`` pins each one exactly.

Each measurement is one private probe that takes a booted monitor and
kernel; an ablation is the same probe run on a differently configured
machine (a ``CostModel.variant`` or ``conservative_banked_save=False``).
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.apps.notary import NativeNotary, NotaryEnclave
from repro.arm.assembler import Assembler
from repro.arm.costs import SGX_FULL_CROSSING_CYCLES, CostModel
from repro.monitor.errors import KomErr
from repro.monitor.komodo import KomodoMonitor
from repro.monitor.layout import Mapping, SMC, SVC
from repro.osmodel.kernel import OSKernel
from repro.sdk.builder import CODE_VA, DATA_VA, EnclaveBuilder, EnclaveHandle
from repro.sdk.native import NativeEnclaveProgram

#: The paper's Raspberry Pi 2 clock, for converting cycles to ms.
CPU_MHZ = 900

#: Table 3 as the paper reports it (cycles on the Pi).
PAPER_TABLE3 = {
    "GetPhysPages (null SMC)": 123,
    "Enter only (no return)": 496,
    "Enter + Exit (full crossing)": 738,
    "Resume only (no return)": 625,
    "Attest": 12411,
    "Verify": 13373,
    "AllocSpare": 217,
    "MapData": 5826,
}

#: Section 3.2's memory-encryption engine: +2 cycles per protected word
#: access and a proportional bump to bulk page operations (AES-CTR + MAC
#: per line).
MEE_MEM_SURCHARGE = 2
MEE_PAGE_FACTOR = 1.35

_HANDLER_VA = CODE_VA + 0x800
_HEAP_VA = 0x0030_0000


@dataclass
class Row:
    """One line of a table: ``paper`` is the paper's value, or the
    baseline configuration's in an ablation."""

    name: str
    paper: float
    measured: float

    def render(self) -> str:
        ratio = self.measured / self.paper if self.paper else 0.0
        return f"  {self.name:36} {self.paper:>10.0f} {self.measured:>10.0f} {ratio:6.2f}x"


def _machine(**costs: int) -> Tuple[KomodoMonitor, OSKernel]:
    """A booted monitor and kernel, with cost-model constants overridden."""
    monitor = KomodoMonitor(secure_pages=64)
    if costs:
        monitor.state.costs = monitor.state.costs.variant(**costs)
    return monitor, OSKernel(monitor)


def _mee_machine() -> Tuple[KomodoMonitor, OSKernel]:
    base = CostModel()
    return _machine(
        mem_access=base.mem_access + MEE_MEM_SURCHARGE,
        page_zero=int(base.page_zero * MEE_PAGE_FACTOR),
        page_copy=int(base.page_copy * MEE_PAGE_FACTOR),
    )


def _cycles(monitor: KomodoMonitor, fn) -> int:
    before = monitor.state.cycles
    fn()
    return monitor.state.cycles - before


def _succeeded(result: Tuple[KomErr, int], expected: int, what: str) -> None:
    if result != (KomErr.SUCCESS, expected):
        raise RuntimeError(f"{what} returned {result}, expected success {expected}")


def _exit_enclave(kernel: OSKernel, asm: Optional[Assembler] = None) -> EnclaveHandle:
    """An enclave whose thread runs ``asm`` (nothing by default), then exits."""
    asm = Assembler() if asm is None else asm
    asm.svc(SVC.EXIT)
    return EnclaveBuilder(kernel).add_code(asm).add_thread(CODE_VA).build()


def _crossing(
    monitor: KomodoMonitor, enclave: EnclaveHandle, arg1: int = 0, arg2: int = 0
) -> Tuple[int, int, int]:
    """Enter-only cycles, full Enter+Exit cycles and the returned value
    of one Enter into ``enclave``."""
    marks: Dict[str, int] = {}
    monitor.on_user_entry = lambda cycles: marks.__setitem__("entry", cycles)
    before = monitor.state.cycles
    err, value = enclave.enter(arg1, arg2)
    monitor.on_user_entry = None
    if err is not KomErr.SUCCESS:
        raise RuntimeError(f"crossing failed: {err!r}")
    return marks["entry"] - before, monitor.state.cycles - before, value


def _map_data(monitor: KomodoMonitor, kernel: OSKernel) -> int:
    """Cycles of one MapData SVC mapping a donated spare page."""
    marks: Dict[str, int] = {}

    def body(ctx, spare, b, c):
        mapping = Mapping(
            va=0x0010_0000, readable=True, writable=True, executable=False
        ).encode()
        start = ctx.monitor.state.cycles
        ctx.map_data(spare, mapping)
        marks["mapdata"] = ctx.monitor.state.cycles - start
        return 0
        yield

    enclave = (
        EnclaveBuilder(kernel)
        .add_spares(1)
        .set_native_program(NativeEnclaveProgram("report-map", body))
        .build()
    )
    _succeeded(enclave.call(enclave.spares[0]), 0, "MapData enclave")
    return marks["mapdata"]


def _attest_verify(monitor: KomodoMonitor, kernel: OSKernel) -> Tuple[int, int]:
    """Cycles of Attest and of Verify on the MAC it produced."""
    marks: Dict[str, int] = {}

    def body(ctx, a, b, c):
        start = ctx.monitor.state.cycles
        mac = ctx.attest([0] * 8)
        marks["attest"] = ctx.monitor.state.cycles - start
        meas = ctx.monitor.pagedb.measurement(ctx.asno)
        start = ctx.monitor.state.cycles
        ok = ctx.verify([0] * 8, meas, mac)
        marks["verify"] = ctx.monitor.state.cycles - start
        return 1 if ok else 0
        yield

    enclave = (
        EnclaveBuilder(kernel)
        .set_native_program(NativeEnclaveProgram("report-crypto", body))
        .build()
    )
    _succeeded(enclave.call(), 1, "Attest/Verify enclave")
    return marks["attest"], marks["verify"]


def _resume(monitor: KomodoMonitor, kernel: OSKernel) -> int:
    """Cycles from Resume to the first user instruction of an
    interrupted enclave."""
    spin = Assembler()
    spin.label("spin")
    spin.b("spin")
    enclave = EnclaveBuilder(kernel).add_code(spin).add_thread(CODE_VA).build()
    monitor.schedule_interrupt(3)
    enclave.enter()
    marks: Dict[str, int] = {}
    monitor.on_user_entry = lambda cycles: marks.__setitem__("entry", cycles)
    monitor.schedule_interrupt(3)
    before = monitor.state.cycles
    enclave.resume()
    monitor.on_user_entry = None
    return marks["entry"] - before


def _self_paging(monitor: KomodoMonitor, kernel: OSKernel) -> int:
    """Demand-page one heap page inside one Enter: the enclave stashes
    its spare (arg1), registers a fault handler and touches the page;
    the handler maps the spare and resumes (section 9.2)."""
    asm = Assembler()
    asm.mov("r8", "r0")
    asm.mov32("r4", DATA_VA)
    asm.str_("r8", "r4", 0)
    asm.mov32("r0", _HANDLER_VA)
    asm.svc(SVC.SET_FAULT_HANDLER)
    asm.mov32("r4", _HEAP_VA)
    asm.ldr("r5", "r4", 0)
    asm.addi("r0", "r5", 1)
    asm.svc(SVC.EXIT)
    while asm.position < (_HANDLER_VA - CODE_VA) // 4:
        asm.nop()
    asm.mov32("r4", DATA_VA)
    asm.ldr("r0", "r4", 0)
    asm.mov32("r1", _HEAP_VA | 0b011)
    asm.svc(SVC.MAP_DATA)
    asm.svc(SVC.RESUME_FAULT)
    builder = EnclaveBuilder(kernel).add_code(asm).add_thread(CODE_VA)
    enclave = builder.add_spares(1).add_data(writable=True).build(lint="off")
    before = monitor.state.cycles
    # Success, not FAULT: the OS never learns that a fault happened.
    _succeeded(enclave.call(enclave.spares[0]), 1, "self-paging enclave")
    return monitor.state.cycles - before


def _exit_paging(monitor: KomodoMonitor, kernel: OSKernel) -> int:
    """The same demand paging without a fault handler: one Enter maps
    the spare at the heap address and exits to the OS, a second Enter
    touches the page."""
    asm = Assembler()
    asm.cmpi("r1", 1)
    asm.beq("touch")
    asm.mov32("r1", _HEAP_VA | 0b011)
    asm.svc(SVC.MAP_DATA)  # r0 = spare pageno (arg1)
    asm.movw("r0", 0)
    asm.svc(SVC.EXIT)
    asm.label("touch")
    asm.mov32("r4", _HEAP_VA)
    asm.ldr("r5", "r4", 0)
    asm.addi("r0", "r5", 1)
    asm.svc(SVC.EXIT)
    builder = EnclaveBuilder(kernel).add_code(asm).add_thread(CODE_VA)
    enclave = builder.add_spares(1).build(lint="off")
    before = monitor.state.cycles
    _succeeded(enclave.call(enclave.spares[0], 0), 0, "exit-based map")
    _succeeded(enclave.call(0, 1), 1, "exit-based touch")
    return monitor.state.cycles - before


def table3_rows() -> List[Row]:
    """Regenerate the Table 3 microbenchmarks."""
    monitor, kernel = _machine()
    null_smc = _cycles(monitor, lambda: monitor.smc(SMC.GET_PHYSPAGES))
    enclave = _exit_enclave(kernel)
    enter, crossing, _ = _crossing(monitor, enclave)
    resume = _resume(monitor, kernel)
    attest, verify = _attest_verify(monitor, kernel)
    spare = kernel.alloc_page()
    alloc = _cycles(monitor, lambda: monitor.smc(SMC.ALLOC_SPARE, enclave.as_page, spare))
    measured = {
        "GetPhysPages (null SMC)": null_smc,
        "Enter only (no return)": enter,
        "Enter + Exit (full crossing)": crossing,
        "Resume only (no return)": resume,
        "Attest": attest,
        "Verify": verify,
        "AllocSpare": alloc,
        "MapData": _map_data(monitor, kernel),
    }
    return [Row(name, PAPER_TABLE3[name], cycles) for name, cycles in measured.items()]


def sgx_row() -> Row:
    """Section 8.1: a full crossing against SGX's EENTER+EEXIT pair."""
    monitor, kernel = _machine()
    _, crossing, _ = _crossing(monitor, _exit_enclave(kernel))
    return Row("full crossing vs SGX EENTER+EEXIT", SGX_FULL_CROSSING_CYCLES, crossing)


def optimisation_rows() -> List[Row]:
    """Section 8.1 ablation: the crossing without the prototype's
    conservative banked-register save and per-entry TLB flush."""

    def crossing(banked_save: bool, **costs: int) -> int:
        monitor, kernel = _machine(**costs)
        monitor.conservative_banked_save = banked_save
        return _crossing(monitor, _exit_enclave(kernel))[1]

    baseline = crossing(True)
    return [
        Row("crossing, no banked-reg save", baseline, crossing(False)),
        Row("crossing, no TLB flush on reentry", baseline, crossing(True, tlb_flush=0)),
        Row("crossing, both optimisations", baseline, crossing(False, tlb_flush=0)),
    ]


def encryption_rows() -> List[Row]:
    """Section 3.2 ablation: Table 3 rows on an IOMMU-isolated machine
    against one whose secure memory sits behind an encryption engine."""
    rows = []
    for name, probe in (
        ("GetPhysPages (null SMC)",
         lambda m, k: _cycles(m, lambda: m.smc(SMC.GET_PHYSPAGES))),
        ("Enter + Exit (full crossing)",
         lambda m, k: _crossing(m, _exit_enclave(k))[1]),
        ("MapData", _map_data),
    ):
        rows.append(Row(name, probe(*_machine()), probe(*_mee_machine())))
    return rows


def evolution_rows() -> List[Row]:
    """Section 7.3 ablation: an enclave using only the SGXv1-equivalent
    API costs the same per call before and after the SGXv2 dynamic
    memory calls are exercised on the same machine."""
    monitor, kernel = _machine()
    asm = Assembler()
    asm.add("r0", "r0", "r1")
    enclave = _exit_enclave(kernel, asm)
    _, unused, value = _crossing(monitor, enclave, 20, 22)
    other = _exit_enclave(kernel)
    spare = kernel.alloc_spare(other.as_page)
    monitor.smc(SMC.REMOVE, spare)
    kernel.release_page(spare)
    _, used, value_after = _crossing(monitor, enclave, 20, 22)
    if value != 42 or value_after != 42:
        raise RuntimeError(f"v1 enclave returned {value} then {value_after}, not 42")
    return [Row("v1 call, v2 unused vs used", unused, used)]


def dispatcher_rows() -> List[Row]:
    """Section 9.2 ablation: demand paging through an exit to the OS
    against self-paging through the dispatcher interface."""
    return [Row("demand paging, self-paging",
                _exit_paging(*_machine()), _self_paging(*_machine()))]


def figure5_rows() -> List[Tuple[int, int, int]]:
    """Regenerate the Figure 5 series from 4 kB up to the notary
    enclave's 512 kB document limit: ``(kB, enclave cycles, native
    cycles)`` per document size, each enclave receipt verified."""
    monitor = KomodoMonitor(secure_pages=192, insecure_size=0x200000, step_budget=10**9)
    enclave_notary = NotaryEnclave(OSKernel(monitor))
    enclave_notary.init()
    native_notary = NativeNotary()
    native_notary.init()
    series = []
    size_kb = 4
    while size_kb * 1024 <= enclave_notary.max_doc_bytes:
        document = bytes((i * 31) & 0xFF for i in range(size_kb * 1024))
        start = monitor.state.cycles
        receipt = enclave_notary.notarize(document)
        enclave_cycles = monitor.state.cycles - start
        if not enclave_notary.verify_receipt(document, receipt):
            raise RuntimeError(f"notary receipt for {size_kb} kB does not verify")
        start = native_notary.cycles
        native_notary.notarize(document)
        series.append((size_kb, enclave_cycles, native_notary.cycles - start))
        size_kb *= 2
    return series


def _print_rows(title: str, baseline: str, rows: List[Row]) -> None:
    print(title)
    print(f"  {'':36} {baseline:>10} {'measured':>10}  ratio")
    for row in rows:
        print(row.render())
    print()


def main() -> None:
    print("Komodo reproduction — experiment report")
    print()
    _print_rows("Table 3: microbenchmarks (cycles)", "paper",
                table3_rows() + [sgx_row()])
    _print_rows("Section 8.1 ablation: omitted optimisations (cycles)", "baseline",
                optimisation_rows())
    _print_rows("Section 3.2 ablation: IOMMU vs memory encryption (cycles)", "IOMMU",
                encryption_rows())
    _print_rows("Section 7.3 ablation: SGXv1 workload beside SGXv2 (cycles)", "v2 unused",
                evolution_rows())
    _print_rows("Section 9.2 ablation: dispatcher interface (cycles)", "exit-based",
                dispatcher_rows())
    print(f"Figure 5: notary (ms at {CPU_MHZ} MHz)")
    print(f"  {'kB':>5} {'enclave':>10} {'native':>10}  overhead")
    for size_kb, enclave_cycles, native_cycles in figure5_rows():
        print(f"  {size_kb:>5} {enclave_cycles / CPU_MHZ / 1000:>10.2f}"
              f" {native_cycles / CPU_MHZ / 1000:>10.2f}"
              f"  {enclave_cycles / native_cycles - 1:6.1%}")
    print()
    print("Table 2: line counts")
    from repro.tools.linecount import component_linecounts, format_table

    root = pathlib.Path(__file__).resolve().parents[3]
    print(format_table(component_linecounts(root)))


if __name__ == "__main__":
    main()
