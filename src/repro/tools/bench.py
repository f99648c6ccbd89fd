"""Benchmark CLI: Table 3 + paper microbenchmarks + engine throughput.

Runs four suites and reports/records the results:

* **table3** — the paper's monitor-operation microbenchmarks in
  *simulated cycles* (GetPhysPages, Enter+Exit, Enter-only, Resume-only,
  AllocSpare, MapData, Attest, Verify).  These depend only on the cost
  model, so they are exactly reproducible and any drift is a bug.

* **micro** — the paper's Figure 5 analogues (null SMC round-trip,
  enclave enter + exit, one-way SVC exit) in simulated cycles — which
  are asserted identical across engines — and host wall microseconds
  per operation on each engine (reference, fast, turbo).

* **throughput** — host instructions/second of all three execution
  engines on three ARM workloads (checksum, notary, sha256).  The
  engine-to-engine *speedups* are the machine-independent figures of
  merit: absolute wall time varies with the host, but the ratio
  between interpreters running in the same process is stable, so the
  CI regression gate is phrased on them.

* **campaigns** — fault-campaign wall time and violations, plus a fork
  microbenchmark (ms per snapshot restore).  Campaign reports are
  pinned by digest in tests/faults/test_report_digests.py.

* **restore** — ``MachineState.restore`` latency, full-buffer copy vs
  O(dirty-pages) delta, across the dirty-page counts that bracket real
  cloud-request footprints (shared with ``repro.tools.deltabench``,
  whose ``BENCH_PR10.json`` gate pins the ratio in CI).

Usage::

    python -m repro.tools.bench                     # run, print a table
    python -m repro.tools.bench --out BENCH_PR7.json    # also write JSON
    python -m repro.tools.bench --check BENCH_PR7.json  # regression gate
    python -m repro.tools.bench --profile           # cProfile the run
    python -m repro.tools.bench --profile --profile-json PROF.json
    python -m repro.tools.bench --summary-md SUMMARY.md  # CI job summary

``--profile-json`` writes the profile as a machine-readable top-N
hotspot report (schema ``repro-profile-1``): rows sorted by cumulative
time with stable keys (``file``/``line``/``func``/``ncalls``/
``tottime_s``/``cumtime_s``), paths relative to the source tree and
generated-block frames folded to ``<block>`` so successive reports are
diffable.  The profile-guided burn-down loop reads this to pick the
next hotspot.  ``--summary-md`` writes the engine speedup table as
GitHub-flavoured markdown for ``$GITHUB_STEP_SUMMARY``.

``--check`` re-runs the suites and fails (exit 1) if any simulated
cycle count differs from the committed baseline (lost determinism), if
an engine disagrees with the reference result, if a workload's speedup
drops below 70 % of the baseline speedup (a >30 % throughput
regression), or if a fault campaign reports a violation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.arm.assembler import Assembler
from repro.arm.cpu import CPU, ExitReason
from repro.arm.machine import MachineState
from repro.arm.modes import Mode
from repro.arm.pagetable import l1_index, l2_index, make_l1_entry, make_l2_entry
from repro.arm.registers import PSR

SCHEMA = "repro-bench-2"

#: Throughput regression gate: current speedup must stay above this
#: fraction of the baseline speedup (0.7 == fail on >30% regression).
SPEEDUP_FLOOR = 0.7

#: Engine measurement order for throughput and microbenchmark rows.
ENGINE_ORDER = ("reference", "fast", "turbo")

CODE_VA = 0x0000_1000
DATA_VA = 0x0000_4000
DATA_WORDS = 256


# ---------------------------------------------------------------------------
# Throughput workloads: raw ARM programs run directly on the CPU engines
# ---------------------------------------------------------------------------


def _checksum_program() -> Assembler:
    """The checksum app's CRC-32 inner loop (repro.apps.checksum), with
    the buffer at DATA_VA; r0 = word count."""
    from repro.apps.checksum import CRC_POLY
    from repro.monitor.layout import SVC

    asm = Assembler()
    asm.mov("r5", "r0")
    asm.mov32("r4", DATA_VA)
    asm.mov32("r6", 0xFFFFFFFF)
    asm.mov32("r9", CRC_POLY)
    asm.movw("r10", 1)
    asm.label("word_loop")
    asm.ldr("r7", "r4", 0)
    asm.eor("r6", "r6", "r7")
    asm.movw("r8", 32)
    asm.label("bit_loop")
    asm.tst("r6", "r10")
    asm.beq("even")
    asm.lsri("r6", "r6", 1)
    asm.eor("r6", "r6", "r9")
    asm.b("bit_done")
    asm.label("even")
    asm.lsri("r6", "r6", 1)
    asm.label("bit_done")
    asm.subi("r8", "r8", 1)
    asm.cmpi("r8", 0)
    asm.bne("bit_loop")
    asm.addi("r4", "r4", 4)
    asm.subi("r5", "r5", 1)
    asm.cmpi("r5", 0)
    asm.bne("word_loop")
    asm.mvn("r0", "r6")
    asm.svc(SVC.EXIT)
    return asm


def _notary_program() -> Assembler:
    """A notary-shaped workload: MAC-like chained mixing of a message.

    The notary app proper is a native program (its logic runs in Python);
    this is the equivalent register-pressure profile in actual ARM code:
    per round, absorb one message word into a rotating state with
    add/eor/ror, as a keyed sponge would.  r0 = round count.
    """
    from repro.monitor.layout import SVC

    asm = Assembler()
    asm.mov("r5", "r0")  # rounds remaining
    asm.mov32("r4", DATA_VA)  # message base
    asm.movw("r3", 0)  # message cursor (wraps at DATA_WORDS)
    asm.mov32("r6", 0x6A09E667)  # state a
    asm.mov32("r7", 0xBB67AE85)  # state b
    asm.mov32("r8", 0x3C6EF372)  # state c
    asm.movw("r9", 7)  # rotation amounts
    asm.movw("r10", 13)
    asm.label("round")
    asm.ldrr("r11", "r4", "r3")  # m = message[cursor]
    asm.eor("r6", "r6", "r11")  # a ^= m
    asm.add("r6", "r6", "r7")  # a += b
    asm.ror("r7", "r7", "r9")  # b = ror(b, 7)
    asm.eor("r7", "r7", "r8")  # b ^= c
    asm.add("r8", "r8", "r11")  # c += m
    asm.ror("r8", "r8", "r10")  # c = ror(c, 13)
    asm.addi("r3", "r3", 4)  # advance cursor, wrap at page end
    asm.cmpi("r3", DATA_WORDS * 4)
    asm.bne("no_wrap")
    asm.movw("r3", 0)
    asm.label("no_wrap")
    asm.subi("r5", "r5", 1)
    asm.cmpi("r5", 0)
    asm.bne("round")
    asm.eor("r0", "r6", "r7")
    asm.eor("r0", "r0", "r8")
    asm.svc(SVC.EXIT)
    return asm


def _sha256_program() -> Assembler:
    """A sha256-shaped workload: the message-schedule sigma functions.

    Per word w: sigma0(w) = ror(w,7) ^ ror(w,18) ^ (w >> 3), accumulated
    across the buffer; r0 = number of passes over the buffer.
    """
    from repro.monitor.layout import SVC

    asm = Assembler()
    asm.mov("r5", "r0")  # passes remaining
    asm.mov32("r6", 0)  # accumulator
    asm.movw("r9", 7)
    asm.movw("r10", 18)
    asm.label("pass_loop")
    asm.mov32("r4", DATA_VA)
    asm.movw("r3", DATA_WORDS)
    asm.label("word_loop")
    asm.ldr("r7", "r4", 0)
    asm.ror("r8", "r7", "r9")  # ror(w, 7)
    asm.ror("r11", "r7", "r10")  # ror(w, 18)
    asm.eor("r8", "r8", "r11")
    asm.lsri("r11", "r7", 3)  # w >> 3
    asm.eor("r8", "r8", "r11")
    asm.add("r6", "r6", "r8")
    asm.addi("r4", "r4", 4)
    asm.subi("r3", "r3", 1)
    asm.cmpi("r3", 0)
    asm.bne("word_loop")
    asm.subi("r5", "r5", 1)
    asm.cmpi("r5", 0)
    asm.bne("pass_loop")
    asm.mov("r0", "r6")
    asm.svc(SVC.EXIT)
    return asm


#: workload name -> (program factory, r0 argument)
WORKLOADS: Dict[str, Tuple[Callable[[], Assembler], int]] = {
    "checksum": (_checksum_program, DATA_WORDS),
    "notary": (_notary_program, 6000),
    "sha256": (_sha256_program, 24),
}


def _stage(program: Assembler, r0: int) -> MachineState:
    """Boot a machine with the program mapped RX at CODE_VA and a data
    page RW at DATA_VA (the sidechannel profiler's layout)."""
    state = MachineState.boot(secure_pages=8)
    memmap = state.memmap
    l1, l2 = memmap.page_base(0), memmap.page_base(1)
    memory = state.memory
    memory.write_word(l1 + l1_index(CODE_VA) * 4, make_l1_entry(l2))
    memory.write_word(
        l2 + l2_index(CODE_VA) * 4,
        make_l2_entry(memmap.page_base(2), True, False, True, True),
    )
    memory.write_word(
        l2 + l2_index(DATA_VA) * 4,
        make_l2_entry(memmap.page_base(3), True, True, False, True),
    )
    memory.write_words(memmap.page_base(2), program.assemble())
    data = [(i * 2654435761 + 0x9E3779B9) & 0xFFFFFFFF for i in range(DATA_WORDS)]
    memory.write_words(memmap.page_base(3), data)
    state.load_ttbr0(l1)
    state.flush_tlb()
    state.regs.cpsr = PSR(mode=Mode.USR, irq_masked=False, fiq_masked=False)
    state.regs.write_gpr(0, r0)
    return state


def _run_engine(name: str, engine: str, repeats: int) -> Dict[str, object]:
    """Run one workload on one engine; wall time is the best of ``repeats``."""
    factory, r0 = WORKLOADS[name]
    program = factory()
    best = None
    for _ in range(repeats):
        state = _stage(program, r0)
        cpu = CPU(state, engine=engine)
        start = time.perf_counter()
        result = cpu.run(CODE_VA, max_steps=10_000_000)
        wall = time.perf_counter() - start
        if result.reason is not ExitReason.SVC:
            raise RuntimeError(f"{name} did not run to completion: {result.reason}")
        sample = {
            "wall_s": round(wall, 6),
            "instr_per_s": round(result.steps / wall, 1),
            "sim_cycles": state.cycles,
            "steps": result.steps,
            "result": state.regs.read_gpr(0),
        }
        if best is None or wall < best["wall_s"]:
            best = sample
    return best


def run_throughput(repeats: int = 3) -> Dict[str, Dict[str, object]]:
    """Run every workload on all three engines; cross-check them
    against each other and report per-engine rates plus the speedups.

    The ``wall_s``/``instr_per_s``/``speedup`` keys keep their PR-2
    meaning (the *fast* engine and its speedup over reference) so old
    baselines stay checkable; the turbo tier adds its own columns.
    """
    out: Dict[str, Dict[str, object]] = {}
    for name in WORKLOADS:
        samples = {
            engine: _run_engine(name, engine, 1 if engine == "reference" else repeats)
            for engine in ENGINE_ORDER
        }
        ref, fast, turbo = (samples[e] for e in ENGINE_ORDER)
        for engine in ("fast", "turbo"):
            for key in ("sim_cycles", "steps", "result"):
                if samples[engine][key] != ref[key]:
                    raise RuntimeError(
                        f"engine divergence on {name}: {key} "
                        f"{engine}={samples[engine][key]} reference={ref[key]}"
                    )
        out[name] = {
            "wall_s": fast["wall_s"],
            "instr_per_s": fast["instr_per_s"],
            "sim_cycles": fast["sim_cycles"],
            "steps": fast["steps"],
            "result": fast["result"],
            "reference_wall_s": ref["wall_s"],
            "reference_instr_per_s": ref["instr_per_s"],
            "turbo_wall_s": turbo["wall_s"],
            "turbo_instr_per_s": turbo["instr_per_s"],
            "speedup": round(fast["instr_per_s"] / ref["instr_per_s"], 2),
            "speedup_turbo": round(turbo["instr_per_s"] / ref["instr_per_s"], 2),
            "speedup_turbo_vs_fast": round(
                turbo["instr_per_s"] / fast["instr_per_s"], 2
            ),
        }
    return out


# ---------------------------------------------------------------------------
# Paper microbenchmarks (Figure 5 analogues): per-engine wall time for
# the monitor crossings, with engine-invariant simulated cycles
# ---------------------------------------------------------------------------


def _micro_engine(engine: str, repeats: int) -> Dict[str, Dict[str, float]]:
    """Measure the three crossing microbenchmarks on one engine.

    Returns name -> {sim_cycles, wall_us} for: null SMC round-trip,
    enclave enter + exit, and the one-way SVC exit path (enter+exit
    minus enter-only, both in cycles and in wall time — the enter-only
    timestamp is captured by the ``on_user_entry`` hook at the moment
    control reaches user mode).
    """
    from repro.monitor.komodo import KomodoMonitor
    from repro.monitor.layout import SMC, SVC
    from repro.osmodel.kernel import OSKernel
    from repro.sdk.builder import CODE_VA as SDK_CODE_VA
    from repro.sdk.builder import EnclaveBuilder

    monitor = KomodoMonitor(secure_pages=16, cpu_engine=engine)
    kernel = OSKernel(monitor)

    # Null SMC: the GetPhysPages round-trip, no enclave involved.
    loops = 512
    before = monitor.state.cycles
    start = time.perf_counter()
    for _ in range(loops):
        monitor.smc(SMC.GET_PHYSPAGES)
    null_wall = time.perf_counter() - start
    null_cycles = (monitor.state.cycles - before) // loops

    exit_asm = Assembler()
    exit_asm.svc(SVC.EXIT)
    enclave = (
        EnclaveBuilder(kernel).add_code(exit_asm).add_thread(SDK_CODE_VA).build()
    )
    enclave.enter()  # warm the caches once; not measured

    marks: Dict[str, float] = {}

    def on_entry(cycles: int) -> None:
        marks["cycles"] = cycles
        marks["wall"] = time.perf_counter()

    monitor.on_user_entry = on_entry
    loops = 128
    best: Optional[Dict[str, float]] = None
    for _ in range(repeats):
        cycles_before = monitor.state.cycles
        exit_cycles = 0
        enter_wall = exit_wall = 0.0
        for _ in range(loops):
            start = time.perf_counter()
            enclave.enter()
            end = time.perf_counter()
            enter_wall += marks["wall"] - start
            exit_wall += end - marks["wall"]
            exit_cycles += monitor.state.cycles - marks["cycles"]
        total_cycles = monitor.state.cycles - cycles_before
        sample = {
            "enter_exit_wall": enter_wall + exit_wall,
            "enter_wall": enter_wall,
            "exit_wall": exit_wall,
            "enter_exit_cycles": total_cycles // loops,
            "exit_cycles": exit_cycles // loops,
        }
        if best is None or sample["enter_exit_wall"] < best["enter_exit_wall"]:
            best = sample
    monitor.on_user_entry = None

    return {
        "null_smc_round_trip": {
            "sim_cycles": null_cycles,
            "wall_us": round(null_wall / 512 * 1e6, 3),
        },
        "enter_exit": {
            "sim_cycles": best["enter_exit_cycles"],
            "wall_us": round(best["enter_exit_wall"] / loops * 1e6, 3),
        },
        "svc_exit_one_way": {
            "sim_cycles": best["exit_cycles"],
            "wall_us": round(best["exit_wall"] / loops * 1e6, 3),
        },
    }


def run_paper_micro(repeats: int = 3) -> Dict[str, Dict[str, object]]:
    """Figure 5 analogues on every engine.

    Simulated cycles are asserted engine-invariant (they depend only on
    the cost model); wall microseconds per operation are reported per
    engine.
    """
    per_engine = {engine: _micro_engine(engine, repeats) for engine in ENGINE_ORDER}
    out: Dict[str, Dict[str, object]] = {}
    for name, ref_row in per_engine["reference"].items():
        for engine in ("fast", "turbo"):
            got = per_engine[engine][name]["sim_cycles"]
            if got != ref_row["sim_cycles"]:
                raise RuntimeError(
                    f"micro {name}: sim_cycles diverge "
                    f"({engine}={got}, reference={ref_row['sim_cycles']})"
                )
        out[name] = {
            "sim_cycles": ref_row["sim_cycles"],
            "wall_us": {
                engine: per_engine[engine][name]["wall_us"]
                for engine in ENGINE_ORDER
            },
        }
    return out


# ---------------------------------------------------------------------------
# Fault campaigns: wall time per campaign and per snapshot fork
# ---------------------------------------------------------------------------


def run_campaigns() -> Dict[str, object]:
    """Time both fault campaigns, plus the fork microbenchmark: the cost
    of one snapshot restore of a built two-enclave state, which every
    trial pays once."""
    from repro.faults.bitflip import BitflipCampaign
    from repro.faults.campaign import LifecycleCampaign
    from repro.faults.snapshot import CampaignSnapshot
    from repro.osmodel.kernel import OSKernel

    out: Dict[str, object] = {}
    for name, campaign in (
        ("lifecycle", LifecycleCampaign(engine="turbo", stride=5)),
        ("bitflip", BitflipCampaign(engine="turbo", stride=173, targets=("pagedb", "itag"))),
    ):
        start = time.perf_counter()
        report = campaign.run()
        out[name] = {
            "trials": report.total_trials,
            "wall_s": round(time.perf_counter() - start, 3),
            "violations": len(report.violations),
        }

    campaign = BitflipCampaign(engine="turbo")
    monitor = campaign._boot()
    kernel = OSKernel(monitor)
    campaign._build_enclave(kernel, "victim")
    campaign._build_enclave(kernel, "bystander")
    checkpoint = CampaignSnapshot(monitor, kernel)
    loops = 100
    start = time.perf_counter()
    for _ in range(loops):
        checkpoint.restore()
    restore_ms = (time.perf_counter() - start) / loops * 1e3
    out["fork"] = {"snapshot_restore_ms": round(restore_ms, 3)}
    return out


# ---------------------------------------------------------------------------
# Snapshot restore: full-buffer copy vs O(dirty-pages) delta
# ---------------------------------------------------------------------------


def run_restore() -> Dict[str, object]:
    """Delta vs full restore latency (shared with repro.tools.deltabench)."""
    from repro.tools.deltabench import bench_restore

    return bench_restore(iterations=200)


# ---------------------------------------------------------------------------
# Table 3 microbenchmarks (simulated cycles; mirrors benchmarks/)
# ---------------------------------------------------------------------------


def run_table3() -> Dict[str, Dict[str, int]]:
    from repro.monitor.errors import KomErr
    from repro.monitor.komodo import KomodoMonitor
    from repro.monitor.layout import Mapping, SMC, SVC
    from repro.osmodel.kernel import OSKernel
    from repro.sdk.builder import CODE_VA as SDK_CODE_VA
    from repro.sdk.builder import EnclaveBuilder
    from repro.sdk.native import NativeEnclaveProgram

    paper = {
        "GetPhysPages (null SMC)": 123,
        "Enter + Exit (full crossing)": 738,
        "Enter only (no return)": 496,
        "Resume only (no return)": 625,
        "Attest": 12411,
        "Verify": 13373,
        "AllocSpare": 217,
        "MapData": 5826,
    }
    rows: Dict[str, Dict[str, int]] = {}

    def record(name: str, cycles: int) -> None:
        rows[name] = {"sim_cycles": cycles, "paper_cycles": paper[name]}

    def cycles_of(monitor, fn) -> int:
        before = monitor.state.cycles
        fn()
        return monitor.state.cycles - before

    monitor = KomodoMonitor(secure_pages=64)
    kernel = OSKernel(monitor)

    record("GetPhysPages (null SMC)", cycles_of(monitor, lambda: monitor.smc(SMC.GET_PHYSPAGES)))

    exit_asm = Assembler()
    exit_asm.svc(SVC.EXIT)
    exit_enclave = (
        EnclaveBuilder(kernel).add_code(exit_asm).add_thread(SDK_CODE_VA).build()
    )
    record("Enter + Exit (full crossing)", cycles_of(monitor, exit_enclave.enter))

    marks = {}
    monitor.on_user_entry = lambda cycles: marks.__setitem__("entry", cycles)
    before = monitor.state.cycles
    exit_enclave.enter()
    record("Enter only (no return)", marks["entry"] - before)

    spin_asm = Assembler()
    spin_asm.label("spin")
    spin_asm.b("spin")
    spin_enclave = (
        EnclaveBuilder(kernel).add_code(spin_asm).add_thread(SDK_CODE_VA).build()
    )
    monitor.schedule_interrupt(3)
    spin_enclave.enter()
    monitor.schedule_interrupt(3)
    before = monitor.state.cycles
    spin_enclave.resume()
    record("Resume only (no return)", marks["entry"] - before)
    monitor.on_user_entry = None

    page = kernel.alloc_page()
    record(
        "AllocSpare",
        cycles_of(monitor, lambda: monitor.smc(SMC.ALLOC_SPARE, exit_enclave.as_page, page)),
    )

    measured = {}

    def attest_body(ctx, a, b, c):
        start = ctx.monitor.state.cycles
        mac = ctx.attest([0] * 8)
        measured["Attest"] = ctx.monitor.state.cycles - start
        meas = ctx.monitor.pagedb.measurement(ctx.asno)
        start = ctx.monitor.state.cycles
        ok = ctx.verify([0] * 8, meas, mac)
        measured["Verify"] = ctx.monitor.state.cycles - start
        return 1 if ok else 0
        yield

    attest_enclave = (
        EnclaveBuilder(kernel)
        .set_native_program(NativeEnclaveProgram("bench-attest", attest_body))
        .build()
    )
    err, ok = attest_enclave.call()
    if (err, ok) != (KomErr.SUCCESS, 1):
        raise RuntimeError(f"attest benchmark failed: {err!r}")
    record("Attest", measured["Attest"])
    record("Verify", measured["Verify"])

    def mapdata_body(ctx, spare, b, c):
        mapping = Mapping(
            va=0x0010_0000, readable=True, writable=True, executable=False
        ).encode()
        start = ctx.monitor.state.cycles
        ctx.map_data(spare, mapping)
        measured["MapData"] = ctx.monitor.state.cycles - start
        ctx.unmap_data(spare, mapping)
        return 0
        yield

    mapdata_enclave = (
        EnclaveBuilder(kernel)
        .add_spares(1)
        .set_native_program(NativeEnclaveProgram("bench-mapdata", mapdata_body))
        .build()
    )
    err, _ = mapdata_enclave.call(mapdata_enclave.spares[0])
    if err is not KomErr.SUCCESS:
        raise RuntimeError(f"mapdata benchmark failed: {err!r}")
    record("MapData", measured["MapData"])
    return rows


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def run_all(repeats: int = 3) -> Dict[str, object]:
    return {
        "schema": SCHEMA,
        "workloads": run_throughput(repeats=repeats),
        "micro": run_paper_micro(repeats=repeats),
        "campaigns": run_campaigns(),
        "restore": run_restore(),
        "table3": run_table3(),
    }


def _print_report(report: Dict[str, object]) -> None:
    print(
        f"{'workload':<12} {'ref instr/s':>12} {'fast instr/s':>13} "
        f"{'turbo instr/s':>14} {'fast/ref':>9} {'turbo/ref':>10} {'turbo/fast':>11}"
    )
    for name, row in report["workloads"].items():
        print(
            f"{name:<12} {row['reference_instr_per_s']:>12,.0f} "
            f"{row['instr_per_s']:>13,.0f} {row['turbo_instr_per_s']:>14,.0f} "
            f"{row['speedup']:>8.2f}x {row['speedup_turbo']:>9.2f}x "
            f"{row['speedup_turbo_vs_fast']:>10.2f}x"
        )
    print()
    print(
        f"{'microbench':<22} {'sim cycles':>11} {'ref us':>9} "
        f"{'fast us':>9} {'turbo us':>9}"
    )
    for name, row in report["micro"].items():
        walls = row["wall_us"]
        print(
            f"{name:<22} {row['sim_cycles']:>11,} {walls['reference']:>9.2f} "
            f"{walls['fast']:>9.2f} {walls['turbo']:>9.2f}"
        )
    print()
    print(f"{'campaign':<12} {'trials':>7} {'wall s':>9} {'violations':>11}")
    for name in ("lifecycle", "bitflip"):
        row = report["campaigns"][name]
        print(
            f"{name:<12} {row['trials']:>7} {row['wall_s']:>9.3f} "
            f"{row['violations']:>11}"
        )
    fork = report["campaigns"]["fork"]
    print(f"{'fork':<12} {'':>7} {fork['snapshot_restore_ms']:>8.3f}m")
    print()
    print(f"{'restore':<12} {'dirty pages':>12} {'delta us':>9} {'full us':>9} {'speedup':>8}")
    for row in report["restore"]["rows"]:
        print(
            f"{'':<12} {row['dirty_pages']:>12} {row['delta_us']:>9.1f} "
            f"{row['full_us']:>9.1f} {row['speedup']:>7.1f}x"
        )
    print()
    print(f"{'Table 3 row':<30} {'sim cycles':>12} {'paper':>8}")
    for name, row in report["table3"].items():
        print(f"{name:<30} {row['sim_cycles']:>12,} {row['paper_cycles']:>8,}")


PROFILE_SCHEMA = "repro-profile-1"


def _profile_key(filename: str, lineno: int, func: str) -> Tuple[str, int, str]:
    """Normalise one pstats frame to stable, host-independent keys.

    Absolute paths are cut down to the path under ``src`` (or the
    basename), and the per-address names of generated region functions
    (``<block@0x80016028>``) are folded to ``<block>`` so reports from
    different runs aggregate and diff cleanly.
    """
    if filename.startswith("<block@"):
        return "<block>", 0, "_block"
    if filename.startswith("<"):
        return filename, 0, func
    for marker in ("/repro/", "\\repro\\"):
        cut = filename.rfind(marker)
        if cut != -1:
            return "repro/" + filename[cut + len(marker):].replace("\\", "/"), lineno, func
    return filename.rsplit("/", 1)[-1], lineno, func


def profile_report(profiler, top: int = 25) -> Dict[str, object]:
    """The top-``top`` cumulative-time hotspots as a JSON-ready dict."""
    import pstats

    stats = pstats.Stats(profiler)
    rows: Dict[Tuple[str, int, str], Dict[str, object]] = {}
    for (filename, lineno, func), (cc, ncalls, tottime, cumtime, _) in stats.stats.items():
        key = _profile_key(filename, lineno, func)
        row = rows.get(key)
        if row is None:
            rows[key] = {
                "file": key[0],
                "line": key[1],
                "func": key[2],
                "ncalls": ncalls,
                "tottime_s": tottime,
                "cumtime_s": cumtime,
            }
        else:
            # Folded frames (the generated <block> functions): calls and
            # self time add; cumulative time of disjoint subtrees adds.
            row["ncalls"] += ncalls
            row["tottime_s"] += tottime
            row["cumtime_s"] += cumtime
    ranked = sorted(rows.values(), key=lambda r: r["cumtime_s"], reverse=True)[:top]
    total = sum(row["tottime_s"] for row in rows.values())
    for rank, row in enumerate(ranked, start=1):
        row["rank"] = rank
        row["tottime_s"] = round(row["tottime_s"], 6)
        row["cumtime_s"] = round(row["cumtime_s"], 6)
    return {
        "schema": PROFILE_SCHEMA,
        "sort": "cumulative",
        "total_tottime_s": round(total, 6),
        "top": ranked,
    }


def summary_md(report: Dict[str, object]) -> str:
    """The workload speedup table as GitHub-flavoured markdown."""
    lines = [
        "### Engine throughput",
        "",
        "| workload | ref instr/s | fast instr/s | turbo instr/s | fast/ref | turbo/ref |",
        "| --- | ---: | ---: | ---: | ---: | ---: |",
    ]
    for name, row in report["workloads"].items():
        lines.append(
            f"| {name} | {row['reference_instr_per_s']:,.0f} "
            f"| {row['instr_per_s']:,.0f} | {row['turbo_instr_per_s']:,.0f} "
            f"| {row['speedup']:.2f}x | {row['speedup_turbo']:.2f}x |"
        )
    fork = report["campaigns"]["fork"]
    lines += [
        "",
        "### Fault campaigns",
        "",
        "| campaign | trials | wall s | violations |",
        "| --- | ---: | ---: | ---: |",
    ]
    for name in ("lifecycle", "bitflip"):
        row = report["campaigns"][name]
        lines.append(
            f"| {name} | {row['trials']} | {row['wall_s']:.3f} "
            f"| {row['violations']} |"
        )
    lines.append(f"| fork (ms/restore) | | {fork['snapshot_restore_ms']:.3f} | |")
    lines += [
        "",
        "### Snapshot restore (full vs delta)",
        "",
        "| dirty pages | delta us | full us | speedup |",
        "| ---: | ---: | ---: | ---: |",
    ]
    for row in report["restore"]["rows"]:
        lines.append(
            f"| {row['dirty_pages']} | {row['delta_us']:.1f} "
            f"| {row['full_us']:.1f} | {row['speedup']:.1f}x |"
        )
    return "\n".join(lines) + "\n"


def _check(baseline: Dict[str, object], current: Dict[str, object]) -> List[str]:
    """Compare a fresh run against the committed baseline.

    Simulated cycles must match exactly (they are deterministic);
    throughput must stay within SPEEDUP_FLOOR of the baseline *speedup*
    so the gate is independent of the host machine's absolute speed.
    """
    failures: List[str] = []
    for name, base in baseline.get("workloads", {}).items():
        row = current["workloads"].get(name)
        if row is None:
            failures.append(f"workload {name} missing from current run")
            continue
        for key in ("sim_cycles", "steps", "result"):
            if row[key] != base[key]:
                failures.append(
                    f"{name}: {key} changed {base[key]} -> {row[key]} "
                    "(simulation no longer deterministic vs baseline)"
                )
        for key in ("speedup", "speedup_turbo"):
            if key not in base:
                continue  # pre-turbo (repro-bench-1) baseline
            floor = base[key] * SPEEDUP_FLOOR
            if row[key] < floor:
                failures.append(
                    f"{name}: {key} {row[key]:.2f}x below gate "
                    f"{floor:.2f}x (baseline {base[key]:.2f}x)"
                )
    for name, base in baseline.get("micro", {}).items():
        row = current["micro"].get(name)
        if row is None:
            failures.append(f"micro row {name!r} missing from current run")
        elif row["sim_cycles"] != base["sim_cycles"]:
            failures.append(
                f"micro {name!r}: sim_cycles changed "
                f"{base['sim_cycles']} -> {row['sim_cycles']}"
            )
    if "campaigns" in baseline:
        for name in ("lifecycle", "bitflip"):
            row = current["campaigns"][name]
            if row["violations"]:
                failures.append(f"campaign {name}: {row['violations']} violation(s)")
    if "restore" in baseline:
        from repro.tools.deltabench import RESTORE_FLOOR

        speedup = current["restore"]["footprint_speedup"]
        if speedup < RESTORE_FLOOR:
            failures.append(
                f"restore: delta speedup {speedup}x at "
                f"{current['restore']['footprint_pages']} dirty pages "
                f"below the {RESTORE_FLOOR}x gate"
            )
    for name, base in baseline.get("table3", {}).items():
        row = current["table3"].get(name)
        if row is None:
            failures.append(f"table3 row {name!r} missing from current run")
        elif row["sim_cycles"] != base["sim_cycles"]:
            failures.append(
                f"table3 {name!r}: sim_cycles changed "
                f"{base['sim_cycles']} -> {row['sim_cycles']}"
            )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.bench", description=__doc__.split("\n")[0]
    )
    parser.add_argument("--out", metavar="PATH", help="write results as JSON")
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        help="re-run and fail on cycle drift or >30%% throughput regression",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="wall-time samples per workload (default 3)"
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile and print the hottest call sites",
    )
    parser.add_argument(
        "--profile-lines",
        type=int,
        default=25,
        help="rows of profile output with --profile (default 25)",
    )
    parser.add_argument(
        "--profile-json",
        metavar="PATH",
        help="with --profile, also write the top-N hotspot report as JSON "
        f"(schema {PROFILE_SCHEMA}; N = --profile-lines)",
    )
    parser.add_argument(
        "--summary-md",
        metavar="PATH",
        help="write the speedup tables as GitHub-flavoured markdown "
        "(for $GITHUB_STEP_SUMMARY)",
    )
    args = parser.parse_args(argv)
    if args.profile_json and not args.profile:
        parser.error("--profile-json requires --profile")

    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        report = run_all(repeats=args.repeats)
        profiler.disable()
        _print_report(report)
        print()
        pstats.Stats(profiler).sort_stats("cumulative").print_stats(
            args.profile_lines
        )
        if args.profile_json:
            with open(args.profile_json, "w") as fh:
                json.dump(profile_report(profiler, top=args.profile_lines), fh, indent=2)
                fh.write("\n")
            print(f"wrote {args.profile_json}")

    else:
        report = run_all(repeats=args.repeats)
        _print_report(report)

    if args.summary_md:
        with open(args.summary_md, "w") as fh:
            fh.write(summary_md(report))
        print(f"wrote {args.summary_md}")

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"\nwrote {args.out}")

    if args.check:
        with open(args.check) as fh:
            baseline = json.load(fh)
        failures = _check(baseline, report)
        if failures:
            print(f"\nFAIL: {len(failures)} regression(s) vs {args.check}")
            for failure in failures:
                print(f"  - {failure}")
            return 1
        print(f"\nOK: no regressions vs {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
