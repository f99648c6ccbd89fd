"""Exhaustive single-bit-flip campaigns against the integrity engine.

Two enclaves — a *victim* and a *bystander* — are built side by side;
at each quiescent lifecycle step the campaign flips one bit of one
monitor-critical word (PageDB entries, integrity-tag arrays, enclave
metadata pages, enclave code/data pages) and then lets the normal-world
OS drive the rest of the lifecycle.  Every trial must end in one of
three defensible outcomes:

* **benign** — the flip landed in a word nothing will ever trust again
  (a dirty flag, say); the engine's own consistency walk sees nothing
  wrong, and both enclaves run untouched;
* **repaired** — the flip hit the PageDB's triple redundancy or a
  healable engine flag; it is silently repaired/healed and both
  enclaves run untouched;
* **quarantined** — the flip destroyed page contents (or made a tag
  lie, which is indistinguishable); the monitor quarantines the page,
  force-stops exactly the owning addrspace, and the OS rebuilds that
  one enclave with :meth:`OSKernel.retry_with_backoff` while the other
  enclave completes its workload untouched.

A trial that ends any other way — a wrong enclave result, a rebuild of
the *un*-owning enclave, a dirty audit, or a final secure-state digest
differing from the unflipped golden run's — is a violation: corruption
escaped detection or containment.

The enclave program is store-free and draws no randomness, so the
post-teardown digest is a deterministic function of the lifecycle alone
and rebuilt enclaves reconverge bit-exactly onto the golden state (the
OS free-list discipline hands a rebuild the same page numbers).

The one word never flipped is the tag region's magic word: it models a
fuse/boot-ROM latch (set once by the bootloader, compared against an
immediate), not DRAM — and a flip there would silently disable the
engine, which is exactly the corruptible-status-word failure mode the
design avoids by *not* keying any trust decision off mutable state.

``run_differential`` repeats a campaign under each requested execution
engine (any subset of fast/reference/turbo): per-trial outcomes, final
digests and cycle counters must agree bit-for-bit.

One machine (monitor + OS kernel) is advanced through the quiescent
steps; at each, the golden run and every flip fork from one
``CampaignSnapshot`` through the shared driver loop
(``repro.faults.driver``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.arm.assembler import Assembler
from repro.arm.bits import WORDSIZE
from repro.arm.memory import PAGE_SIZE, WORDS_PER_PAGE
from repro.arm.pagetable import l1_index, l2_index
from repro.faults.audit import audit_monitor, integrity_consistency, secure_state_digest
from repro.faults.driver import Campaign, Record, Report, Step
from repro.faults.parallel import compare_steps, differential
from repro.faults.snapshot import CampaignSnapshot
from repro.monitor import integrity
from repro.monitor.errors import KomErr
from repro.monitor.layout import (
    AS_WORDS_USED,
    SMC,
    SVC,
    TH_WORDS_USED,
    Mapping,
    itag_dirty_addr,
    itag_entry_sum_addr,
    itag_page_tag_addr,
    itag_quarantine_addr,
    itag_replica_addr,
    pagedb_entry_addr,
)
from repro.osmodel.kernel import OSKernel

CODE_VA = 0x0001_0000
DATA_VA = CODE_VA + PAGE_SIZE
EXIT_VALUE = 0x600D

#: Flip-target families selectable from the CLI.
TARGET_FAMILIES = ("pagedb", "itag", "metadata", "data")


def _program_words() -> List[int]:
    """The campaign enclave: Exit(0x600D), nothing else.

    Store-free (stores are architecturally immediate and would make the
    final digest depend on where a rebuild restarted) and — unlike the
    crash-campaign program — free of ``GET_RANDOM``: a rebuilt enclave
    re-runs from scratch, and an RNG draw would advance the hardware
    RNG differently from the golden run.
    """
    asm = Assembler()
    asm.movw("r0", EXIT_VALUE)
    asm.svc(SVC.EXIT)
    return asm.assemble()


def _data_pattern() -> List[int]:
    """Recognisable non-zero contents for each enclave's data page."""
    return [(0xDA7A0000 ^ (i * 0x01010101)) & 0xFFFFFFFF for i in range(64)]


@dataclass(frozen=True)
class EnclavePages:
    """The fixed secure-page footprint of one campaign enclave."""

    name: str
    as_page: int
    l1: int
    l2: int
    code: int
    data: int
    thread: int

    @property
    def all_pages(self) -> Tuple[int, ...]:
        return (self.as_page, self.l1, self.l2, self.code, self.data, self.thread)

    #: Teardown order: children first, the addrspace last, matching the
    #: free-list discipline that makes a rebuild re-draw the same pages.
    @property
    def remove_order(self) -> Tuple[int, ...]:
        return (self.thread, self.data, self.code, self.l2, self.l1, self.as_page)


@dataclass(frozen=True)
class FlipSite:
    """One injectable word: label, physical address, owning enclave."""

    label: str
    address: int
    owner: Optional[str]  # enclave name, or None for shared structures


@dataclass
class _Outcome:
    """Everything observable about one post-flip lifecycle completion."""

    results: Dict[str, Tuple[KomErr, int]] = field(default_factory=dict)
    rebuilt: List[str] = field(default_factory=list)
    quarantine_errors: int = 0  # PAGE_QUARANTINED returns the OS saw
    scrub_repaired: int = 0
    scrub_quarantined: int = 0
    problems: List[str] = field(default_factory=list)
    final_digest: str = ""
    final_cycles: int = 0


@dataclass
class FlipRecord(Record):
    """One flip trial.

    ``ordinal`` is the trial's index in the *serial* (site × bit,
    strided) sequence, so sharded campaigns merge back into exactly the
    serial report (``repro.faults.parallel``).  A timed-out trial keeps
    its slot with ``outcome="timeout"``/empty digest/cycles ``-1`` so
    the differential records stay aligned.
    """

    ordinal: int
    site: str
    bit: int
    outcome: str = ""
    digest: str = ""
    cycles: int = -1
    violations: List[str] = field(default_factory=list)

    @property
    def label(self) -> str:
        return f"flip {self.site} bit {self.bit}"

    def timed_out(self) -> None:
        self.outcome, self.digest, self.cycles = "timeout", "", -1


@dataclass
class StepSummary(Step):
    """Per-step results; the flat lists the differential comparisons and
    the CLI table use are derived from the per-trial records."""

    RECORDS = "flip_records"

    name: str
    sites: int = 0
    pre_violations: List[str] = field(default_factory=list)
    flip_records: List[FlipRecord] = field(default_factory=list)

    @property
    def benign(self) -> int:
        return sum(1 for r in self.flip_records if r.outcome == "benign")

    @property
    def repaired(self) -> int:
        return sum(1 for r in self.flip_records if r.outcome == "repaired")

    @property
    def quarantined(self) -> int:
        return sum(1 for r in self.flip_records if r.outcome == "quarantined")

    # Per-trial projections, in site×bit order — the differential hook.
    @property
    def trial_outcomes(self) -> List[str]:
        return [r.outcome for r in self.flip_records]

    @property
    def trial_digests(self) -> List[str]:
        return [r.digest for r in self.flip_records]

    @property
    def trial_cycles(self) -> List[int]:
        return [r.cycles for r in self.flip_records]


@dataclass
class BitflipReport(Report):
    engine: str
    seed: int
    stride: int
    steps: List[StepSummary] = field(default_factory=list)

    @property
    def outcome_counts(self) -> Dict[str, int]:
        return {
            "benign": sum(s.benign for s in self.steps),
            "repaired": sum(s.repaired for s in self.steps),
            "quarantined": sum(s.quarantined for s in self.steps),
        }


class BitflipCampaign(Campaign):
    """Flip every (strided) bit of every monitor-critical word.

    Takes the :class:`~repro.faults.driver.Campaign` parameters
    (``seed`` drives the monitor RNG and the OS backoff jitter;
    ``stride`` flips every ``stride``-th (site, bit) pair), plus:

    targets:
        subset of :data:`TARGET_FAMILIES` to inject into (None = all).
    """

    def __init__(
        self,
        seed: int = 0xB17F11B,
        engine: Optional[str] = None,
        secure_pages: int = 16,
        targets: Optional[Iterable[str]] = None,
        stride: int = 1,
        trial_timeout: Optional[float] = None,
        shard: Optional[Tuple[int, int]] = None,
    ) -> None:
        super().__init__(seed, engine, secure_pages, stride, trial_timeout, shard)
        if targets is None:
            self.targets = frozenset(TARGET_FAMILIES)
        else:
            self.targets = frozenset(targets)
            unknown = self.targets - frozenset(TARGET_FAMILIES)
            if unknown:
                raise ValueError(f"unknown flip-target families: {sorted(unknown)}")

    # -- lifecycle machinery ---------------------------------------------

    def _build_enclave(self, kernel: OSKernel, name: str) -> EnclavePages:
        as_page, l1 = kernel.init_addrspace()
        l2 = kernel.init_l2table(as_page, l1_index(CODE_VA))
        code = kernel.map_secure(
            as_page,
            Mapping(va=CODE_VA, readable=True, writable=False, executable=True),
            contents=_program_words(),
        )
        data = kernel.map_secure(
            as_page,
            Mapping(va=DATA_VA, readable=True, writable=True, executable=False),
            contents=_data_pattern(),
        )
        thread = kernel.init_thread(as_page, CODE_VA)
        return EnclavePages(
            name=name, as_page=as_page, l1=l1, l2=l2, code=code, data=data, thread=thread
        )

    def _teardown(self, kernel: OSKernel, enclave: EnclavePages) -> List[str]:
        """Stop/Remove an enclave, tolerating already-removed pages.

        Releases pages in child-first order so the OS free list hands a
        subsequent rebuild the identical page numbers.
        """
        problems: List[str] = []
        kernel.smc(SMC.STOP, enclave.as_page)
        for pageno in enclave.remove_order:
            err, _ = kernel.smc(SMC.REMOVE, pageno)
            if err is KomErr.SUCCESS:
                kernel.release_page(pageno)
            elif err is not KomErr.INVALID_PAGENO:  # already free is fine
                problems.append(
                    f"teardown of {enclave.name} page {pageno} failed: {err!r}"
                )
        return problems

    def _ensure_ran(
        self,
        kernel: OSKernel,
        enclave: EnclavePages,
        needs_finalise: bool,
        backoff_seed: int,
        outcome: _Outcome,
    ) -> None:
        """Run one enclave to a correct exit, rebuilding it if need be.

        The first attempt goes through ``retry_with_backoff`` — a
        ``PAGE_QUARANTINED`` precheck verdict is transient from the OS's
        point of view (the monitor already contained it; the retry runs
        against the repaired state).  If the enclave itself was the
        casualty (its addrspace is now force-stopped), the driver tears
        it down and rebuilds it from the original staged contents.
        """

        def attempt() -> Tuple[KomErr, int]:
            if needs_finalise:
                err, value = kernel.smc(SMC.FINALISE, enclave.as_page)
                if err is KomErr.PAGE_QUARANTINED:
                    outcome.quarantine_errors += 1
                if err not in (KomErr.SUCCESS, KomErr.ALREADY_FINAL):
                    return (err, value)
            err, value = kernel.run_to_completion(enclave.thread)
            if err is KomErr.PAGE_QUARANTINED:
                outcome.quarantine_errors += 1
            return (err, value)

        err, value = kernel.retry_with_backoff(
            attempt, attempts=3, seed=backoff_seed
        )
        if err is KomErr.SUCCESS and value == EXIT_VALUE:
            outcome.results[enclave.name] = (err, value)
            return
        outcome.rebuilt.append(enclave.name)
        outcome.problems.extend(self._teardown(kernel, enclave))
        rebuilt = self._build_enclave(kernel, enclave.name)
        if rebuilt.all_pages != enclave.all_pages:
            outcome.problems.append(
                f"rebuild of {enclave.name} drew pages {rebuilt.all_pages}, "
                f"expected {enclave.all_pages}"
            )
        kernel.finalise(rebuilt.as_page)
        outcome.results[enclave.name] = kernel.run_to_completion(rebuilt.thread)

    def _continue_lifecycle(self, needs_finalise: bool, backoff_seed: int) -> _Outcome:
        """Drive the remaining lifecycle from a (possibly flipped) state."""
        monitor, kernel, enclaves = self.monitor, self.kernel, self.enclaves
        outcome = _Outcome()
        for enclave in enclaves:
            self._ensure_ran(kernel, enclave, needs_finalise, backoff_seed, outcome)
        # Periodic sweep: heal residual corruption in words nothing has
        # trusted yet (free-page contents, flipped engine flags).
        fixed, quarantined = kernel.scrub()
        outcome.scrub_repaired += fixed
        outcome.scrub_quarantined += quarantined
        outcome.problems.extend(
            f"mid-life audit: {p}" for p in audit_monitor(monitor)
        )
        outcome.problems.extend(
            f"mid-life integrity: {p}" for p in integrity_consistency(monitor.state)
        )
        for enclave in enclaves:
            outcome.problems.extend(self._teardown(kernel, enclave))
        fixed, quarantined = kernel.scrub()
        outcome.scrub_repaired += fixed
        outcome.scrub_quarantined += quarantined
        outcome.problems.extend(f"final audit: {p}" for p in audit_monitor(monitor))
        outcome.problems.extend(
            f"final integrity: {p}" for p in integrity_consistency(monitor.state)
        )
        outcome.final_digest = secure_state_digest(monitor.state)
        outcome.final_cycles = monitor.state.cycles
        return outcome

    # -- flip-site enumeration -------------------------------------------

    def _flip_sites(self) -> List[FlipSite]:
        """Every injectable word of the current state, deterministically.

        The tag region's magic word is deliberately absent — it models a
        boot-ROM fuse, not DRAM (see the module docstring).
        """
        state = self.monitor.state
        base = state.memmap.monitor_image.base
        npages = state.memmap.secure_pages
        sites: List[FlipSite] = []

        def add(label: str, address: int, owner: Optional[str]) -> None:
            sites.append(FlipSite(label=label, address=address, owner=owner))

        for enc in self.enclaves:
            if "pagedb" in self.targets:
                for pageno in enc.all_pages:
                    entry = pagedb_entry_addr(base, pageno)
                    add(f"pagedb[{pageno}].type", entry, enc.name)
                    add(f"pagedb[{pageno}].owner", entry + WORDSIZE, enc.name)
            if "itag" in self.targets:
                for pageno in enc.all_pages:
                    replica = itag_replica_addr(base, pageno)
                    add(f"itag.replica[{pageno}].type", replica, enc.name)
                    add(f"itag.replica[{pageno}].owner", replica + WORDSIZE, enc.name)
                    add(
                        f"itag.sum[{pageno}]",
                        itag_entry_sum_addr(base, npages, pageno),
                        enc.name,
                    )
                    add(
                        f"itag.tag[{pageno}]",
                        itag_page_tag_addr(base, npages, pageno),
                        enc.name,
                    )
                    add(
                        f"itag.quarantine[{pageno}]",
                        itag_quarantine_addr(base, npages, pageno),
                        enc.name,
                    )
                add(
                    f"itag.dirty[{enc.as_page}]",
                    itag_dirty_addr(base, npages, enc.as_page),
                    enc.name,
                )
            if "metadata" in self.targets:
                as_base = state.memmap.page_base(enc.as_page)
                for word in range(AS_WORDS_USED):
                    add(f"as[{enc.as_page}]+{word}", as_base + word * WORDSIZE, enc.name)
                th_base = state.memmap.page_base(enc.thread)
                for word in range(TH_WORDS_USED):
                    add(f"thread[{enc.thread}]+{word}", th_base + word * WORDSIZE, enc.name)
                l1_base = state.memmap.page_base(enc.l1)
                for index in (0, l1_index(CODE_VA)):
                    add(f"l1[{enc.l1}][{index}]", l1_base + index * WORDSIZE, enc.name)
                l2_base = state.memmap.page_base(enc.l2)
                for index in (0, l2_index(CODE_VA), l2_index(DATA_VA)):
                    add(f"l2[{enc.l2}][{index}]", l2_base + index * WORDSIZE, enc.name)
            if "data" in self.targets:
                code_base = state.memmap.page_base(enc.code)
                for word in range(len(_program_words()) + 2):
                    add(f"code[{enc.code}]+{word}", code_base + word * WORDSIZE, enc.name)
                data_base = state.memmap.page_base(enc.data)
                for word in (0, 1, 2, 3, 31, 63, WORDS_PER_PAGE - 1):
                    add(f"data[{enc.data}]+{word}", data_base + word * WORDSIZE, enc.name)
        return sites

    # -- the campaign ----------------------------------------------------

    def run(self) -> BitflipReport:
        report = BitflipReport(
            engine=self.engine or "default", seed=self.seed, stride=self.stride
        )
        self.monitor = self._boot()
        self.kernel = kernel = OSKernel(self.monitor)
        victim = self._build_enclave(kernel, "victim")
        bystander = self._build_enclave(kernel, "bystander")
        self.enclaves = (victim, bystander)
        self._step(report, "built", needs_finalise=True)
        for enclave in self.enclaves:
            kernel.finalise(enclave.as_page)
        self._step(report, "finalised", needs_finalise=False)
        for enclave in self.enclaves:
            err, value = kernel.run_to_completion(enclave.thread)
            if err is not KomErr.SUCCESS or value != EXIT_VALUE:
                raise RuntimeError(f"campaign warm-up run failed: ({err!r}, {value:#x})")
        self._step(report, "ran", needs_finalise=False)
        return report

    def _step(self, report: BitflipReport, name: str, needs_finalise: bool) -> None:
        summary = StepSummary(name=name)
        report.steps.append(summary)
        checkpoint = CampaignSnapshot(self.monitor, self.kernel)
        self._sweep(checkpoint, name, (summary, needs_finalise))

    def _golden(self, at: Tuple[StepSummary, bool]):
        """The unflipped continuation every trial must reconverge to."""
        summary, needs_finalise = at
        sites = self._flip_sites()
        summary.sites = len(sites)
        golden = self._continue_lifecycle(needs_finalise, backoff_seed=0)
        name, pre_violations = summary.name, summary.pre_violations
        pre_violations.extend(f"{name}: golden run: {p}" for p in golden.problems)
        if golden.rebuilt or golden.quarantine_errors:
            pre_violations.append(f"{name}: golden run tripped the engine")
        pairs = [(site, bit) for site in sites for bit in range(32)]
        return pairs[:: self.stride], golden

    def _golden_timed_out(self, at: Tuple[StepSummary, bool], violation: str) -> None:
        at[0].pre_violations.append(violation)

    def _record(self, at: Tuple[StepSummary, bool], ordinal: int, pair) -> FlipRecord:
        site, bit = pair
        record = FlipRecord(ordinal=ordinal, site=site.label, bit=bit)
        at[0].flip_records.append(record)
        return record

    def _trial(self, at, golden: _Outcome, pair, record: FlipRecord) -> None:
        summary, needs_finalise = at
        site, bit = pair
        monitor = self.monitor
        monitor.state.flip_bit(site.address, bit)
        # Did the engine's own walk notice?  (Read-only; decides only
        # whether "benign" is an honest classification.)
        detected = bool(integrity.consistency_problems(monitor.state))
        backoff_seed = (site.address << 5) ^ bit
        outcome = self._continue_lifecycle(needs_finalise, backoff_seed)
        where = f"{summary.name}: flip {site.label} bit {bit}"
        violations: List[str] = [f"{where}: {p}" for p in outcome.problems]
        for enclave in self.enclaves:
            result = outcome.results.get(enclave.name)
            if result != (KomErr.SUCCESS, EXIT_VALUE):
                violations.append(
                    f"{where}: {enclave.name} finished with {result!r} "
                    f"— a silent wrong result"
                )
        bad_rebuilds = [n for n in outcome.rebuilt if n != site.owner]
        if bad_rebuilds:
            violations.append(
                f"{where}: corruption of {site.owner}'s word forced a rebuild "
                f"of {bad_rebuilds} — containment failed"
            )
        if outcome.final_digest != golden.final_digest:
            violations.append(
                f"{where}: final secure state differs from the golden run"
            )
        quarantined = bool(
            outcome.quarantine_errors
            or outcome.rebuilt
            or outcome.scrub_quarantined
        )
        if quarantined:
            outcome_label = "quarantined"
        elif detected or outcome.scrub_repaired:
            outcome_label = "repaired"
        else:
            outcome_label = "benign"
        record.outcome = outcome_label
        record.digest = outcome.final_digest
        record.cycles = outcome.final_cycles
        record.violations.extend(violations)


def run_differential(
    *, engines: Tuple[str, ...] = ("fast", "reference"), **kwargs
) -> Tuple:
    """``(*reports, mismatches)``: the campaign (``kwargs``) under each
    engine, compared pairwise."""
    campaigns = [BitflipCampaign(engine=engine, **kwargs) for engine in engines]
    return differential(campaigns, compare_reports)


def compare_reports(
    engines: Sequence[str], reports: Sequence[BitflipReport]
) -> List[str]:
    """Every trial's outcome class, final digest and cycle counter must
    agree — a flip must not surface in one engine's decode cache,
    micro-TLB or block cache and not the others'."""
    return compare_steps(
        engines,
        reports,
        (
            ("sites", "site counts", True),
            ("trial_outcomes", "trial outcome classes", False),
            ("trial_digests", "trial final digests", False),
            ("trial_cycles", "trial cycle counters", False),
        ),
    )
