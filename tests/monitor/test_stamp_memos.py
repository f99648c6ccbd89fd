"""The integrity engine and the campaign audit re-derive only what changed.

Page CRCs, extraction's table decodings, the machine audit's table
scans and turbo's region discovery are memoised on ``(page base, PhysicalMemory.page_stamp)``, and
``check_pagedb``'s all-agree verdict on the PageDB bytes.  These tests
hold the memos to what a full recomputation decides:

* on every engine, a flip into a page the previous SMC verified through
  the memo is still quarantined, or repaired, at the next precheck;
* with ``page_stamp`` patched to ``None`` (every page dirty, so nothing
  is memoised) whole campaigns give the same report digests and the
  same per-SMC ``PrecheckReport``s;
* every memo stays at or under its cap, and tiny caps change nothing;
* served requests answer the same with stamps off.
"""

import dataclasses
import random

import pytest

from repro.arm import blocks
from repro.arm.assembler import Assembler
from repro.arm.bits import WORDSIZE
from repro.arm.memory import PhysicalMemory
from repro.cloud.api import CloudRequest, results_digest
from repro.cloud.chaos import base_payload
from repro.cloud.worker import get_template
from repro.faults import audit
from repro.faults.bitflip import BitflipCampaign
from repro.faults.campaign import LifecycleCampaign
from repro.faults.parallel import report_digest
from repro.monitor import integrity
from repro.monitor.komodo import KomodoMonitor
from repro.monitor.layout import (
    SVC,
    PageType,
    itag_page_tag_addr,
    pagedb_entry_addr,
)
from repro.monitor.pagedb import PageDB
from repro.osmodel.kernel import OSKernel
from repro.sdk.builder import CODE_VA, EnclaveBuilder
from repro.verification import extract

from tests.cloud.conftest import SPEC

ENGINES = ["reference", "fast", "turbo"]


def memos():
    """Every stamp-keyed memo, by name."""
    return {
        "integrity page CRCs": integrity._PAGE_CRCS,
        "extract L1": extract._L1_MEMO,
        "extract L2": extract._L2_MEMO,
        "audit L1 scans": audit._L1_SCANS,
        "audit L2 scans": audit._L2_SCANS,
        "turbo regions": blocks._REGIONS,
    }


def verified_enclave(engine):
    """A built enclave, snapshotted (so its pages carry stamps) and then
    entered once, so that SMC's precheck verified them through the memo."""
    monitor = KomodoMonitor(secure_pages=16, cpu_engine=engine)
    asm = Assembler()
    asm.movw("r0", 0x42)
    asm.svc(SVC.EXIT)
    builder = EnclaveBuilder(OSKernel(monitor)).add_code(asm).add_thread(CODE_VA)
    enclave = builder.build()
    monitor.state.snapshot()
    assert enclave.call()[1] == 0x42
    return monitor, enclave


def memoised_page(monitor, page_type):
    """A page of ``page_type`` whose current CRC sits in the memo."""
    state = monitor.state
    pagedb = PageDB(state)
    for pageno in range(state.memmap.secure_pages):
        if pagedb.page_type(pageno) is not page_type:
            continue
        base = state.memmap.page_base(pageno)
        stamp = state.memory.page_stamp(base)
        if stamp is not None and (base, stamp) in integrity._PAGE_CRCS._entries:
            return pageno
    raise AssertionError(f"no memoised {page_type.name} page")


@pytest.mark.parametrize("engine", ENGINES)
class TestFlipAfterVerifiedSmc:
    @pytest.mark.parametrize("page_type", [PageType.ADDRSPACE, PageType.L1PTABLE])
    def test_flip_in_metadata_page_is_quarantined(self, engine, page_type):
        monitor, _ = verified_enclave(engine)
        pageno = memoised_page(monitor, page_type)
        monitor.state.flip_bit(monitor.state.memmap.page_base(pageno) + 8, 5)
        assert integrity.precheck(monitor).quarantined == [pageno]

    def test_flip_in_entered_data_page_is_quarantined(self, engine):
        monitor, enclave = verified_enclave(engine)
        report = integrity.precheck(monitor, enter_thread=enclave.thread)
        assert report.quarantined == []
        pageno = memoised_page(monitor, PageType.DATA)
        monitor.state.flip_bit(monitor.state.memmap.page_base(pageno), 0)
        report = integrity.precheck(monitor, enter_thread=enclave.thread)
        assert report.quarantined == [pageno]

    def test_flip_in_tag_word_is_quarantined(self, engine):
        monitor, _ = verified_enclave(engine)
        pageno = memoised_page(monitor, PageType.L1PTABLE)
        memmap = monitor.state.memmap
        base, npages = memmap.monitor_image.base, memmap.secure_pages
        monitor.state.flip_bit(itag_page_tag_addr(base, npages, pageno), 31)
        assert integrity.precheck(monitor).quarantined == [pageno]

    def test_flip_in_pagedb_entry_is_repaired(self, engine):
        monitor, enclave = verified_enclave(engine)
        state = monitor.state
        integrity.precheck(monitor)  # the agreeing verdict is now memoised
        entry = pagedb_entry_addr(state.memmap.monitor_image.base, enclave.as_page)
        state.flip_bit(entry + WORDSIZE, 2)  # the owner word
        report = integrity.precheck(monitor)
        assert (report.repaired, report.quarantined) == (1, [])
        assert integrity.check_pagedb(state)[2:] == ([], 0)


def run_recorded(campaign, monkeypatch):
    """Run ``campaign`` and return its report digest plus every
    ``PrecheckReport`` its SMCs produced, in order."""
    reports = []
    real = integrity.precheck

    def recording(mon, enter_thread=None):
        report = real(mon, enter_thread=enter_thread)
        reports.append(dataclasses.astuple(report))
        return report

    with monkeypatch.context() as patch:
        patch.setattr(integrity, "precheck", recording)
        report = campaign.run()
    assert report.ok, report.violations[:5]
    return report_digest(report), reports


CAMPAIGNS = {
    "lifecycle": lambda: LifecycleCampaign(seed=0x5EED, stride=7, engine="turbo"),
    "bitflip": lambda: BitflipCampaign(stride=151, engine="fast"),
}


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_memos_decide_what_full_recomputation_decides(name, monkeypatch):
    with_stamps = run_recorded(CAMPAIGNS[name](), monkeypatch)
    if name == "bitflip":  # the flips exercised repair and quarantine
        reports = with_stamps[1]
        assert any(repaired for repaired, _, _ in reports)
        assert any(quarantined for _, _, quarantined in reports)
    for memo in memos().values():
        assert len(memo) <= memo.cap

    with monkeypatch.context() as patch:
        patch.setattr(PhysicalMemory, "page_stamp", lambda self, address: None)
        assert run_recorded(CAMPAIGNS[name](), monkeypatch) == with_stamps

    with monkeypatch.context() as patch:
        patch.setattr(integrity, "PAGEDB_MEMO_SIZE", 1)
        patch.setattr(integrity, "_AGREEING", {})
        for memo in memos().values():
            patch.setattr(memo, "cap", 2)
            patch.setattr(memo, "_entries", {})
        assert run_recorded(CAMPAIGNS[name](), monkeypatch) == with_stamps
        assert len(integrity._AGREEING) <= 1
        for memo_name, memo in memos().items():
            assert len(memo) <= 2, memo_name


def test_served_requests_answer_the_same_with_stamps_off(monkeypatch):
    """A seeded serve-light mix (attest, sign, checksum, spin) through
    the turbo template: the memoised regions and CRCs give
    the digest that every-page-dirty recomputation gives."""
    rng = random.Random(0x5EED)
    kinds = ["attest", "sign", "checksum", "spin"] * 5
    rng.shuffle(kinds)
    mix = [
        CloudRequest(kind=kind, payload=base_payload(kind, rng.getrandbits(32)), nonce=i)
        for i, kind in enumerate(kinds)
    ]
    template = get_template(SPEC)
    stamped = results_digest(template.execute(r) for r in mix)
    with monkeypatch.context() as patch:
        patch.setattr(PhysicalMemory, "page_stamp", lambda self, address: None)
        unstamped = results_digest(template.execute(r) for r in mix)
    assert stamped == unstamped
    assert stamped == results_digest(template.expected(r) for r in mix)
