"""Builders for the two composite multi-enclave pipelines.

A pipeline is a set of stage enclaves plus the insecure channel pages
wiring them together.  Channel pages are ordinary OS-allocated insecure
pages mapped into *both* endpoint enclaves (``EnclaveBuilder
.add_shared_buffer(base=...)``) — the paper's enclave-to-enclave
communication pattern.  The OS keeps host endpoints on the requester
edges (ingress/egress) and, being the owner of every channel page, can
also tamper with the stage-to-stage links — which the transactional
layer and the adversary tests treat as the norm, not the exception.

``CounterNotaryPipeline``: a notary whose monotonic counter lives in a
separate sealed-counter enclave.  Each notarisation is a two-enclave
commit (reserve -> sign -> confirm) driven by the notary's durable saga
phase, with abort compensation that burns rather than reuses counter
values.

``AttestSignSealPipeline``: a three-stage attest -> sign -> seal relay
chain with per-hop acknowledgements.

Both expose *logical* state readers used by the chaos campaign: the
active shadow slot of each stage, read with harness privilege directly
from secure memory.  Trials are compared on logical state, not raw
page contents — the inactive shadow slot legitimately differs between a
trial that crashed mid-commit and one that did not.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.arm.bits import WORDSIZE, bytes_to_words
from repro.crypto.sha256 import sha256
from repro.monitor.layout import Mapping
from repro.osmodel.kernel import OSKernel
from repro.pipeline import stages as st
from repro.pipeline.txchannel import PUBLIC_EDGE_KEY, TxChannel
from repro.sdk.builder import EnclaveBuilder, EnclaveHandle
from repro.sdk.channel import Channel, HostEndpoint


def derive_link_key(label: str) -> List[int]:
    """A deterministic 8-word link key for a named stage-to-stage link.

    Build-time provisioning into both measured state pages stands in
    for an attested key exchange (see ``repro.pipeline.txchannel``).
    """
    return bytes_to_words(sha256(b"pipe-link:" + label.encode()))[:8]


def _host_tx(kernel: OSKernel, base: int, key: Sequence[int]) -> TxChannel:
    return TxChannel(Channel(HostEndpoint(kernel, base)), key)


class PipelineStage:
    """One built stage: its enclave handle plus slot-reading metadata."""

    def __init__(
        self,
        name: str,
        handle: EnclaveHandle,
        active_w: int,
        slot0_w: int,
        slot1_w: int,
        slot_words: int,
    ):
        self.name = name
        self.handle = handle
        self._active_w = active_w
        self._slot0_w = slot0_w
        self._slot1_w = slot1_w
        self._slot_words = slot_words

    def _read_state_word(self, word_index: int) -> int:
        monitor = self.handle.monitor
        page = self.handle.data_pages[st.STATE_VA]
        base = monitor.pagedb.page_base(page)
        return monitor.state.memory.read_word(base + word_index * WORDSIZE)

    def active_slot(self) -> List[int]:
        """The stage's committed transaction state (harness privilege)."""
        active = self._read_state_word(self._active_w) & 1
        slot_w = self._slot1_w if active else self._slot0_w
        return [
            self._read_state_word(slot_w + i) for i in range(self._slot_words)
        ]


class Pipeline:
    """Common shape: named stages, host-side ingress/egress, channels."""

    name = "pipeline"

    def __init__(self, kernel: OSKernel):
        self.kernel = kernel
        self.stages: List[PipelineStage] = []
        #: name -> insecure base address of every channel page, so the
        #: adversary (and tests) can tamper with any link.
        self.channels: Dict[str, int] = {}
        self.ingress: TxChannel
        self.egress: TxChannel

    def _alloc_channel(self, name: str) -> int:
        base = self.kernel.alloc_insecure_page()
        self.channels[name] = base
        return base

    def stage(self, name: str) -> PipelineStage:
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(name)

    def links_idle(self) -> bool:
        """True when no stage-to-stage link holds an undelivered frame,
        judged from the ring cursors the OS can read."""
        return not any(
            Channel(HostEndpoint(self.kernel, base)).pending()
            for name, base in self.channels.items()
            if name not in ("ingress", "egress")
        )

    def logical_state(self) -> Dict[str, List[int]]:
        return {stage.name: stage.active_slot() for stage in self.stages}

    def teardown(self) -> None:
        for stage in self.stages:
            stage.handle.teardown()


def _build_stage(
    kernel: OSKernel,
    name: str,
    program,
    state_contents: Sequence[int],
    channel_map: Sequence[Tuple[int, int]],
    slot_geometry: Tuple[int, int, int, int],
) -> PipelineStage:
    """Build one stage enclave: a measured state page, its channel
    pages mapped at the stage's fixed channel VAs, a native program."""
    builder = EnclaveBuilder(kernel)
    builder.add_data(contents=list(state_contents), va=st.STATE_VA, writable=True)
    for index, base in channel_map:
        builder.add_shared_buffer(va=st.channel_va(index), writable=True, base=base)
    builder.set_native_program(program)
    handle = builder.build()
    return PipelineStage(name, handle, *slot_geometry)


class CounterNotaryPipeline(Pipeline):
    """Pipeline 1: notary + sealed-counter, a two-enclave commit."""

    name = "counter-notary"
    #: MSG_REQ payload: 4 words of document digest.
    request_words = st.NOTARY_DOC_WORDS

    def __init__(self, kernel: OSKernel):
        super().__init__(kernel)
        link_key = derive_link_key("notary-counter")
        ingress = self._alloc_channel("ingress")
        egress = self._alloc_channel("egress")
        link_req = self._alloc_channel("link-req")  # notary -> counter
        link_rep = self._alloc_channel("link-rep")  # counter -> notary
        self.stages.append(
            _build_stage(
                kernel,
                "notary",
                st.notary_program(),
                st.notary_state_contents(link_key),
                [
                    (st.NOTARY_CH_INGRESS, ingress),
                    (st.NOTARY_CH_EGRESS, egress),
                    (st.NOTARY_CH_LINK_OUT, link_req),
                    (st.NOTARY_CH_LINK_IN, link_rep),
                ],
                (st.N_ACTIVE_W, st.N_SLOT0_W, st.N_SLOT1_W, st.N_SLOT_WORDS),
            )
        )
        self.stages.append(
            _build_stage(
                kernel,
                "counter",
                st.counter_program(),
                st.counter_state_contents(link_key),
                [
                    (st.COUNTER_CH_IN, link_req),
                    (st.COUNTER_CH_OUT, link_rep),
                ],
                (st.C_ACTIVE_W, st.C_SLOT0_W, st.C_SLOT1_W, st.C_SLOT_WORDS),
            )
        )
        self.ingress = _host_tx(kernel, ingress, PUBLIC_EDGE_KEY)
        self.egress = _host_tx(kernel, egress, PUBLIC_EDGE_KEY)

    def check_invariants(self) -> List[str]:
        """Cross-enclave consistency, checked after every chaos trial."""
        problems: List[str] = []
        notary = self.stage("notary").active_slot()
        counter = self.stage("counter").active_slot()
        if notary[st.NS_PHASE] == st.N_DONE:
            # A completed notarisation must be backed by a confirmed
            # reservation of the same value for the same transaction
            # (unless the counter has already moved to a newer one).
            if counter[st.CS_TXID] == notary[st.NS_TXID]:
                if counter[st.CS_PHASE] != st.PH_CONFIRMED:
                    problems.append(
                        "notary DONE but counter phase is "
                        f"{counter[st.CS_PHASE]} for txid {notary[st.NS_TXID]}"
                    )
                elif counter[st.CS_VALUE] != notary[st.NS_VALUE]:
                    problems.append(
                        f"value split-brain: notary {notary[st.NS_VALUE]} "
                        f"vs counter {counter[st.CS_VALUE]}"
                    )
            elif counter[st.CS_TXID] < notary[st.NS_TXID]:
                problems.append(
                    "notary DONE for a txid the counter never reached"
                )
        if counter[st.CS_NEXT] <= counter[st.CS_VALUE] and counter[st.CS_TXID]:
            problems.append("counter next value does not dominate issued value")
        return problems


class AttestSignSealPipeline(Pipeline):
    """Pipeline 2: attest -> sign -> seal relay chain."""

    name = "attest-sign-seal"
    #: MSG_REQ payload: 8 words of document digest.
    request_words = st.RELAY_REQ_WORDS

    def __init__(self, kernel: OSKernel):
        super().__init__(kernel)
        key_ab = derive_link_key("attest-sign")
        key_bc = derive_link_key("sign-seal")
        ingress = self._alloc_channel("ingress")
        link_ab = self._alloc_channel("link-ab")
        ack_ba = self._alloc_channel("ack-ba")
        link_bc = self._alloc_channel("link-bc")
        ack_cb = self._alloc_channel("ack-cb")
        egress = self._alloc_channel("egress")
        geometry = (st.RS_ACTIVE_W, st.RS_SLOT0_W, st.RS_SLOT1_W, st.RS_SLOT_WORDS)
        self.stages.append(
            _build_stage(
                kernel,
                "attest",
                st.relay_program("pipe-attest"),
                st.relay_state_contents(
                    st.CFG_DOWNSTREAM_ACKS, st.XFORM_ATTEST,
                    PUBLIC_EDGE_KEY, key_ab,
                ),
                [
                    (st.RELAY_CH_IN, ingress),
                    (st.RELAY_CH_OUT, link_ab),
                    (st.RELAY_CH_ACK_IN, ack_ba),
                ],
                geometry,
            )
        )
        self.stages.append(
            _build_stage(
                kernel,
                "sign",
                st.relay_program("pipe-sign"),
                st.relay_state_contents(
                    st.CFG_ACK_UPSTREAM | st.CFG_DOWNSTREAM_ACKS,
                    st.XFORM_SIGN, key_ab, key_bc,
                ),
                [
                    (st.RELAY_CH_IN, link_ab),
                    (st.RELAY_CH_ACK_OUT, ack_ba),
                    (st.RELAY_CH_OUT, link_bc),
                    (st.RELAY_CH_ACK_IN, ack_cb),
                ],
                geometry,
            )
        )
        self.stages.append(
            _build_stage(
                kernel,
                "seal",
                st.relay_program("pipe-seal"),
                st.relay_state_contents(
                    st.CFG_ACK_UPSTREAM, st.XFORM_SEAL,
                    key_bc, PUBLIC_EDGE_KEY,
                ),
                [
                    (st.RELAY_CH_IN, link_bc),
                    (st.RELAY_CH_ACK_OUT, ack_cb),
                    (st.RELAY_CH_OUT, egress),
                ],
                geometry,
            )
        )
        self.ingress = _host_tx(kernel, ingress, PUBLIC_EDGE_KEY)
        self.egress = _host_tx(kernel, egress, PUBLIC_EDGE_KEY)

    def check_invariants(self) -> List[str]:
        """Monotone progress: a stage never runs ahead of its upstream."""
        problems: List[str] = []
        slots = [stage.active_slot() for stage in self.stages]
        for up, down, name in zip(slots, slots[1:], ("sign", "seal")):
            if down[st.SL_TXID] > up[st.SL_TXID]:
                problems.append(
                    f"stage {name} is at txid {down[st.SL_TXID]} ahead of "
                    f"its upstream at {up[st.SL_TXID]}"
                )
        return problems


PIPELINE_KINDS = {
    CounterNotaryPipeline.name: CounterNotaryPipeline,
    AttestSignSealPipeline.name: AttestSignSealPipeline,
}


def build_pipeline(kind: str, kernel: OSKernel) -> Pipeline:
    try:
        factory = PIPELINE_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown pipeline {kind!r}; expected one of {sorted(PIPELINE_KINDS)}"
        ) from None
    return factory(kernel)
