"""Adversarial OS strategies.

The threat model (paper section 3.1) grants the attacker full control of
privileged normal-world software: it may issue arbitrary SMC sequences
with arbitrary arguments, inject external interrupts at any point during
enclave execution, and read/write all insecure memory.  This module
packages those capabilities as reusable strategies for the security and
property tests:

* ``fuzz_smcs`` — random SMC call/argument sequences (the monitor must
  never crash, never break PageDB invariants, and never touch memory it
  must not).
* ``probe_secure_memory`` — attempted normal-world loads/stores of
  secure and monitor memory (must fault at the hardware model).
* ``interrupt_storm`` — Enter with interrupts scheduled at adversarially
  chosen points, exercising the context save/restore paths.
* ``targeted_attacks`` — a checklist of historically bug-prone calls,
  including the aliased-pages InitAddrspace and the monitor-address
  MapSecure from section 9.1.
* ``CrossEnclaveAdversary`` — attacks on *composite* pipelines: replay,
  reordering and corruption of the shared channel pages that carry
  cross-enclave traffic, plus hostile core scripts that interleave junk
  SMCs with the pipeline's own monitor calls on a multicore machine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.arm.memory import MemoryFault
from repro.arm.modes import World
from repro.monitor.errors import KomErr
from repro.monitor.komodo import KomodoMonitor
from repro.monitor.layout import SMC


@dataclass
class AttackLog:
    """Record of what an adversarial run attempted and observed."""

    smcs_issued: int = 0
    faults_taken: int = 0
    successes: int = 0
    errors: List[Tuple[int, KomErr]] = field(default_factory=list)


class AdversarialOS:
    """An OS that attacks the monitor instead of cooperating with it."""

    def __init__(self, monitor: KomodoMonitor, seed: int = 1234):
        self.monitor = monitor
        self.random = random.Random(seed)
        self.log = AttackLog()

    # -- raw capability: arbitrary SMCs -----------------------------------

    def _random_arg(self) -> int:
        npages = self.monitor.pagedb.npages
        choices = [
            self.random.randrange(npages),  # plausible page number
            self.random.randrange(npages * 4),  # out-of-range page number
            self.random.getrandbits(32),  # garbage
            0,
            0xFFFFFFFF,
            self.monitor.state.memmap.monitor_image.base,  # monitor memory
            self.monitor.state.memmap.secure.base,  # secure memory
            self.monitor.state.memmap.insecure.base,  # valid insecure page
        ]
        return self.random.choice(choices)

    def fuzz_smcs(self, count: int = 200) -> AttackLog:
        """Issue ``count`` random SMCs with adversarial arguments."""
        callnos = [int(c) for c in SMC] + [0, 99, 0xFFFF]
        for _ in range(count):
            callno = self.random.choice(callnos)
            args = tuple(self._random_arg() for _ in range(4))
            if callno in (SMC.ENTER, SMC.RESUME):
                # Sometimes inject an interrupt mid-execution too.
                if self.random.random() < 0.5:
                    self.monitor.schedule_interrupt(self.random.randrange(64))
            err, _ = self.monitor.smc(callno, *args)
            self.log.smcs_issued += 1
            if err is KomErr.SUCCESS:
                self.log.successes += 1
            else:
                self.log.errors.append((callno, err))
        return self.log

    # -- raw capability: memory probing ----------------------------------------

    def probe_secure_memory(self, samples: int = 32) -> AttackLog:
        """Try to read and write protected memory from normal world."""
        state = self.monitor.state
        targets = []
        for region in (state.memmap.secure, state.memmap.monitor_image, state.memmap.monitor_stack):
            for _ in range(samples):
                offset = self.random.randrange(region.size // 4) * 4
                targets.append(region.base + offset)
        for address in targets:
            try:
                state.memory.checked_read(address, World.NORMAL)
            except MemoryFault:
                self.log.faults_taken += 1
            try:
                state.memory.checked_write(address, 0xDEADBEEF, World.NORMAL)
            except MemoryFault:
                self.log.faults_taken += 1
        return self.log

    # -- targeted attacks on known obligations ---------------------------------------

    def aliased_init_addrspace(self, pageno: int) -> KomErr:
        """InitAddrspace(p, p): the bug the unverified prototype had."""
        err, _ = self.monitor.smc(SMC.INIT_ADDRSPACE, pageno, pageno)
        return err

    def map_secure_from_monitor_memory(self, as_page: int, data_page: int, mapping: int) -> KomErr:
        """MapSecure sourcing 'insecure' contents from the monitor image —
        the validity subtlety of section 9.1."""
        err, _ = self.monitor.smc(
            SMC.MAP_SECURE,
            as_page,
            data_page,
            mapping,
            self.monitor.state.memmap.monitor_image.base,
        )
        return err

    def map_secure_from_secure_memory(self, as_page: int, data_page: int, mapping: int) -> KomErr:
        """MapSecure sourcing contents from another enclave's secure page."""
        err, _ = self.monitor.smc(
            SMC.MAP_SECURE,
            as_page,
            data_page,
            mapping,
            self.monitor.state.memmap.secure.base,
        )
        return err

    def reenter_suspended_thread(self, thread_page: int) -> KomErr:
        """Enter on a suspended thread must fail (ALREADY_ENTERED)."""
        err, _ = self.monitor.smc(SMC.ENTER, thread_page, 0, 0, 0)
        return err

    def remove_running_enclave_page(self, pageno: int) -> KomErr:
        """Remove a non-spare page of a non-stopped enclave must fail."""
        err, _ = self.monitor.smc(SMC.REMOVE, pageno)
        return err

    def interrupt_storm(self, thread_page: int) -> Tuple[KomErr, int, int]:
        """Run a thread, interrupting it 1-15 steps after each entry, for
        up to 50 resumes; then resume it uninterrupted.

        Returns the final (err, value) plus how many interrupts landed.
        """
        interrupts = 0
        self.monitor.schedule_interrupt(self.random.randrange(1, 16))
        err, value = self.monitor.smc(SMC.ENTER, thread_page, 0, 0, 0)
        for _ in range(50):
            if err is not KomErr.INTERRUPTED:
                break
            interrupts += 1
            self.monitor.schedule_interrupt(self.random.randrange(1, 16))
            err, value = self.monitor.smc(SMC.RESUME, thread_page)
        else:
            err, value = self.monitor.smc(SMC.RESUME, thread_page)
        return (err, value, interrupts)


@dataclass
class TamperLog:
    """Record of cross-enclave channel tampering."""

    replays: int = 0
    reorders: int = 0
    corruptions: int = 0
    hostile_smcs: int = 0


class CrossEnclaveAdversary:
    """Privileged-software attacks against composite enclave pipelines.

    The channel pages between pipeline stages are insecure memory, so
    the OS can replay, reorder, or scribble over any queued frame at any
    time, and it can run extra cores issuing arbitrary SMCs interleaved
    with the pipeline's own monitor calls.  None of that may change the
    pipeline's logical outcome: frames are MAC-authenticated (forgery
    requires the link key), sequence numbers are derived from durable
    transaction state (replays deduplicate), and every sender
    retransmits until acknowledged (drops and corruption only delay).

    The edge channels are keyed with the *public* edge key, so a replay
    of a genuine edge frame is also within the adversary's power — the
    stages' txid-monotonic dedup is what keeps effects exactly-once.
    """

    def __init__(self, kernel, seed: int = 0xADE5):
        self.kernel = kernel
        self.random = random.Random(seed)
        self.log = TamperLog()
        #: Raw messages captured off channels, kept for later replay.
        self.captured: List[List[int]] = []

    def _channel(self, base: int):
        from repro.sdk.channel import Channel, HostEndpoint

        return Channel(HostEndpoint(self.kernel, base))

    def _drain_raw(self, base: int) -> List[List[int]]:
        """Dequeue every queued message (the OS is the medium)."""
        from repro.sdk.channel import ChannelError

        ring = self._channel(base)
        messages: List[List[int]] = []
        while True:
            try:
                message = ring.receive()
            except ChannelError:
                ring.reset()
                return messages
            if message is None:
                return messages
            messages.append(message)

    def replay_frames(self, base: int, copies: int = 1) -> int:
        """Duplicate currently-queued frames (at-least-once delivery
        pushed to its limit): every queued message is re-enqueued
        ``copies`` extra times, and remembered for later replay."""
        ring = self._channel(base)
        messages = self._drain_raw(base)
        self.captured.extend(list(m) for m in messages)
        duplicated = 0
        for message in messages:
            ring.send(message)
        for message in messages:
            for _ in range(copies):
                if ring.send(message):
                    duplicated += 1
        self.log.replays += duplicated
        return duplicated

    def replay_captured(self, base: int, count: int = 1) -> int:
        """Re-inject frames captured earlier — possibly frames the
        receiver already consumed and acted on in a past round."""
        if not self.captured:
            return 0
        ring = self._channel(base)
        injected = 0
        for _ in range(count):
            message = self.random.choice(self.captured)
            if ring.send(list(message)):
                injected += 1
        self.log.replays += injected
        return injected

    def reorder_frames(self, base: int) -> int:
        """Shuffle the queued frames (the medium preserves no order)."""
        ring = self._channel(base)
        messages = self._drain_raw(base)
        self.random.shuffle(messages)
        for message in messages:
            ring.send(message)
        if len(messages) > 1:
            self.log.reorders += 1
        return len(messages)

    def corrupt_page(self, base: int, words: int = 4) -> None:
        """Scribble random garbage over the channel page — cursors,
        length headers and payload alike are fair game."""
        from repro.arm.bits import WORDSIZE
        from repro.arm.memory import WORDS_PER_PAGE

        for _ in range(words):
            offset = self.random.randrange(WORDS_PER_PAGE)
            self.kernel.write_insecure(
                base + offset * WORDSIZE, self.random.getrandbits(32)
            )
        self.log.corruptions += 1

    # -- hostile cores ----------------------------------------------------

    def _garbage_pageno(self) -> int:
        npages = self.kernel.monitor.pagedb.npages
        return self.random.choice(
            [
                self.random.randrange(npages, npages * 8),
                self.random.getrandbits(32),
                0xFFFFFFFF,
            ]
        )

    def hostile_core(self, channel_bases: Tuple[int, ...] = (), rounds: int = 60):
        """Script factory for :class:`repro.multicore.MultiCoreMachine`:
        a core that interleaves junk SMCs with the pipeline's traffic
        and periodically tampers with the given channel pages.

        Destructive calls (STOP/REMOVE/FINALISE/ENTER/RESUME) are aimed
        at garbage page numbers only: stopping a pipeline addrspace is
        within the threat model but trivially denies service, and these
        campaigns gate on *completion*, not availability under an OS
        that refuses to schedule the pipeline at all.
        """

        def factory(core_id: int):
            return self._hostile_script(tuple(channel_bases), rounds)

        return factory

    def _hostile_script(self, channel_bases: Tuple[int, ...], rounds: int):
        for _ in range(rounds):
            move = self.random.randrange(8)
            if move == 0:
                yield ("smc", SMC.QUERY)
            elif move == 1:
                yield ("smc", SMC.GET_PHYSPAGES)
            elif move == 2:
                yield ("smc", SMC.ENTER, self._garbage_pageno(), 0, 0, 0)
            elif move == 3:
                yield (
                    "smc",
                    self.random.choice(
                        (SMC.STOP, SMC.REMOVE, SMC.FINALISE, SMC.RESUME)
                    ),
                    self._garbage_pageno(),
                )
            elif move == 4 and channel_bases:
                base = self.random.choice(channel_bases)
                tamper = self.random.randrange(4)
                if tamper == 0:
                    self.replay_frames(base)
                elif tamper == 1:
                    self.replay_captured(base)
                elif tamper == 2:
                    self.reorder_frames(base)
                else:
                    self.corrupt_page(base)
                yield ("yield",)
                continue
            else:
                yield ("yield",)
                continue
            self.log.hostile_smcs += 1
