"""Channel messages move in runs: same page, same answers, same cycles.

``Channel.send`` writes ``[length] + payload`` as at most two runs split
at the ring wrap, and ``receive`` reads the payload the same way.  The
oracle here is the word-by-word protocol over a test-local endpoint
that has no runs: on identical pages, both must leave identical bytes
and return the same values or raise the same ``ChannelError``, at
every wrap split, on full and empty rings and on hostile cursor and
length words.  On a native enclave an ``EnclaveEndpoint`` run must
charge exactly the cycles of the word loop it replaces.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arm.bits import WORDSIZE
from repro.arm.memory import WORDS_PER_PAGE
from repro.monitor.errors import KomErr
from repro.monitor.komodo import KomodoMonitor
from repro.osmodel.kernel import OSKernel
from repro.sdk.builder import SHARED_VA, EnclaveBuilder
from repro.sdk.channel import (
    _CAPACITY,
    _DATA,
    _HEAD,
    _TAIL,
    Channel,
    ChannelError,
    EnclaveEndpoint,
    HostEndpoint,
)
from repro.sdk.native import NativeEnclaveProgram


class WordEndpoint:
    """One checked normal-world word at a time, and nothing else."""

    def __init__(self, kernel, base):
        self.kernel = kernel
        self.base = base

    def read(self, index):
        assert 0 <= index < WORDS_PER_PAGE
        return self.kernel.read_insecure(self.base + index * WORDSIZE)

    def write(self, index, value):
        assert 0 <= index < WORDS_PER_PAGE
        self.kernel.write_insecure(self.base + index * WORDSIZE, value)


def send_word_by_word(access, message):
    """``Channel.send`` as one word per access (the oracle)."""
    if len(message) >= _CAPACITY - 1:
        raise ChannelError("message larger than the channel")
    head = (access.read(_HEAD) & 0xFFFFFFFF) % _CAPACITY
    tail = (access.read(_TAIL) & 0xFFFFFFFF) % _CAPACITY
    needed = len(message) + 1
    if needed > _CAPACITY - 1 - (tail - head) % _CAPACITY:
        return False
    access.write(_DATA + tail, len(message))
    for i, word in enumerate(message):
        access.write(_DATA + (tail + 1 + i) % _CAPACITY, word & 0xFFFFFFFF)
    access.write(_TAIL, (tail + needed) % _CAPACITY)
    return True


def receive_word_by_word(access):
    """``Channel.receive`` as one word per access (the oracle)."""
    head = (access.read(_HEAD) & 0xFFFFFFFF) % _CAPACITY
    tail = (access.read(_TAIL) & 0xFFFFFFFF) % _CAPACITY
    if head == tail:
        return None
    length = access.read(_DATA + head) & 0xFFFFFFFF
    if length >= _CAPACITY - 1:
        raise ChannelError(f"corrupt message length {length}")
    if length + 1 > (tail - head) % _CAPACITY:
        raise ChannelError("message extends past the tail")
    message = [access.read(_DATA + (head + 1 + i) % _CAPACITY) for i in range(length)]
    access.write(_HEAD, (head + 1 + length) % _CAPACITY)
    return message


class Pair:
    """Two insecure pages with equal contents: a run channel on one,
    the word-by-word oracle on the other."""

    def __init__(self, page):
        kernel = OSKernel(KomodoMonitor(secure_pages=8))
        self.kernel = kernel
        self.bases = (kernel.alloc_insecure_page(), kernel.alloc_insecure_page())
        for base in self.bases:
            for index, word in enumerate(page):
                kernel.write_insecure(base + index * WORDSIZE, word)
        self.channel = Channel(HostEndpoint(kernel, self.bases[0]))
        self.oracle = WordEndpoint(kernel, self.bases[1])

    def page(self, which):
        return self.kernel.read_insecure_words(self.bases[which], WORDS_PER_PAGE)

    def check(self, op, *args):
        """Run ``op`` both ways; the outcomes and pages must agree."""
        oracle = {"send": send_word_by_word, "receive": receive_word_by_word}[op]
        got = outcome(lambda: getattr(self.channel, op)(*args))
        want = outcome(lambda: oracle(self.oracle, *args))
        assert got == want, (op, args)
        assert self.page(0) == self.page(1), (op, args)
        return got


def outcome(action):
    try:
        return ("ok", action())
    except ChannelError as error:
        return ("error", str(error))


def ring(head, tail, fill=0xA5A5A5A5):
    """A page with the given cursor words and data slots set to ``fill``."""
    return [head, tail] + [fill] * _CAPACITY


#: Message lengths whose runs split at every point near the wrap.
LENGTHS = [0, 1, 2, 5, 40]


@pytest.mark.parametrize("length", LENGTHS)
def test_send_splits_at_every_wrap_point(length):
    message = [0x1000 + i for i in range(length)]
    for tail in list(range(_CAPACITY - length - 2, _CAPACITY)) + [0, 1]:
        head = (tail - 3) % _CAPACITY  # three words queued
        pair = Pair(ring(head, tail))
        assert pair.check("send", message) == ("ok", True)


@pytest.mark.parametrize("length", LENGTHS)
def test_receive_splits_at_every_wrap_point(length):
    for head in list(range(_CAPACITY - length - 2, _CAPACITY)) + [0, 1]:
        tail = (head + length + 1) % _CAPACITY
        page = ring(head, tail)
        for i in range(length + 1):
            page[_DATA + (head + i) % _CAPACITY] = length if i == 0 else 0x2000 + i
        pair = Pair(page)
        assert pair.check("receive") == ("ok", [0x2000 + i for i in range(1, length + 1)])


def test_full_and_empty_rings():
    for tail in (0, 7, _CAPACITY - 1):
        full = Pair(ring((tail + 1) % _CAPACITY, tail))
        assert full.check("send", []) == ("ok", False)
        empty = Pair(ring(tail, tail))
        assert empty.check("receive") == ("ok", None)
        assert empty.check("send", [9] * (_CAPACITY - 2)) == ("ok", True)
        assert empty.check("send", []) == ("ok", False)  # now full


@pytest.mark.parametrize("length", [_CAPACITY - 2, _CAPACITY - 1, 0xFFFFFFFF, 4])
def test_hostile_length_words(length):
    """Lengths past the cap or past the tail (four words are queued)."""
    head = _CAPACITY - 2
    pair = Pair(ring(head, (head + 4) % _CAPACITY, fill=length))
    assert pair.check("receive")[0] == "error"


@given(
    st.integers(0, 0xFFFFFFFF),
    st.integers(0, 0xFFFFFFFF),
    st.lists(
        st.tuples(st.integers(0, WORDS_PER_PAGE - 1), st.integers(0, 0xFFFFFFFF)),
        max_size=12,
    ),
    st.lists(st.one_of(st.none(), st.integers(0, 60)), min_size=1, max_size=10),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_hostile_pages_match_word_by_word(head, tail, scribbles, ops, seed):
    """Random cursors (in range or not), random or small slot words,
    scribbles, and a random mix of sends (``int``: a message of that
    length) and receives (``None``)."""
    rng = random.Random(seed)
    bits = rng.choice([32, 3])  # 3: small words, so lengths often pass
    page = [head, tail] + [rng.getrandbits(bits) for _ in range(_CAPACITY)]
    if rng.random() < 0.5:
        page[_HEAD] %= _CAPACITY
        page[_TAIL] %= _CAPACITY
    for index, value in scribbles:
        page[index] = value
    pair = Pair(page)
    for op in ops:
        if op is None:
            pair.check("receive")
        else:
            pair.check("send", [rng.getrandbits(32) for _ in range(op)])


def test_enclave_runs_charge_the_word_loop_cycles():
    """Each run and the word loop it replaces, back to back inside one
    native enclave: the same words and the same cycle charge."""
    monitor = KomodoMonitor(secure_pages=48)
    kernel = OSKernel(monitor)
    state = monitor.state
    charged = []

    def cycles(action):
        start = state.cycles
        result = action()
        charged.append(state.cycles - start)
        return result

    def body(ctx, a, b, c):
        access = EnclaveEndpoint(ctx, SHARED_VA)
        words = [0x3000 + i for i in range(37)]
        cycles(lambda: access.write_run(900, words))
        cycles(lambda: [access.write(100 + i, word) for i, word in enumerate(words)])
        run = cycles(lambda: access.read_run(900, len(words)))
        loop = cycles(lambda: [access.read(100 + i) for i in range(len(words))])
        assert run == loop == words
        channel = Channel(access)
        channel.reset()
        for length in (0, 1, 30):
            assert channel.send(list(range(length)))
            assert channel.receive() == list(range(length))
        return 0
        yield  # a generator, as native programs are

    enclave = (
        EnclaveBuilder(kernel)
        .add_shared_buffer(va=SHARED_VA)
        .set_native_program(NativeEnclaveProgram("runs", body))
        .build()
    )
    assert enclave.call()[0] is KomErr.SUCCESS
    write_run, write_loop, read_run, read_loop = charged
    assert write_run == write_loop > 0
    assert read_run == read_loop > 0
