"""The benchmark's workloads, their inputs, and the result every run returns.

Every input is a pure function of (workload, seed): the program under
test receives only the generated requests or campaign seeds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.cloud.api import CloudRequest
from repro.cloud.chaos import base_payload


@dataclass(frozen=True)
class ServeWorkload:
    """A closed-loop request mix served by a fresh one-worker service.

    Requests come in blocks holding ``per_block`` requests of each kind
    in shuffled order, so every stretch of blocks has the same mix.  The
    service drains at each block's end while the benchmark calibrates
    the host (see ``bench.calibrate``), so a block is also the span over
    which one speed factor applies.  ``trace_ops`` requests are served
    and replayed by a traced run.
    """

    name: str
    kinds: Tuple[str, ...]
    per_block: int
    trace_ops: int

    @property
    def block(self) -> int:
        return self.per_block * len(self.kinds)


#: Enclave work of 0.6-2.5 ms per request: the supervisor and wire
#: path, the integrity precheck, the CPU engine and RSA carry the time.
SERVE_LIGHT = ServeWorkload("serve-light", ("attest", "sign", "checksum", "spin"), 5, 2000)
#: Payload-proportional SHA-256 (seal/unseal of 8-128 words) plus the
#: ~21 ms two-enclave pipeline commit that sets the tail.  One request
#: of each kind per block: a block of 20 ms requests is long enough for
#: the host's speed to change inside it.
SERVE_HEAVY = ServeWorkload("serve-heavy", ("seal", "unseal", "pipeline"), 1, 300)

SERVE_WORKLOADS = {w.name: w for w in (SERVE_LIGHT, SERVE_HEAVY)}
CAMPAIGN = "campaign"
WORKLOAD_NAMES = (SERVE_LIGHT.name, SERVE_HEAVY.name, CAMPAIGN)

#: Payload lengths (words) of seal/unseal requests: ten evenly spaced
#: over 8-128, dealt in shuffled order, a fresh deck after every ten.
HEAVY_WORDS = tuple(8 + 120 * j // 9 for j in range(10))


@dataclass
class Result:
    """One workload run: counts, correctness findings and metric values.

    ``rounds`` keeps each metric's per-round values (the run-to-run
    spread ``compare`` needs); ``samples`` says how many measurements
    each value rests on; ``pins`` holds what ``expected.json`` pins.
    """

    workload: str
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    values: Dict[str, float] = field(default_factory=dict)
    rounds: Dict[str, List[float]] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    pins: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems


def request_blocks(workload: ServeWorkload, seed: int) -> Iterator[List[CloudRequest]]:
    """The workload's endless request stream, block by block.  Each
    request has a distinct nonce, so no two share an idempotency key."""
    rng = random.Random(f"{workload.name}:{seed}")
    deck: List[int] = []
    nonce = 0
    while True:
        kinds = [kind for kind in workload.kinds for _ in range(workload.per_block)]
        rng.shuffle(kinds)
        block = []
        for kind in kinds:
            if kind in ("seal", "unseal"):
                if not deck:
                    deck = list(HEAVY_WORDS)
                    rng.shuffle(deck)
                payload = tuple(rng.getrandbits(32) for _ in range(deck.pop()))
            else:
                payload = base_payload(kind, rng.getrandbits(32))
            block.append(CloudRequest(kind=kind, payload=payload, nonce=nonce))
            nonce += 1
        yield block


def requests(workload: ServeWorkload, seed: int, count: int) -> List[CloudRequest]:
    """The first ``count`` requests of the workload's stream."""
    return list(islice(chain.from_iterable(request_blocks(workload, seed)), count))


def warmup_requests(workload: ServeWorkload) -> List[CloudRequest]:
    """One untimed request per kind, keyed apart from every timed one."""
    return [
        CloudRequest(kind=kind, payload=base_payload(kind, 0), nonce=1 << 32)
        for kind in workload.kinds
    ]


def sample_indices(workload: str, seed: int, round_index: int, count: int) -> List[int]:
    """A seeded 1-in-16 sample of request indices to check against the
    in-process golden."""
    rng = random.Random(f"sample:{workload}:{seed}:{round_index}")
    return [i for i in range(count) if rng.randrange(16) == 0]


def describe(request: CloudRequest, index: int) -> str:
    return f"request #{index} ({request.kind}, nonce {request.nonce}, key {request.key})"


def ms(seconds: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of durations in seconds, in milliseconds."""
    ranked = sorted(seconds)
    return ranked[max(0, math.ceil(fraction * len(ranked)) - 1)] * 1e3
