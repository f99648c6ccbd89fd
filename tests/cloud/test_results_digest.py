"""The serving results digest is pinned, engine by engine.

A fixed 28-request mix (four of each kind, payloads from one seed) is
answered by the template's pure in-process golden.  Responses are data
that do not depend on engine, worker count or scheduling, so the digest
over them is one fixed value on every engine; any drift is a semantic
change to serving, not noise.
"""

import pytest

from repro.arm.cpu import ENGINES
from repro.cloud.api import REQUEST_KINDS, CloudRequest, results_digest
from repro.cloud.chaos import base_payload
from repro.cloud.template import EnclaveTemplate

from tests.cloud.conftest import SPEC

MIX_SEED = 0xBE7C
PER_KIND = 4
PINNED = "6f8290adc5fbcd2f2b2a9572c0b05bedb9232736c9a35da74664b58e58eae055"


def request_mix():
    return [
        CloudRequest(kind=kind, payload=base_payload(kind, MIX_SEED), nonce=nonce)
        for kind in REQUEST_KINDS
        for nonce in range(PER_KIND)
    ]


@pytest.mark.parametrize("engine", ENGINES)
def test_results_digest_is_pinned(engine):
    template = EnclaveTemplate.from_spec({**SPEC, "engine": engine})
    requests = request_mix()
    assert len(requests) == 28
    assert results_digest(template.expected(r) for r in requests) == PINNED
