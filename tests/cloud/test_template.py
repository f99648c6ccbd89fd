"""EnclaveTemplate: deterministic per-request serving off one snapshot."""

import pytest

from repro.apps.checksum import crc32_words
from repro.apps.notary import NotaryReceipt
from repro.arm.bits import words_to_bytes
from repro.cloud.api import (
    REQUEST_KINDS,
    BadRequest,
    CloudRequest,
    DeadlineExceeded,
)
from repro.cloud import template as template_module
from repro.cloud.template import EnclaveTemplate


def request_for(kind: str) -> CloudRequest:
    payloads = {
        "attest": tuple(range(8)),
        "seal": (0xA1, 0xB2, 0xC3, 0xD4),
        "unseal": (0x11, 0x22, 0x33),
        "sign": tuple(range(12)),
        "checksum": (0xDEADBEEF, 0x12345678, 0x0BADF00D),
        "spin": (64,),
        "pipeline": (0xD0C, 0xD1C, 0xD2C, 0xD3C),
    }
    return CloudRequest(kind=kind, payload=payloads[kind])


class TestExecution:
    @pytest.mark.parametrize("kind", REQUEST_KINDS)
    def test_every_kind_serves_and_repeats_bit_exact(self, template, kind):
        request = request_for(kind)
        first = template.execute(request)
        second = template.execute(request)
        assert first.ok and second.ok
        assert first.words  # every kind returns at least one word
        assert first.digest() == second.digest()

    def test_expected_is_memoised_and_matches_execute(self, template):
        request = request_for("seal")
        golden = template.expected(request)
        assert template.expected(request) is golden  # cached object
        assert template.execute(request).digest() == golden.digest()

    def test_golden_memo_is_a_bounded_lru(self, template, monkeypatch):
        """More distinct keys than ``GOLDEN_CAP``: the memo never grows
        past the bound, keeps the most recently used goldens, and an
        evicted golden is recomputed to the same answer."""
        monkeypatch.setattr(template_module, "GOLDEN_CAP", 4)
        monkeypatch.setattr(template, "_expected", {})
        payload = (0xDEADBEEF, 0x12345678)
        requests = [
            CloudRequest(kind="checksum", payload=payload + (i,), nonce=i)
            for i in range(10)
        ]
        goldens = []
        for request in requests:
            goldens.append(template.expected(request))
            assert len(template._expected) <= 4
            assert template.expected(requests[0]) is not None  # keep 0 hot
        assert requests[0].key in template._expected
        assert requests[1].key not in template._expected
        for request, golden in zip(requests, goldens):
            assert golden.digest() == template.execute(request).digest()
            assert template.expected(request).digest() == golden.digest()
            assert len(template._expected) <= 4

    def test_unseal_roundtrips_the_payload(self, template):
        request = request_for("unseal")
        response = template.execute(request)
        assert response.words == request.payload

    def test_checksum_matches_the_reference_crc(self, template):
        request = request_for("checksum")
        response = template.execute(request)
        assert response.words == (crc32_words(request.payload),)

    def test_sign_yields_a_verifiable_receipt_at_counter_zero(self, template):
        request = request_for("sign")
        response = template.execute(request)
        counter, signature = response.words[0], response.words[1:]
        # Every request runs from the same snapshot: the notary counter
        # never drifts across requests.
        assert counter == 0
        receipt = NotaryReceipt(
            counter=counter, signature=words_to_bytes(list(signature))
        )
        document = words_to_bytes(list(request.payload))
        assert template._notary.verify_receipt(document, receipt)

    def test_no_cross_request_state_leakage(self, template):
        # Two seals with different payloads interleaved: each digest is a
        # function of its own request only.
        a, b = CloudRequest("seal", (1, 2)), CloudRequest("seal", (3, 4))
        first_a = template.execute(a)
        template.execute(b)
        again_a = template.execute(a)
        assert first_a.digest() == again_a.digest()
        assert first_a.digest() != template.execute(b).digest()

    def test_rewind_digest_is_stable_after_traffic(self, template):
        for kind in REQUEST_KINDS:
            template.execute(request_for(kind))
        assert template.rewind_digest() == template.template_digest
        assert template.audit() == []


class TestBudgetsAndValidation:
    def test_spin_exceeding_its_step_budget_is_a_typed_deadline(
        self, tight_template
    ):
        with pytest.raises(DeadlineExceeded):
            tight_template.execute(CloudRequest("spin", (50_000,)))
        # The template recovers: the next request is served normally.
        assert tight_template.execute(request_for("attest")).ok

    def test_generous_budget_serves_the_same_spin(self, template):
        response = template.execute(CloudRequest("spin", (64,)))
        assert response.ok and response.words == (64,)

    @pytest.mark.parametrize(
        "request_",
        [
            CloudRequest("frobnicate", (1,)),
            CloudRequest("attest", (1, 2, 3)),  # needs exactly 8 words
            CloudRequest("spin", (1, 2)),  # needs exactly 1 word
            CloudRequest("seal", ()),  # needs a payload
            CloudRequest("seal", tuple(range(300))),  # oversized
        ],
    )
    def test_malformed_requests_are_typed_bad_requests(self, template, request_):
        with pytest.raises(BadRequest):
            template.execute(request_)

    def test_count_ops_is_positive_and_stable(self, template):
        request = request_for("seal")
        ops = template.count_ops(request)
        assert ops > 0
        assert template.count_ops(request) == ops
        # Discovery does not perturb subsequent serving.
        assert template.execute(request).ok


class TestEngineParity:
    def test_reference_engine_agrees_bit_for_bit(self, template):
        reference = EnclaveTemplate(engine="reference")
        assert reference.template_digest == template.template_digest
        for kind in REQUEST_KINDS:
            request = request_for(kind)
            assert (
                reference.expected(request).digest()
                == template.expected(request).digest()
            ), kind
