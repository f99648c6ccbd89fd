"""Typed wire decoding: a malformed dict raises ``BadRequest`` naming the
missing or ill-typed field, never a bare ``KeyError`` or ``TypeError``."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.api import REQUEST_KINDS, BadRequest, CloudRequest, CloudResponse

REQUEST = CloudRequest("seal", (1, 2, 0xFFFFFFFF), tenant="t3", nonce=7)
RESPONSE = CloudResponse(
    kind="seal",
    key=REQUEST.key,
    ok=True,
    words=(0, 5, 0xFFFFFFFF),
    worker=1,
    attempts=2,
    elapsed=0.25,
)

#: A value of the wrong type for each field.
ILL_TYPED = {
    "kind": 5,
    "payload": 5,
    "tenant": None,
    "nonce": "7",
    "key": 3,
    "ok": 1,
    "words": {"a": 1},
    "error_code": 4,
    "error": [],
    "worker": 1.5,
    "attempts": None,
    "degraded": "no",
    "elapsed": "0.25",
}


def decoders():
    return [(CloudRequest, REQUEST), (CloudResponse, RESPONSE)]


@pytest.mark.parametrize("cls, value", decoders())
def test_round_trip(cls, value):
    assert cls.from_wire(value.to_wire()) == value


@pytest.mark.parametrize("cls, value", decoders())
def test_missing_field_is_named(cls, value):
    for name in value.to_wire():
        wire = value.to_wire()
        del wire[name]
        with pytest.raises(BadRequest, match=f"lacks field '{name}'"):
            cls.from_wire(wire)


@pytest.mark.parametrize("cls, value", decoders())
def test_ill_typed_field_is_named(cls, value):
    for name in value.to_wire():
        wire = dict(value.to_wire(), **{name: ILL_TYPED[name]})
        with pytest.raises(BadRequest, match=f"field '{name}' is ill-typed"):
            cls.from_wire(wire)


@pytest.mark.parametrize(
    "cls, value, name, words",
    [
        (CloudRequest, REQUEST, "payload", [1, "2"]),
        (CloudRequest, REQUEST, "payload", [1.0]),
        (CloudResponse, RESPONSE, "words", [1, None]),
        (CloudResponse, RESPONSE, "words", [-1]),
        (CloudResponse, RESPONSE, "words", [1 << 32]),
    ],
)
def test_non_word_is_named(cls, value, name, words):
    with pytest.raises(BadRequest, match=f"field '{name}' holds a non-word"):
        cls.from_wire(dict(value.to_wire(), **{name: words}))


def test_nonce_range_is_checked():
    for nonce in (-1, 1 << 64):
        with pytest.raises(BadRequest, match="'nonce' is out of range"):
            CloudRequest.from_wire(dict(REQUEST.to_wire(), nonce=nonce))


@pytest.mark.parametrize("cls", [CloudRequest, CloudResponse])
@pytest.mark.parametrize("wire", [None, 3, "kind", [("kind", "seal")], b"{}"])
def test_non_dict_wire(cls, wire):
    with pytest.raises(BadRequest, match="not a dict"):
        cls.from_wire(wire)


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False),
    st.text(max_size=6),
    st.sampled_from(REQUEST_KINDS),
)
_values = st.one_of(_scalars, st.lists(_scalars, max_size=4))


def _wires(value):
    """``value``'s wire with some fields dropped or replaced by junk."""
    wire = value.to_wire()
    fields = {name: st.one_of(st.just(good), _values) for name, good in wire.items()}
    return st.fixed_dictionaries({}, optional=fields)


@pytest.mark.parametrize("cls, value", decoders())
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzzed_wire_decodes_or_raises_bad_request(cls, value, data):
    wire = data.draw(st.one_of(_wires(value), _values))
    try:
        decoded = cls.from_wire(wire)
    except BadRequest as exc:
        assert str(exc)
        return
    # Whatever decodes is usable: it digests and re-encodes losslessly.
    if cls is CloudRequest:
        assert decoded.key
    else:
        assert decoded.digest()
    assert cls.from_wire(decoded.to_wire()) == decoded
