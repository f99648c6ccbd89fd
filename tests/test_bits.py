"""Unit and property tests for 32-bit word arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.arm import bits

words = st.integers(min_value=0, max_value=0xFFFFFFFF)
shifts = st.integers(min_value=0, max_value=63)


class TestBasics:
    def test_constants(self):
        assert bits.WORD_BITS == 32
        assert bits.WORDSIZE == 4
        assert bits.WORD_MASK == 0xFFFFFFFF

    def test_to_word_truncates(self):
        assert bits.to_word(0x1_0000_0001) == 1
        assert bits.to_word(-1) == 0xFFFFFFFF

    def test_alignment(self):
        assert bits.word_aligned(0)
        assert bits.word_aligned(4)
        assert not bits.word_aligned(2)


class TestArithmetic:
    def test_add_wrap(self):
        assert bits.add_wrap(0xFFFFFFFF, 1) == 0
        assert bits.add_wrap(5, 6) == 11

    def test_sub_wrap(self):
        assert bits.sub_wrap(0, 1) == 0xFFFFFFFF
        assert bits.sub_wrap(10, 3) == 7

    def test_mul_wrap(self):
        assert bits.mul_wrap(0x10000, 0x10000) == 0
        assert bits.mul_wrap(7, 6) == 42

    def test_signed_roundtrip(self):
        assert bits.to_signed(0xFFFFFFFF) == -1
        assert bits.to_signed(0x7FFFFFFF) == 0x7FFFFFFF
        assert bits.to_word(bits.to_signed(0x80000000)) == 0x80000000

    @given(words, words)
    def test_add_matches_modular(self, a, b):
        assert bits.add_wrap(a, b) == (a + b) % (1 << 32)

    @given(words)
    def test_signed_roundtrips(self, a):
        assert bits.to_word(bits.to_signed(a)) == a


class TestShifts:
    def test_lsl(self):
        assert bits.lsl(1, 31) == 0x80000000
        assert bits.lsl(1, 32) == 0
        assert bits.lsl(0xFFFFFFFF, 4) == 0xFFFFFFF0

    def test_lsr(self):
        assert bits.lsr(0x80000000, 31) == 1
        assert bits.lsr(0x80000000, 32) == 0

    def test_asr_sign_extends(self):
        assert bits.asr(0x80000000, 4) == 0xF8000000
        assert bits.asr(0x40000000, 4) == 0x04000000
        assert bits.asr(0x80000000, 40) == 0xFFFFFFFF

    def test_ror(self):
        assert bits.ror(1, 1) == 0x80000000
        assert bits.ror(0x12345678, 0) == 0x12345678
        assert bits.ror(0x12345678, 32) == 0x12345678

    @given(words, shifts)
    def test_ror_roundtrip(self, a, n):
        rotated = bits.ror(a, n)
        assert bits.ror(rotated, 32 - (n % 32)) == a

    @given(words, st.integers(min_value=0, max_value=31))
    def test_lsl_lsr_inverse_on_low_bits(self, a, n):
        masked = a & ((1 << (32 - n)) - 1)
        assert bits.lsr(bits.lsl(masked, n), n) == masked


class TestBitfields:
    def test_get_set_bit(self):
        assert bits.get_bit(0b100, 2) == 1
        assert bits.get_bit(0b100, 1) == 0
        assert bits.set_bit(0, 5, True) == 32
        assert bits.set_bit(32, 5, False) == 0

    def test_get_set_bits(self):
        assert bits.get_bits(0xABCD1234, 15, 0) == 0x1234
        assert bits.get_bits(0xABCD1234, 31, 16) == 0xABCD

    @given(words, st.integers(0, 31), st.integers(0, 31))
    def test_get_bits_within_range(self, a, hi, lo):
        if hi < lo:
            hi, lo = lo, hi
        field = bits.get_bits(a, hi, lo)
        assert 0 <= field < (1 << (hi - lo + 1))

    def test_not_word(self):
        assert bits.not_word(0) == 0xFFFFFFFF
        assert bits.not_word(0xFFFFFFFF) == 0


class TestWordPacking:
    def test_roundtrip(self):
        words_list = [0, 1, 0xDEADBEEF, 0xFFFFFFFF]
        assert bits.bytes_to_words(bits.words_to_bytes(words_list)) == words_list

    def test_big_endian(self):
        assert bits.words_to_bytes([0x01020304]) == b"\x01\x02\x03\x04"

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            bits.bytes_to_words(b"abc")

    @given(st.lists(words, max_size=16))
    def test_roundtrip_property(self, ws):
        assert bits.bytes_to_words(bits.words_to_bytes(ws)) == ws
