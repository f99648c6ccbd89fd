"""32-bit word arithmetic helpers.

Everything in the machine model operates on 32-bit unsigned words.  These
helpers centralise wrapping arithmetic, alignment checks and bitfield
manipulation so the rest of the model never has to reason about Python's
unbounded integers.
"""

from __future__ import annotations

WORD_BITS = 32
WORDSIZE = 4
WORD_MASK = 0xFFFFFFFF
MAX_WORD = WORD_MASK


def to_word(value: int) -> int:
    """Truncate an arbitrary integer to a 32-bit unsigned word."""
    return value & WORD_MASK


def word_aligned(address: int) -> bool:
    """Return True if ``address`` is word (4-byte) aligned."""
    return address % WORDSIZE == 0


def add_wrap(a: int, b: int) -> int:
    """32-bit wrapping addition."""
    return (a + b) & WORD_MASK


def sub_wrap(a: int, b: int) -> int:
    """32-bit wrapping subtraction."""
    return (a - b) & WORD_MASK


def mul_wrap(a: int, b: int) -> int:
    """32-bit wrapping multiplication (low half of the product)."""
    return (a * b) & WORD_MASK


def not_word(a: int) -> int:
    """Bitwise NOT within 32 bits."""
    return (~a) & WORD_MASK


def lsl(value: int, amount: int) -> int:
    """Logical shift left; shifts of 32 or more produce zero."""
    if amount >= WORD_BITS:
        return 0
    return (value << amount) & WORD_MASK


def lsr(value: int, amount: int) -> int:
    """Logical shift right; shifts of 32 or more produce zero."""
    if amount >= WORD_BITS:
        return 0
    return (value & WORD_MASK) >> amount


def asr(value: int, amount: int) -> int:
    """Arithmetic shift right on the 32-bit two's-complement value."""
    signed = to_signed(value)
    if amount >= WORD_BITS:
        amount = WORD_BITS - 1
    return (signed >> amount) & WORD_MASK


def ror(value: int, amount: int) -> int:
    """Rotate right within 32 bits."""
    amount %= WORD_BITS
    if amount == 0:
        return value & WORD_MASK
    value &= WORD_MASK
    return ((value >> amount) | (value << (WORD_BITS - amount))) & WORD_MASK


def to_signed(value: int) -> int:
    """Interpret a 32-bit word as a signed two's-complement integer."""
    value &= WORD_MASK
    if value & 0x80000000:
        return value - (1 << WORD_BITS)
    return value


def get_bit(value: int, bit: int) -> int:
    """Extract a single bit (0 or 1)."""
    return (value >> bit) & 1


def set_bit(value: int, bit: int, on: bool) -> int:
    """Return ``value`` with bit ``bit`` set or cleared."""
    if on:
        return (value | (1 << bit)) & WORD_MASK
    return value & not_word(1 << bit)


def get_bits(value: int, high: int, low: int) -> int:
    """Extract the inclusive bitfield ``value[high:low]``."""
    width = high - low + 1
    return (value >> low) & ((1 << width) - 1)


def words_to_bytes(words: list) -> bytes:
    """Pack a list of 32-bit words into big-endian bytes.

    Big-endian packing matches the byte order the monitor's SHA-256 code
    consumes words in; the choice is internal and consistent everywhere.
    """
    out = bytearray()
    for word in words:
        out += word.to_bytes(4, "big")
    return bytes(out)


def bytes_to_words(data: bytes) -> list:
    """Unpack big-endian bytes (length a multiple of 4) into words."""
    if len(data) % 4 != 0:
        raise ValueError("byte string length must be a multiple of 4")
    return [int.from_bytes(data[i : i + 4], "big") for i in range(0, len(data), 4)]
