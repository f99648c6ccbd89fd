"""Hardware RNG model: determinism, forking, distribution sanity."""

from repro.crypto.rng import HardwareRNG


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = HardwareRNG(seed=42)
        b = HardwareRNG(seed=42)
        assert a.read_words(32) == b.read_words(32)

    def test_different_seed_different_stream(self):
        a = HardwareRNG(seed=1)
        b = HardwareRNG(seed=2)
        assert a.read_words(8) != b.read_words(8)

    def test_fork_continues_identically(self):
        a = HardwareRNG(seed=7)
        a.read_words(5)
        b = a.fork()
        assert a.read_words(10) == b.read_words(10)


class TestStreamQuality:
    def test_words_are_32bit(self):
        rng = HardwareRNG(seed=9)
        for word in rng.read_words(64):
            assert 0 <= word <= 0xFFFFFFFF

    def test_no_short_cycles(self):
        rng = HardwareRNG(seed=3)
        words = rng.read_words(256)
        assert len(set(words)) == 256  # collisions in 256 draws ~ impossible

    def test_bit_balance(self):
        """Crude sanity: set-bit fraction near one half."""
        rng = HardwareRNG(seed=5)
        ones = sum(bin(w).count("1") for w in rng.read_words(256))
        fraction = ones / (256 * 32)
        assert 0.45 < fraction < 0.55
