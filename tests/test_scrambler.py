"""Scrambler forms against an independent bit-serial oracle.

The oracle below implements the x^14 + x^13 + 1 self-synchronizing
recurrences directly (out[n] = in[n] ^ y[n-13] ^ y[n-14], with y the
transmitted bits) and is written without reference to the library's
internals; every other form must match it bit for bit.
"""

import numpy as np
import pytest

from jesd204b_sim import scrambler as sc

MASK = (1 << 14) - 1


def oracle_scramble(state, bits):
    """Serial reference: newest history bit in state bit 0."""
    out = []
    for b in bits:
        o = (b ^ (state >> 12) ^ (state >> 13)) & 1
        state = ((state << 1) | o) & MASK
        out.append(o)
    return state, out


def oracle_descramble(state, bits):
    out = []
    for b in bits:
        out.append((b ^ (state >> 12) ^ (state >> 13)) & 1)
        state = ((state << 1) | (b & 1)) & MASK
    return state, out


def oracle_scramble_batch(states, words32):
    """Vectorized across instances, still strictly bit-serial in time."""
    s = states.astype(np.uint32).copy()
    out = np.zeros_like(words32)
    for j in range(32):
        b = (words32 >> np.uint32(31 - j)) & np.uint32(1)
        o = b ^ ((s >> np.uint32(12)) & 1) ^ ((s >> np.uint32(13)) & 1)
        s = ((s << np.uint32(1)) | o) & np.uint32(MASK)
        out |= o << np.uint32(31 - j)
    return s, out


def oracle_descramble_batch(states, words32):
    s = states.astype(np.uint32).copy()
    out = np.zeros_like(words32)
    for j in range(32):
        b = (words32 >> np.uint32(31 - j)) & np.uint32(1)
        o = b ^ ((s >> np.uint32(12)) & 1) ^ ((s >> np.uint32(13)) & 1)
        s = ((s << np.uint32(1)) | b) & np.uint32(MASK)
        out |= o << np.uint32(31 - j)
    return s, out


def bits_of_octets(octets):
    return [(int(o) >> k) & 1 for o in octets for k in range(7, -1, -1)]


class TestSerialForm:
    def test_zero_fixed_point(self):
        state, out = sc.scramble_bits(0, [0] * 64)
        assert state == 0 and out == [0] * 64
        state, out = sc.descramble_bits(0, [0] * 64)
        assert state == 0 and out == [0] * 64

    def test_impulse_response_taps(self):
        # 1/(x^14+x^13+1) impulse response: GF(2) squaring gives echoes
        # at 13/14, 26/28 (27 cancels), 39/40/41/42, ...
        _, out = sc.scramble_bits(0, [1] + [0] * 49)
        taps = [i for i, b in enumerate(out) if b]
        assert taps == [0, 13, 14, 26, 28, 39, 40, 41, 42]

    def test_matches_oracle_on_random_vectors(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            state = int(rng.integers(0, 1 << 14))
            bits = rng.integers(0, 2, int(rng.integers(1, 200))).tolist()
            assert sc.scramble_bits(state, bits) == oracle_scramble(state, bits)
            assert sc.descramble_bits(state, bits) == oracle_descramble(state, bits)

    def test_descramble_inverts_scramble(self):
        rng = np.random.default_rng(11)
        bits = rng.integers(0, 2, 500).tolist()
        _, scrambled = sc.scramble_bits(sc.ALL_ONES, bits)
        _, back = sc.descramble_bits(sc.ALL_ONES, scrambled)
        assert back == bits

    def test_self_synchronization_after_14_bits(self):
        # Two descramblers with different initial states converge once
        # 14 received bits have flushed the state through.
        rng = np.random.default_rng(12)
        bits = rng.integers(0, 2, 100).tolist()
        _, a = sc.descramble_bits(0x0000, bits)
        _, b = sc.descramble_bits(0x2AB7, bits)
        assert a != b   # initial states do show in the first bits
        assert a[14:] == b[14:]

    def test_descrambler_state_is_last_14_input_bits(self):
        rng = np.random.default_rng(13)
        bits = rng.integers(0, 2, 64).tolist()
        state, _ = sc.descramble_bits(0x1F3, bits)
        expected = 0
        for b in bits[-14:]:
            expected = ((expected << 1) | b) & MASK
        assert state == expected

    def test_error_multiplication_exactly_three_bits(self):
        # One flipped line bit corrupts the recovered stream at exactly
        # the tap positions n, n+13, n+14.
        rng = np.random.default_rng(14)
        bits = rng.integers(0, 2, 120).tolist()
        _, scrambled = sc.scramble_bits(sc.ALL_ONES, bits)
        n = 40
        corrupted = list(scrambled)
        corrupted[n] ^= 1
        _, clean = sc.descramble_bits(sc.ALL_ONES, scrambled)
        _, dirty = sc.descramble_bits(sc.ALL_ONES, corrupted)
        diff = [i for i in range(120) if clean[i] != dirty[i]]
        assert diff == [n, n + 13, n + 14]


class TestWord32Form:
    def test_zero_word_zero_state_fixed_point(self):
        st, out = sc.scramble_word32(0, [0, 0, 0, 0])
        assert st == 0 and out == (0, 0, 0, 0)
        st, out = sc.descramble_word32(0, [0, 0, 0, 0])
        assert st == 0 and out == (0, 0, 0, 0)

    def test_matches_serial_oracle_random(self):
        rng = np.random.default_rng(20)
        for _ in range(300):
            state = int(rng.integers(0, 1 << 14))
            octets = [int(x) for x in rng.integers(0, 256, 4)]
            bits = bits_of_octets(octets)
            st_o, out_o = oracle_scramble(state, bits)
            st_w, out_w = sc.scramble_word32(state, octets)
            assert list(out_w) == [int("".join(map(str, out_o[i:i + 8])), 2)
                                   for i in range(0, 32, 8)]
            assert st_w == st_o
            st_o, out_o = oracle_descramble(state, bits)
            st_w, out_w = sc.descramble_word32(state, octets)
            assert list(out_w) == [int("".join(map(str, out_o[i:i + 8])), 2)
                                   for i in range(0, 32, 8)]
            assert st_w == st_o

    def test_batch_matches_oracle(self):
        rng = np.random.default_rng(21)
        states = rng.integers(0, 1 << 14, 5000).astype(np.uint32)
        words = rng.integers(0, 1 << 32, 5000, dtype=np.uint64).astype(np.uint32)
        so, wo = oracle_descramble_batch(states, words)
        sl, wl = sc.descramble_words_batch(states, words)
        assert (wl == wo).all() and (sl == so).all()
        so, wo = oracle_scramble_batch(states, words)
        sl, wl = sc.scramble_words_batch(states, words)
        assert (wl == wo).all() and (sl == so).all()

    def test_exhaustive_state_sweep_fixed_word(self):
        states = np.arange(1 << 14, dtype=np.uint32)
        word = np.full(1 << 14, 0xA5C3_17F0, dtype=np.uint32)
        so, wo = oracle_descramble_batch(states, word)
        sl, wl = sc.descramble_words_batch(states, word)
        assert (wl == wo).all() and (sl == so).all()


class TestBulkOctetForm:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 16, 17, 255, 4096])
    def test_scramble_matches_serial(self, n):
        rng = np.random.default_rng(n)
        state = int(rng.integers(0, 1 << 14))
        octets = rng.integers(0, 256, n).astype(np.uint8)
        st_b, out_b = sc.scramble_octets(state, octets)
        st_o, bits = oracle_scramble(state, bits_of_octets(octets))
        expected = [int("".join(map(str, bits[i:i + 8])), 2)
                    for i in range(0, 8 * n, 8)]
        assert out_b.tolist() == expected and st_b == st_o

    @pytest.mark.parametrize("n", [1, 3, 64, 4096])
    def test_descramble_matches_serial(self, n):
        rng = np.random.default_rng(100 + n)
        state = int(rng.integers(0, 1 << 14))
        octets = rng.integers(0, 256, n).astype(np.uint8)
        st_b, out_b = sc.descramble_octets(state, octets)
        st_o, bits = oracle_descramble(state, bits_of_octets(octets))
        expected = [int("".join(map(str, bits[i:i + 8])), 2)
                    for i in range(0, 8 * n, 8)]
        assert out_b.tolist() == expected and st_b == st_o

    def test_bulk_roundtrip_large(self):
        rng = np.random.default_rng(30)
        octets = rng.integers(0, 256, 100_000).astype(np.uint8)
        st, scrambled = sc.scramble_octets(sc.ALL_ONES, octets)
        st2, back = sc.descramble_octets(sc.ALL_ONES, scrambled)
        assert (back == octets).all()
        assert st == st2  # same last-14-bits state on both sides

    def test_chunked_equals_whole(self):
        rng = np.random.default_rng(31)
        octets = rng.integers(0, 256, 10_000).astype(np.uint8)
        _, whole = sc.scramble_octets(sc.ALL_ONES, octets)
        state = sc.ALL_ONES
        parts = []
        for i in range(0, 10_000, 999):
            state, part = sc.scramble_octets(state, octets[i:i + 999])
            parts.append(part)
        assert (np.concatenate(parts) == whole).all()
