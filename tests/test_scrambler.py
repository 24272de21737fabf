"""Scrambler forms against an independent bit-serial oracle.

The oracle below implements the x^14 + x^13 + 1 self-synchronizing
recurrences directly (out[n] = in[n] ^ y[n-13] ^ y[n-14], with y the
transmitted bits) and is written without reference to the library's
internals; every other form must match it bit for bit.
"""

import tracemalloc

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
        zero = np.zeros(1, dtype=np.uint32)
        st, out = sc.scramble_words_batch(zero, zero)
        assert st.tolist() == [0] and out.tolist() == [0]

    def test_matches_serial_oracle_random(self):
        rng = np.random.default_rng(20)
        for _ in range(300):
            state = int(rng.integers(0, 1 << 14))
            octets = [int(x) for x in rng.integers(0, 256, 4)]
            bits = bits_of_octets(octets)
            st_o, out_o = oracle_scramble(state, bits)
            st_w, out_w = sc.scramble_words_batch(
                np.array([state], dtype=np.uint32),
                np.array([int.from_bytes(bytes(octets), "big")], dtype=np.uint32))
            assert out_w.tolist() == [int("".join(map(str, out_o)), 2)]
            assert st_w.tolist() == [st_o]

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
        for batch, oracle in ((sc.descramble_words_batch, oracle_descramble_batch),
                              (sc.scramble_words_batch, oracle_scramble_batch)):
            so, wo = oracle(states, word)
            sl, wl = batch(states, word)
            assert (wl == wo).all() and (sl == so).all()
            # Bits above the 14-bit state are ignored, as by the serial form.
            sl, wl = batch(states | np.uint32(0xFFFF_C000), word)
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

    @pytest.mark.parametrize("n", [1, 3, 4, 64, 4096])
    def test_descramble_matches_serial(self, n):
        rng = np.random.default_rng(100 + n)
        state = int(rng.integers(0, 1 << 14))
        octets = rng.integers(0, 256, n).astype(np.uint8)
        st_b, out_b = sc.descramble_octets(state, octets)
        st_o, bits = oracle_descramble(state, bits_of_octets(octets))
        expected = [int("".join(map(str, bits[i:i + 8])), 2)
                    for i in range(0, 8 * n, 8)]
        assert out_b.tolist() == expected and st_b == st_o
        # Zero state and zero input are a fixed point.
        st_z, out_z = sc.descramble_octets(0, np.zeros(n, np.uint8))
        assert st_z == 0 and not out_z.any()

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

    # Lengths that reach each shape of the delayed XOR on 64-bit words (the
    # extended stream is n + 2 octets, zero-padded to whole words): streams
    # of one word and of one octet past whole words (n + 2 = 8k + 1), bit
    # delays whose low-bits slice is empty or ends at the last word, and
    # whole-word delays that end at the last word (n = 111), lie just past
    # it (103, 110) or more than a word past it (435: 55 words, taps at 52
    # and 56 words).
    @pytest.mark.parametrize("n", [1, 2, 6, 7, 13, 14, 15, 102, 103, 104, 105,
                                   110, 111, 435, 2**16 + 3])
    @pytest.mark.parametrize("bulk, oracle", [
        (sc.scramble_octets, oracle_scramble),
        (sc.descramble_octets, oracle_descramble),
    ], ids=["scramble", "descramble"])
    def test_bulk_matches_serial_at_each_delay_shape(self, bulk, oracle, n):
        rng = np.random.default_rng(200 + n)
        state = int(rng.integers(0, 1 << 14))
        octets = rng.integers(0, 256, n).astype(np.uint8)
        st_b, out_b = bulk(state, octets)
        st_o, bits = oracle(state, bits_of_octets(octets))
        assert out_b.dtype == np.uint8 and out_b.shape == (n,)
        assert st_b == st_o
        assert (np.unpackbits(out_b) == bits).all()

    @pytest.mark.parametrize("bulk", [sc.scramble_octets, sc.descramble_octets],
                             ids=["scramble", "descramble"])
    def test_uneven_chunks_equal_whole(self, bulk):
        rng = np.random.default_rng(32)
        octets = rng.integers(0, 256, 5_000).astype(np.uint8)
        st_whole, whole = bulk(0x2AB7, octets)
        # Octet splits, then splits around whole 64-bit words.
        for sizes in ((1, 7, 13, 999), (6, 8, 9, 64, 65)):
            state, parts, i, k = 0x2AB7, [], 0, 0
            while i < octets.size:
                size = sizes[k % len(sizes)]
                state, part = bulk(state, octets[i:i + size])
                parts.append(part)
                i, k = i + size, k + 1
            assert state == st_whole and (np.concatenate(parts) == whole).all()

    @pytest.mark.parametrize("bulk", [sc.scramble_octets, sc.descramble_octets],
                             ids=["scramble", "descramble"])
    def test_read_only_input_accepted_and_unchanged(self, bulk):
        rng = np.random.default_rng(33)
        octets = rng.integers(0, 256, 1_000).astype(np.uint8)
        frozen = octets.copy()
        frozen.setflags(write=False)
        st, out = bulk(0x1234, frozen)
        assert (frozen == octets).all()
        st_w, out_w = bulk(0x1234, octets)
        assert st == st_w and (out == out_w).all()

    @pytest.mark.parametrize("bulk", [sc.scramble_octets, sc.descramble_octets],
                             ids=["scramble", "descramble"])
    def test_traced_peak_is_a_few_bytes_per_octet(self, bulk):
        # The extended stream, one copy of it and one shifted temporary:
        # 3 bytes per octet.
        octets = np.random.default_rng(34).integers(0, 256, 1 << 18).astype(np.uint8)
        tracemalloc.start()
        try:
            bulk(sc.ALL_ONES, octets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * octets.size + 64 * 1024


class TestArrayInputRange:
    """The array forms reject what they would otherwise wrap or truncate."""

    @pytest.mark.parametrize("call", [
        lambda: sc.scramble_words_batch(np.array([5]), np.array([2**32 + 7])),
        lambda: sc.descramble_words_batch(np.array([5]), np.array([-1])),
        lambda: sc.scramble_words_batch(np.array([5]), np.array([7.0])),
        lambda: sc.descramble_words_batch(np.array([5]), np.array([7.9])),
        lambda: sc.descramble_octets(5, np.array([300, 2])),
        lambda: sc.scramble_octets(5, np.array([-1, 2])),
        lambda: sc.scramble_octets(5, np.array([44.0, 2.0])),
        lambda: sc.scramble_words_batch(np.array([1.5]), np.array([3])),
        lambda: sc.descramble_words_batch(np.array([1.5]), np.array([3])),
    ], ids=["word-above-32-bits", "negative-word", "float-words",
            "float-words-descramble", "octet-above-255", "negative-octet",
            "float-octets", "float-states", "float-states-descramble"])
    def test_out_of_range_or_non_integer_rejected(self, call):
        with pytest.raises(ValueError):
            call()

    @pytest.mark.parametrize("octets", [
        np.zeros((2, 3), np.uint8), np.array(7, np.uint8), 7,
    ], ids=["2-d", "0-d", "int"])
    @pytest.mark.parametrize("bulk", [sc.scramble_octets, sc.descramble_octets],
                             ids=["scramble", "descramble"])
    def test_bulk_forms_reject_non_1d_input(self, bulk, octets):
        with pytest.raises(ValueError, match="octets must be a 1-D array"):
            bulk(5, octets)

    def test_in_range_wide_dtypes_match_narrow(self):
        rng = np.random.default_rng(40)
        octets = rng.integers(0, 256, 64)
        for fn in (sc.scramble_octets, sc.descramble_octets):
            st, out = fn(0x1234, octets)
            st8, out8 = fn(0x1234, octets.astype(np.uint8))
            assert st == st8 and out.dtype == np.uint8 and (out == out8).all()
            st, out = fn(0x1234, [])   # an empty list is float64 to numpy
            assert st == 0x1234 and out.dtype == np.uint8 and out.size == 0
        states = rng.integers(0, 1 << 14, 64)
        words = rng.integers(0, 1 << 32, 64)
        for fn in (sc.scramble_words_batch, sc.descramble_words_batch):
            wide = fn(states, words)
            narrow = fn(states.astype(np.uint32), words.astype(np.uint32))
            assert all(a.dtype == np.uint32 and (a == b).all()
                       for a, b in zip(wide, narrow))
            for empty in ([], np.zeros(0, np.uint32)):
                assert all(a.dtype == np.uint32 and a.size == 0
                           for a in fn(empty, []) + fn([], empty))
