"""8b/10b coding: published values, round trips, disparity, commas."""

import numpy as np
import pytest

from jesd204b_sim.codec8b10b import (CONTROL_OCTETS, CTRL_FLAG, DERR_FLAG,
                                     ENC_FLIP, NIT_FLAG, POP10, RD_NEG, RD_POS,
                                     InvalidControlCode, NoCommaFound,
                                     bit_align, decode_octet, decode_stream,
                                     encode_octet, encode_stream, serialize)

K_CODES = sorted(CONTROL_OCTETS.values())
K28_5 = CTRL_FLAG | 0xBC


def disparity_oracle(sym: int) -> int:
    """Independent per-symbol imbalance: ones minus zeros over 10 bits."""
    ones = bin(sym & 0x3FF).count("1")
    return 2 * ones - 10


class TestPublishedValues:
    """Spot checks against the published 8b/10b code table."""

    @pytest.mark.parametrize("octet,ctrl,rd,expected", [
        (0xBC, True, RD_NEG, 0b0011111010),   # K28.5
        (0xBC, True, RD_POS, 0b1100000101),
        (0x1C, True, RD_NEG, 0b0011110100),   # K28.0
        (0x1C, True, RD_POS, 0b1100001011),
        (0x7C, True, RD_NEG, 0b0011110011),   # K28.3
        (0x9C, True, RD_NEG, 0b0011110010),   # K28.4
        (0xFC, True, RD_NEG, 0b0011111000),   # K28.7
        (0x00, False, RD_NEG, 0b1001110100),  # D0.0
        (0x00, False, RD_POS, 0b0110001011),
    ])
    def test_encode(self, octet, ctrl, rd, expected):
        sym, _ = encode_octet(octet | CTRL_FLAG * ctrl, rd)
        assert sym == expected

    def test_k28_5_decodes_as_control(self):
        assert decode_octet(0b0011111010, RD_NEG) == (K28_5, RD_POS)


class TestRoundTrip:
    def test_exhaustive_all_codes_both_disparities(self):
        # Unflagged, at the encoder's disparity: with the stream test
        # below, why the harness may pass a clean span of data octets
        # straight through when both disparities agree.
        for rd in (RD_NEG, RD_POS):
            for char in [*range(256), *(CTRL_FLAG | k for k in K_CODES)]:
                sym, rd_out = encode_octet(char, rd)
                assert decode_octet(sym, rd) == (char, rd_out)
                assert rd_out == rd ^ int(ENC_FLIP[char])

    @pytest.mark.parametrize("seed", range(4))
    def test_data_streams_come_back_at_the_encoders_disparity(self, seed):
        rng = np.random.default_rng(seed)
        for rd in (RD_NEG, RD_POS):
            chars = rng.integers(0, 256, int(rng.integers(1, 5000)), dtype=np.uint16)
            syms, enc_rd = encode_stream(chars, rd)
            out, dec_rd = decode_stream(syms, rd)
            assert np.array_equal(out, chars)
            assert dec_rd == enc_rd == rd ^ (int(np.count_nonzero(ENC_FLIP[chars])) & 1)

    def test_rd_evolution_matches_symbol_imbalance(self):
        # The encoder's next disparity must equal what the symbol's own
        # bit imbalance dictates: +2 forces positive, -2 negative,
        # balanced keeps the previous value.
        for rd in (RD_NEG, RD_POS):
            for octet in list(range(256)) + K_CODES:
                for is_ctrl in ({False, True} if octet in K_CODES else {False}):
                    sym, rd_out = encode_octet(octet | CTRL_FLAG * is_ctrl, rd)
                    d = disparity_oracle(sym)
                    assert d in (-2, 0, 2)
                    expected = rd if d == 0 else (RD_POS if d > 0 else RD_NEG)
                    assert rd_out == expected

    def test_invalid_control_codes_rejected(self):
        for octet in (0xF7, 0xFB, 0xFD, 0xFE, 0x00, 0x3C, 0x5C, 0xDC):
            with pytest.raises(InvalidControlCode):
                encode_octet(CTRL_FLAG | octet, RD_NEG)
        for char in (NIT_FLAG, 0x41 | DERR_FLAG, K28_5 | NIT_FLAG):   # flagged
            with pytest.raises(InvalidControlCode):
                encode_octet(char, RD_NEG)


class TestDisparityBound:
    def test_random_stream_keeps_running_disparity_bounded(self):
        # Brute-force accumulator oracle over the serialized bits.
        rng = np.random.default_rng(0)
        rd = RD_NEG
        running = -1
        for octet in rng.integers(0, 256, 1000):
            sym, rd = encode_octet(int(octet), rd)
            running += disparity_oracle(sym)
            assert running in (-1, +1)
            assert (running > 0) == (rd == RD_POS)

    def test_dc_balance_over_encoded_sequence(self):
        rng = np.random.default_rng(1)
        chars = rng.integers(0, 256, 4000).astype(np.uint16)
        syms, _ = encode_stream(chars, RD_NEG)
        bits = serialize(syms).astype(np.int64)
        excess = np.cumsum(2 * bits - 1)
        boundary = excess[9::10]
        assert np.abs(boundary).max() <= 2


class TestErrorFlags:
    def test_all_zero_symbol_not_in_table(self):
        # Independent argument: every valid symbol is DC-constrained to
        # 4..6 ones, so the all-zeros pattern can never be in the table.
        assert decode_octet(0, RD_NEG)[0] == NIT_FLAG   # octet 0

    def test_imbalance_bound_implies_not_in_table(self):
        for sym in range(1024):
            if abs(disparity_oracle(sym)) > 2:
                char, _ = decode_octet(sym, RD_NEG)
                assert char & NIT_FLAG, format(sym, "010b")

    def test_wrong_column_sets_disparity_error(self):
        sym_neg, _ = encode_octet(K28_5, RD_NEG)
        assert decode_octet(sym_neg, RD_POS)[0] == K28_5 | DERR_FLAG

    def test_flags_never_raise(self):
        rd = RD_NEG
        for sym in range(1024):
            char, rd = decode_octet(sym, rd)
            assert 0 <= char <= 0x7FF and rd in (RD_NEG, RD_POS)

    # The scalar forms reject what the stream forms reject, instead of
    # masking it into a valid symbol or octet.
    @pytest.mark.parametrize("call,args", [
        (decode_octet, (0x400 | 469, RD_NEG)),     # was data octet 0x41
        (decode_octet, (-1, RD_NEG)),
        (encode_octet, (0x800 | 0x41, RD_NEG)),    # was symbol 469
        (encode_octet, (-0xBF, RD_NEG)),
        (encode_octet, (0x800 | K28_5, RD_NEG)),   # was K28.5
    ], ids=["decode_octet-0x5D5", "decode_octet--1", "encode_octet-0x841",
            "encode_octet--0xBF", "encode_octet-0x9BC"])
    def test_scalar_rejects_out_of_range(self, call, args):
        with pytest.raises(ValueError) as info:
            call(*args)
        assert not isinstance(info.value, InvalidControlCode)


class TestStreamForms:
    def test_stream_matches_scalar(self):
        rng = np.random.default_rng(2)
        chars = rng.integers(0, 256, 3000).astype(np.uint16)
        chars[::71] = K28_5
        syms, rd_enc = encode_stream(chars, RD_NEG)
        rd = RD_NEG
        for i in range(3000):
            s, rd = encode_octet(int(chars[i]), rd)
            assert s == syms[i]
        assert rd == rd_enc

        noisy = syms.copy()
        noisy[::311] ^= 0x041
        got, rd_dec = decode_stream(noisy, RD_NEG)
        rd = RD_NEG
        for i in range(3000):
            char, rd = decode_octet(int(noisy[i]), rd)
            assert char == got[i]
        assert rd == rd_dec

    # The stream forms thread the disparity from either entry value, also
    # through balanced symbols (which leave it unchanged) and on one symbol.
    @pytest.mark.parametrize("rd", [RD_NEG, RD_POS])
    @pytest.mark.parametrize("kind", ["noisy", "all-balanced", "one-symbol"])
    def test_stream_threads_disparity_like_scalar(self, kind, rd):
        rng = np.random.default_rng(6)
        chars = rng.integers(0, 256, 2000).astype(np.uint16)
        chars[::37] = K28_5
        syms, rd_enc = encode_stream(chars, rd)
        want_rd = rd
        for i, c in enumerate(chars.tolist()):
            s, want_rd = encode_octet(c, want_rd)
            assert s == syms[i]
        assert rd_enc == want_rd

        if kind == "noisy":
            syms = syms ^ (rng.random(2000) < 0.05) * rng.integers(1, 1024, 2000)
        elif kind == "all-balanced":
            syms = rng.choice(np.flatnonzero(POP10 == 5), 2000)
        else:
            syms = syms[:1]
        got, rd_dec = decode_stream(syms, rd)
        want_rd = rd
        for i, sym in enumerate(syms.tolist()):
            char, want_rd = decode_octet(sym, want_rd)
            assert char == got[i]
        assert rd_dec == want_rd
        if kind == "all-balanced":
            assert rd_dec == rd

    def test_stream_rejects_bad_control(self):
        with pytest.raises(InvalidControlCode):
            encode_stream(np.array([CTRL_FLAG | 0x55], dtype=np.uint16))

    @pytest.mark.parametrize("char", [CTRL_FLAG | 0x00, NIT_FLAG, 0x41 | DERR_FLAG,
                                      K28_5 | NIT_FLAG])
    def test_stream_rejects_control_outside_k_set_and_flagged(self, char):
        chars = np.full(9, 0x41, dtype=np.uint16)
        chars[5] = char
        with pytest.raises(InvalidControlCode):
            encode_stream(chars)

    # Out-of-range and non-integer input is rejected with a plain
    # ValueError, never wrapped or masked into a valid character.
    @pytest.mark.parametrize("call,values", [
        (encode_stream, [0x10041, -65536 + 0x41]),   # both wrapped to 0x41
        (encode_stream, np.array([0x41, 0x800], dtype=np.uint16)),
        (encode_stream, np.array([0x41, -1], dtype=np.int8)),
        (encode_stream, [0x41, 1.5]),
        (decode_stream, [1024, -1]),
        (decode_stream, [1.5]),
        (bit_align, [0b0011111010] * 150 + [0x400 | 0b0011111010]),  # K28.5 words
        (bit_align, [1.5] * 300),
    ])
    def test_stream_rejects_out_of_range_or_non_integer(self, call, values):
        with pytest.raises(ValueError) as info:
            call(values)
        assert not isinstance(info.value, (InvalidControlCode, NoCommaFound))

    # A running disparity is RD_NEG or RD_POS; anything else is rejected
    # rather than indexing a table row or passing through unchanged.
    @pytest.mark.parametrize("call,args", [
        (encode_octet, (0x41, -1)),                # gave (549, -2)
        (decode_octet, (469, -1)),                 # decoded at RD_POS
        (encode_stream, (np.zeros(0, np.uint16), 7)),   # returned rd=7
        (encode_stream, (np.array([0x41], np.uint16), 2)),
        (decode_stream, (np.zeros(0, np.uint16), 7)),
        (decode_stream, (np.array([469], np.uint16), -1)),
    ], ids=["encode_octet", "decode_octet", "encode_stream-empty", "encode_stream", "decode_stream-empty",
            "decode_stream"])
    def test_rejects_disparity_other_than_neg_or_pos(self, call, args):
        with pytest.raises(ValueError, match="running disparity"):
            call(*args)

    def test_stream_takes_any_integer_dtype_in_range(self):
        chars = np.array([0x41, K28_5, 0x7F, 0x00], dtype=np.uint16)
        syms, rd = encode_stream(chars, RD_NEG)
        for dtype in (np.int16, np.int64, np.uint32):
            assert np.array_equal(encode_stream(chars.astype(dtype))[0], syms)
            assert np.array_equal(decode_stream(syms.astype(dtype))[0], chars)

    def test_every_pair_matches_the_scalar_forms(self):
        # Exhaustive: each (rd, character) encodes as encode_octet does and
        # each (rd, symbol) decodes as decode_octet does, flags included,
        # through one-element streams.
        chars = [*range(256), *(CTRL_FLAG | k for k in K_CODES)]
        assert len(chars) == 261
        for rd in (RD_NEG, RD_POS):
            for c in chars:
                got = encode_stream(np.array([c], dtype=np.uint16), rd)
                assert (int(got[0][0]), got[1]) == encode_octet(c, rd)
            for sym in range(1024):
                got, rd_out = decode_stream(np.array([sym], dtype=np.uint16), rd)
                assert (int(got[0]), rd_out) == decode_octet(sym, rd)


# Comma patterns in transmission order, for the bit-level references.
COMMA_NEG = (0, 0, 1, 1, 1, 1, 1)
COMMA_POS = (1, 1, 0, 0, 0, 0, 0)


def words_of(bits):
    """Consecutive 10-bit groups, first bit in bit 9; tail bits dropped."""
    n = len(bits) // 10
    weights = 1 << np.arange(9, -1, -1)
    return (np.asarray(bits[: 10 * n], dtype=np.int64).reshape(n, 10) @ weights
            ).astype(np.uint16)


def first_comma(bits):
    """Bit-level reference: position of the first comma, or None."""
    line = "".join(str(int(b)) for b in bits)
    hits = [line.find("".join(map(str, p))) for p in (COMMA_NEG, COMMA_POS)]
    return min((h for h in hits if h >= 0), default=None)


class TestSerializeAndAlign:
    def _cgs_bits(self, n=64):
        syms, _ = encode_stream(np.full(n, K28_5, np.uint16), RD_NEG)
        return serialize(syms), syms

    def test_aligned_stream_offset_zero_identity(self):
        bits, syms = self._cgs_bits()
        offset, back = bit_align(words_of(bits))
        assert offset == 0
        assert (back == syms).all()

    def test_shift_by_three(self):
        bits, syms = self._cgs_bits()
        shifted = np.concatenate([np.array([1, 0, 1], np.uint8), bits])
        offset, back = bit_align(words_of(shifted))
        assert offset == 3
        assert (back[: len(syms)] == syms[: len(back)]).all()
        assert len(back) == len(syms) - 1  # the partial last word is dropped

    @pytest.mark.parametrize("shift", range(10))
    def test_all_shifts_recovered(self, shift):
        bits, syms = self._cgs_bits()
        junk = ((np.arange(shift) * 5) % 2).astype(np.uint8)
        offset, back = bit_align(words_of(np.concatenate([junk, bits])))
        assert offset == shift

    def test_comma_after_long_idle_lead_in(self):
        # A skewed lane's capture starts with hundreds of idle symbols
        # before its first comma.
        idle, _ = encode_stream(np.zeros(600, np.uint16), RD_NEG)
        bits, syms = self._cgs_bits()
        offset, back = bit_align(words_of(np.concatenate([np.ones(4, np.uint8),
                                                          serialize(idle), bits])))
        assert offset == 4
        assert (back[600:] == syms[:-1]).all()

    def test_comma_free_data_raises(self):
        # Rejection-sampling oracle: scan candidate data streams with an
        # independent pattern matcher until one provably comma-free
        # stream is found, then assert bit_align refuses it.
        rng = np.random.default_rng(3)
        for _ in range(50):
            chars = rng.integers(0, 256, 200).astype(np.uint16)
            syms, _ = encode_stream(chars, RD_NEG)
            if first_comma(serialize(syms)) is None:
                with pytest.raises(NoCommaFound):
                    bit_align(syms)
                return
        pytest.fail("rejection sampling found no comma-free stream")

    @pytest.mark.parametrize("shift", range(5))
    def test_comma_in_last_word(self, shift):
        # Data, then one /K/: behind ``shift`` junk bits the comma starts
        # at bit ``shift`` of the last word, and past bit 3 it would run
        # beyond that word.
        chars = np.append(np.arange(40, dtype=np.uint16), K28_5)
        syms, _ = encode_stream(chars, RD_NEG)
        bits = np.concatenate([np.zeros(shift, np.uint8), serialize(syms)])
        words = words_of(bits)
        assert first_comma(bits) == 10 * 40 + shift
        if shift > 3:
            with pytest.raises(NoCommaFound):
                bit_align(words)
            return
        offset, back = bit_align(words)
        assert offset == shift
        assert (back == syms[: len(back)]).all()
        assert len(back) == (41 if shift == 0 else 40)

    def test_matches_bit_level_search(self):
        # Property: on random words, the offset is the first comma's bit
        # position mod 10 and the symbols regroup the bits from there.
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(1, 200))
            chars = rng.integers(0, 256, n).astype(np.uint16)
            if rng.random() < 0.7:
                chars[rng.integers(0, n)] = 0xBC
                chars[chars == 0xBC] = K28_5
            syms, _ = encode_stream(chars, int(rng.integers(0, 2)))
            junk = rng.integers(0, 2, int(rng.integers(0, 25))).astype(np.uint8)
            bits = np.concatenate([junk, serialize(syms)])
            covered = bits[: 10 * (len(bits) // 10)]
            p = first_comma(covered)
            if p is None:
                with pytest.raises(NoCommaFound):
                    bit_align(words_of(bits))
                continue
            offset, back = bit_align(words_of(bits))
            assert offset == p % 10
            assert np.array_equal(back, words_of(covered[p % 10:]))


class TestCommaUniqueness:
    def test_comma_only_at_k28_boundaries(self):
        """Brute force over consecutive symbol pairs.

        For every disparity-consistent pair (s1 at rd, s2 at the
        disparity s1 leaves), the 7-bit comma may only appear at a
        symbol boundary belonging to a comma character (K28.5 here).
        K28.7 is excluded as the leading symbol: followed by certain
        codes it forms a false comma across the boundary, which is
        exactly why its use on the wire is restricted to cases this
        link never emits (the transmitter sends no /F/ characters).
        """
        comma_syms = set()
        for rd in (RD_NEG, RD_POS):
            for octet in (0xBC, 0xFC):
                comma_syms.add(encode_octet(CTRL_FLAG | octet, rd)[0])

        def valid_symbols(rd):
            out = []
            for octet in range(256):
                out.append((encode_octet(octet, rd)[0], False))
            for octet in K_CODES:
                out.append((encode_octet(CTRL_FLAG | octet, rd)[0], octet == 0xFC))
            return out

        k28_7 = {encode_octet(CTRL_FLAG | 0xFC, rd)[0] for rd in (0, 1)}
        violations = []
        k287_false_commas = 0
        for rd in (RD_NEG, RD_POS):
            for s1, _ in valid_symbols(rd):
                d = disparity_oracle(s1)
                rd2 = rd if d == 0 else (RD_POS if d > 0 else RD_NEG)
                bits1 = [(s1 >> (9 - i)) & 1 for i in range(10)]
                for s2, _ in valid_symbols(rd2):
                    bits = bits1 + [(s2 >> (9 - i)) & 1 for i in range(10)]
                    for off in range(0, 14):
                        pat = tuple(bits[off:off + 7])
                        if pat not in (COMMA_NEG, COMMA_POS):
                            continue
                        if off == 0 and s1 in comma_syms:
                            continue
                        if off == 10 and s2 in comma_syms:
                            continue
                        if s1 in k28_7:
                            k287_false_commas += 1
                        else:
                            violations.append((rd, s1, s2, off))
        assert not violations, violations[:5]
        # the documented exception actually exists
        assert k287_false_commas > 0
