"""Transmitter: CGS emission, alignment-sequence layout, payload, scrambling."""

import dataclasses

import numpy as np
import pytest

from jesd204b_sim import scrambler
from jesd204b_sim.codec8b10b import CTRL_FLAG, K_A, K_K, K_Q, K_R
from jesd204b_sim.config import IlasConfig, LinkConfig
from jesd204b_sim.tx_model import (_PAYLOAD_BLOCK, PAYLOAD_KINDS, PayloadSpec,
                                   TxLink, build_ilas, lane_payload_octets,
                                   payload_samples)

CFG = LinkConfig(L=2, F=4, K=32, scrambling=1)


def run_tx(tx, cycles, sync, boundary_every=32, start=0):
    """Step the transmitter; returns per-lane lists of packed characters."""
    out = [[] for _ in range(tx.cfg.L)]
    for t in range(start, start + cycles):
        for lane, word in enumerate(tx.step(sync, t % boundary_every == 0)):
            out[lane].extend(word)
    return out


class TestCgsPhase:
    def test_sync_asserted_emits_commas(self):
        tx = TxLink(CFG)
        streams = run_tx(tx, 10, sync=True)
        for chars in streams:
            assert chars == [CTRL_FLAG | K_K] * 40

    def test_ilas_starts_only_at_boundary(self):
        tx = TxLink(CFG)
        tx.step(True, True)
        for off in range(1, 5):   # boundary is at t % 32 == 0
            words = tx.step(False, False)
            assert all(w == (CTRL_FLAG | K_K,) * 4 for w in words)
        words = tx.step(False, True)
        assert words[0][0] == CTRL_FLAG | K_R  # first alignment word begins /R/


class TestIlasLayout:
    def test_length_and_markers(self):
        base = IlasConfig.from_link_config(CFG, channels=16)
        lanes = build_ilas(CFG, base)
        fk = CFG.fk
        for chars in lanes:
            assert chars.shape[0] == 4 * fk and chars.dtype == np.uint16
            for mf in range(4):
                assert chars[mf * fk] == CTRL_FLAG | K_R
                assert chars[mf * fk + fk - 1] == CTRL_FLAG | K_A
            assert chars[fk + 1] == CTRL_FLAG | K_Q

    def test_config_octets_at_second_multiframe(self):
        base = IlasConfig.from_link_config(CFG, channels=16)
        lanes = build_ilas(CFG, base)
        fk = CFG.fk
        for lane, chars in enumerate(lanes):
            expected = dataclasses.replace(base, lid=base.lid + lane).pack()
            got = bytes(chars[fk + 2: fk + 16].tolist())   # data: no flag bits
            assert got == expected

    def test_lanes_differ_only_in_lid_and_checksum(self):
        lanes = build_ilas(CFG, IlasConfig.from_link_config(CFG))
        a, b = lanes
        diff = np.flatnonzero(a != b)
        fk = CFG.fk
        assert set(diff.tolist()) == {fk + 2 + 2, fk + 2 + 13}  # lid, fchk octets

    def test_filler_is_position_ramp(self):
        chars = build_ilas(CFG, IlasConfig.from_link_config(CFG))[0]
        filler = chars < CTRL_FLAG
        fk = CFG.fk
        filler[fk + 2: fk + 16] = False  # config octets are not ramp
        pos = np.flatnonzero(filler)
        assert (chars[pos] == (pos % 256)).all()


class TestDataPhase:
    def _to_data(self, tx):
        tx.step(True, True)             # CGS
        tx.step(False, True)            # first alignment word
        for _ in range(4 * tx.cfg.fk // 4 - 1):
            tx.step(False, False)
        assert tx.phase == "DATA"

    def test_ilas_occupies_exactly_four_multiframes(self):
        tx = TxLink(CFG)
        tx.step(True, True)
        words = [tx.step(False, t == 0) for t in range(4 * CFG.fk // 4 + 1)]
        lane0 = [c for w in words for c in w[0]]
        assert lane0[0] == CTRL_FLAG | K_R
        assert tx.phase == "DATA"
        assert len(lane0) == 4 * CFG.fk + 4  # alignment + first data word

    def test_scrambled_output_descrambles_to_payload(self):
        # Recover the payload with the serial descrambler oracle.
        pay = PayloadSpec(kind="random", seed=9, channels=4)
        tx = TxLink(CFG, payload=pay)
        self._to_data(tx)
        streams = run_tx(tx, 100, sync=False)
        for lane, chars in enumerate(streams):
            assert max(chars) < CTRL_FLAG
            bits = np.unpackbits(np.array(chars, dtype=np.uint8)).tolist()
            _, plain = scrambler.descramble_bits(scrambler.ALL_ONES, bits)
            expected = lane_payload_octets(pay, CFG.L, lane, 0, 400)
            assert np.packbits(plain).tolist() == expected.tolist()

    def test_unscrambled_output_is_payload(self):
        cfg = LinkConfig(L=2, F=4, K=32, scrambling=0)
        pay = PayloadSpec(kind="ramp", seed=0, channels=2)
        tx = TxLink(cfg, payload=pay)
        self._to_data(tx)
        streams = run_tx(tx, 50, sync=False)
        for lane, chars in enumerate(streams):
            assert chars == lane_payload_octets(pay, 2, lane, 0, 200).tolist()

    def test_bulk_data_equals_stepping(self):
        pay = PayloadSpec(kind="random", seed=5, channels=8)
        tx1 = TxLink(CFG, payload=pay)
        tx2 = TxLink(CFG, payload=pay)
        self._to_data(tx1)
        self._to_data(tx2)
        stepped = run_tx(tx1, 64, sync=False)
        bulk = tx2.bulk_data(64)
        for lane in range(CFG.L):
            assert stepped[lane] == bulk[lane].tolist()
        assert tx1.scr_states == tx2.scr_states
        assert tx1.lane_octets_sent == tx2.lane_octets_sent

    def test_resync_restarts_cgs_and_scrambler(self):
        tx = TxLink(CFG)
        self._to_data(tx)
        run_tx(tx, 10, sync=False)
        words = tx.step(True, False)
        assert tx.phase == "CGS"
        assert all(w == (CTRL_FLAG | K_K,) * 4 for w in words)


class TestTimeline:
    def test_data_segments_record_lane_octet_and_cycle(self):
        tx = TxLink(CFG)
        tx.emit(10, True, None)           # cycles 0..9: CGS
        tx.emit(20, False, 5)             # CGS to cycle 14, ILAS from cycle 15
        tx.emit(200, False, None)         # four multiframes: data from cycle 143
        ilas_cycles = 4 * CFG.fk // 4
        assert tx.data_segments == [(0, 15 + ilas_cycles)]
        assert tx.cycle == 230 and tx.lane_octets_sent == 4 * (230 - 143)
        state = tx.snapshot()
        tx.emit(5, True, None)            # resync: CGS on cycles 230..234
        tx.emit(140, False, 0)            # ILAS from cycle 235, data from 363
        assert tx.data_segments == [(0, 143), (348, 363)]
        tx.restore(state)
        assert tx.data_segments == [(0, 143)] and tx.cycle == 230

    def test_payload_window_is_the_generators_output(self):
        pay = PayloadSpec(kind="random", seed=11, channels=4)
        tx = TxLink(CFG, payload=pay)

        def window():
            start, kept = tx.payload_window
            for lane, octets in enumerate(kept):
                assert np.array_equal(octets, lane_payload_octets(
                    pay, CFG.L, lane, start, octets.shape[0]))
            return start, kept[0].shape[0]

        tx.emit(10, True, None)
        tx.emit(200, False, 5)            # data from cycle 143
        assert window() == (0, 4 * (210 - 143))
        tx.emit(50, False, None)
        assert window() == (268, 200)
        state = tx.snapshot()
        tx.emit(30, False, None)
        assert window() == (468, 120)
        tx.restore(state)
        assert window() == (468, 120)     # still the generator's octets
        tx.emit(7, False, None)
        assert window() == (468, 28)


class TestDeterminism:
    def test_reset_reproduces_state(self):
        tx = TxLink(CFG, payload=PayloadSpec(kind="random", seed=123))
        a = run_tx(tx, 40, sync=True)
        tx.reset()
        b = run_tx(tx, 40, sync=True)
        assert a == b

    def test_same_seed_same_first_data_word(self):
        pay = PayloadSpec(kind="random", seed=77)
        w1 = lane_payload_octets(pay, 2, 0, 0, 4)
        w2 = lane_payload_octets(pay, 2, 0, 0, 4)
        assert (w1 == w2).all()
        w3 = lane_payload_octets(PayloadSpec(kind="random", seed=78), 2, 0, 0, 4)
        assert (w1 != w3).any()


class TestPayloadGenerators:
    def test_ramp(self):
        pay = PayloadSpec(kind="ramp", channels=4, step=3)
        idx = np.arange(16)
        vals = payload_samples(pay, idx)
        assert (vals == (idx // 4) * 3).all()

    @pytest.mark.parametrize("dc_offset,peak,trough", [
        (0, 20000, -20000), (20000, 32767, 0), (-20000, 0, -32768)],
        ids=["offset0", "offset+20000", "offset-20000"])
    def test_sine_quantization(self, dc_offset, peak, trough):
        # An offset of +-20000 pushes 5 of the 16 samples past one int16
        # limit, which they saturate at.
        pay = PayloadSpec(kind="sine", channels=1, amplitude=20000, period=16,
                          dc_offset=dc_offset)
        vals = payload_samples(pay, np.arange(16)).view(np.int16)
        expected = np.clip(np.rint(dc_offset + 20000 * np.sin(2 * np.pi * np.arange(16) / 16)),
                           -32768, 32767).astype(np.int16)
        assert (vals == expected).all()
        assert vals[4] == peak and vals[12] == trough
        assert (vals == 32767).sum() == (5 if dc_offset > 0 else 0)
        assert (vals == -32768).sum() == (5 if dc_offset < 0 else 0)

    def test_lane_interleave_octet_pairwise(self):
        # sample j goes to lane j mod L, big end first
        pay = PayloadSpec(kind="ramp", channels=1, step=1)
        lane0 = lane_payload_octets(pay, 2, 0, 0, 8)
        lane1 = lane_payload_octets(pay, 2, 1, 0, 8)
        # lane0 carries samples 0,2,4,6; lane1 carries 1,3,5,7
        assert lane0.tolist() == [0, 0, 0, 2, 0, 4, 0, 6]
        assert lane1.tolist() == [0, 1, 0, 3, 0, 5, 0, 7]

    # Odd starts and counts, and spans that cross the generator's block.
    @pytest.mark.parametrize("kind", PAYLOAD_KINDS)
    @pytest.mark.parametrize("start,count", [
        (0, 0), (5, 0), (7, 1), (3, 6), (1, 2 * _PAYLOAD_BLOCK + 5),
        (2 * _PAYLOAD_BLOCK - 3, 10), (4 * _PAYLOAD_BLOCK, 2 * _PAYLOAD_BLOCK)])
    def test_lane_octets_match_samples_octet_by_octet(self, kind, start, count):
        pay = PayloadSpec(kind=kind, seed=9, channels=3, step=7, channel_offset=1000)
        lanes, lane = 3, 2
        m = np.arange(start, start + count)    # one sample per octet
        sample = payload_samples(pay, lanes * (m // 2) + lane)
        want = np.where(m % 2 == 0, sample >> 8, sample & 0xFF)
        got = lane_payload_octets(pay, lanes, lane, start, count)
        assert got.dtype == np.uint8 and np.array_equal(got, want)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            PayloadSpec(kind="chirp")


@pytest.mark.parametrize("call,exc,message", [
    (lambda: PayloadSpec(kind="sine", period=1), ValueError,
     "sine period must be >= 2 samples"),
    (lambda: TxLink(CFG).bulk_data(1), RuntimeError,
     "bulk_data is only valid in the data phase"),
], ids=["sine-period", "bulk-data-outside-data-phase"])
def test_rejections_named(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert type(info.value) is exc and str(info.value) == message
