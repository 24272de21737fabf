"""Receiver behavior: alignment, capture checks, LMFC, release, faults.

These tests drive the receiver at character level (no line coding) so
every scenario is constructed exactly; the codec path is covered by the
end-to-end harness tests.
"""

import dataclasses

import numpy as np
import pytest

from jesd204b_sim.codec8b10b import K_A, K_K, K_Q
from jesd204b_sim.config import POLICY_STRICT, IlasConfig, LinkConfig
from jesd204b_sim.rx_core import (CTRL_FLAG, DERR_FLAG, NIT_FLAG, Lmfc,
                                  RxFsm, RxReceiver)
from jesd204b_sim.tx_model import PayloadSpec, TxLink, lane_payload_octets

CFG = LinkConfig(L=2, F=4, K=32, scrambling=1)
IDLE = 0x00
K_PACKED = K_K | CTRL_FLAG


class MiniLink:
    """Char-level transmitter-to-receiver loop with a corruption hook."""

    def __init__(self, cfg, skews=None, base_idle=32, ilas=None, payload=None,
                 rx=None, corrupt=None):
        self.cfg = cfg
        self.tx = TxLink(cfg, ilas, payload or PayloadSpec(kind="random", seed=1))
        self.rx = rx or RxReceiver(cfg, expected_ilas=self.tx.ilas_base)
        self.fills = [base_idle + s for s in (skews or [0] * cfg.L)]
        self.corrupt = corrupt
        self.tx_chars = [[] for _ in range(cfg.L)]
        self.outputs = [[] for _ in range(cfg.L)]
        self.fsm_trace = []
        self.sync_seen = True

    def _received(self, lane, idx):
        fill = self.fills[lane]
        if idx < fill:
            return IDLE
        return self.tx_chars[lane][idx - fill]

    def run(self, cycles, sysref_first=8, period_cycles=None):
        cfg = self.cfg
        period = period_cycles or cfg.fk  # 4 multiframes by default
        mf_cycles = cfg.fk // 4
        for t in range(self.rx.cycle + 1, self.rx.cycle + 1 + cycles):
            boundary = t >= sysref_first and (t - sysref_first) % mf_cycles == 0
            words = self.tx.step(self.sync_seen, boundary)
            for lane, (octs, mask) in enumerate(words):
                self.tx_chars[lane].extend(
                    o | (CTRL_FLAG if (mask >> i) & 1 else 0)
                    for i, o in enumerate(octs))
            pulse = t >= sysref_first and (t - sysref_first) % period == 0
            rx_words = []
            for lane in range(cfg.L):
                word = []
                for k in range(4):
                    v = self._received(lane, 4 * t + k)
                    if self.corrupt:
                        v = self.corrupt(t, lane, k, v)
                    word.append(v)
                rx_words.append(tuple(word))
            out = self.rx.step_packed(rx_words, pulse, True)
            self.fsm_trace.append(self.rx.fsm)
            if out is not None:
                for lane in range(cfg.L):
                    self.outputs[lane].extend(out[lane])
            self.sync_seen = self.rx.sync_request
        return self.rx


class TestResetAndFsm:
    def test_reset_asserts_sync(self):
        rx = RxReceiver(CFG)
        assert rx.sync_request and rx.fsm is RxFsm.RESET

    def test_reset_idempotent_and_deterministic(self):
        a = RxReceiver(CFG)
        b = RxReceiver(CFG)
        a.reset()
        assert a.fsm is b.fsm and a.sync_request == b.sync_request
        assert [l.rotation for l in a.lanes] == [l.rotation for l in b.lanes]

    def test_reset_to_wait_one_cycle_later(self):
        rx = RxReceiver(CFG)
        rx.step_packed([(IDLE,) * 4] * 2, False, True)
        assert rx.fsm is RxFsm.WAIT_FOR_PHY

    def test_phy_gate_needs_four_ready_cycles(self):
        rx = RxReceiver(CFG)
        rx.step_packed([(IDLE,) * 4] * 2, False, True)
        for pattern in (True, True, False, True, True, True):
            rx.step_packed([(IDLE,) * 4] * 2, False, pattern)
            assert rx.fsm is RxFsm.WAIT_FOR_PHY
        rx.step_packed([(IDLE,) * 4] * 2, False, True)
        assert rx.fsm is RxFsm.CGS

    def test_transition_order_and_backward_edge(self):
        link = MiniLink(CFG)
        link.run(400)
        trace = link.fsm_trace
        order = [RxFsm.WAIT_FOR_PHY, RxFsm.CGS, RxFsm.ILAS, RxFsm.SYNCED]
        seen = [trace[0]]
        for s in trace[1:]:
            if s is not seen[-1]:
                seen.append(s)
        assert seen == order


class TestBringUp:
    def test_zero_skew_payload_exact(self):
        pay = PayloadSpec(kind="random", seed=42)
        link = MiniLink(CFG, payload=pay)
        rx = link.run(600)
        assert rx.fsm is RxFsm.SYNCED and rx.resync_count == 0
        for lane in range(2):
            got = np.array(link.outputs[lane], dtype=np.uint8)
            exp = lane_payload_octets(pay, 2, lane, 0, got.shape[0])
            assert got.shape[0] > 500 and (got == exp).all()

    @pytest.mark.parametrize("shift", [0, 1, 2, 3])
    def test_rotation_recovers_any_octet_offset(self, shift):
        link = MiniLink(CFG, skews=[shift, 0])
        rx = link.run(600)
        assert rx.lanes[0].rotation == shift
        assert rx.fsm is RxFsm.SYNCED
        pay = link.tx.payload
        got = np.array(link.outputs[0], dtype=np.uint8)
        assert (got == lane_payload_octets(pay, 2, 0, 0, got.shape[0])).all()

    def test_rx_valid_rises_at_release_offset_phase(self):
        link = MiniLink(CFG)
        rx = link.run(600)
        assert rx.release_lmfc_phase <= CFG.release_offset < rx.release_lmfc_phase + 4

    def test_lanes_release_simultaneously(self):
        link = MiniLink(CFG, skews=[0, 9])
        rx = link.run(600)
        assert len(link.outputs[0]) == len(link.outputs[1]) > 0


class TestCgsRules:
    def _rx_in_cgs(self):
        rx = RxReceiver(CFG)
        for _ in range(6):
            rx.step_packed([(IDLE,) * 4] * 2, False, True)
        assert rx.fsm is RxFsm.CGS
        return rx

    def test_four_clean_commas_achieve(self):
        rx = self._rx_in_cgs()
        rx.step_packed([(K_PACKED,) * 4] * 2, False, True)
        assert all(l.rotation is not None for l in rx.lanes)

    def test_interrupted_run_restarts(self):
        rx = self._rx_in_cgs()
        word = (K_PACKED, K_PACKED, IDLE, K_PACKED)  # K,K,D,K
        rx.step_packed([word] * 2, False, True)
        assert all(l.rotation is None for l in rx.lanes)
        assert all(l.run == 1 for l in rx.lanes)
        # the run carried from position 3 completes on the next clean word
        rx.step_packed([(K_PACKED,) * 4] * 2, False, True)
        assert all(l.rotation == 3 for l in rx.lanes)

    def test_disparity_error_resets_run(self):
        rx = self._rx_in_cgs()
        bad = K_PACKED | DERR_FLAG
        rx.step_packed([(K_PACKED, K_PACKED, bad, K_PACKED)] * 2, False, True)
        assert all(l.run == 1 for l in rx.lanes)

    def test_no_sysref_holds_in_cgs(self):
        link = MiniLink(CFG)
        rx = link.run(400, sysref_first=10**9)
        assert rx.fsm is RxFsm.CGS
        assert rx.sync_request


class TestLmfc:
    def test_boundary_every_multiframe(self):
        lm = Lmfc(128)
        assert lm.step(True)  # lock
        boundaries = [lm.step(False) for _ in range(96)]
        assert [i for i, b in enumerate(boundaries) if b] == [31, 63, 95]

    def test_aligned_periodic_sysref_is_quiet(self):
        lm = Lmfc(128)
        lm.step(True)
        for t in range(1, 200):
            lm.step(t % 32 == 0)
            assert not lm.misaligned

    def test_misaligned_sysref_flagged(self):
        lm = Lmfc(128)
        lm.step(True)
        for _ in range(10):
            lm.step(False)
        lm.step(True)  # arrives at phase 44, not a boundary
        assert lm.misaligned
        assert lm.phase == 0  # still realigns

    def test_free_runs_unlocked_without_edge(self):
        lm = Lmfc(128)
        for _ in range(100):
            assert not lm.step(False)
        assert not lm.locked


class TestIlasCapture:
    def _corrupt_first(self, lane, match, replacement):
        state = {"done": False}

        def hook(t, ln, k, v):
            if not state["done"] and ln == lane and v == match:
                state["done"] = True
                return replacement
            return v
        return hook

    def test_q_replaced_by_data_is_marker_mismatch(self):
        hook = self._corrupt_first(0, K_Q | CTRL_FLAG, 0x99)
        link = MiniLink(CFG, corrupt=hook)
        rx = link.run(400)
        assert rx.error_counts["marker_mismatch"] >= 1
        assert rx.resync_count >= 1

    def test_missing_final_a_is_marker_mismatch(self):
        hook = self._corrupt_first(1, K_A | CTRL_FLAG, 0x05)
        link = MiniLink(CFG, corrupt=hook)
        rx = link.run(400)
        assert rx.error_counts["marker_mismatch"] >= 1

    def test_corrupted_checksum_rejected(self):
        # Flip a configuration octet: the checksum no longer matches, so
        # the lane must reject the sequence even under the minimal policy.
        seen = {"count": 0}

        def hook(t, ln, k, v):
            # 3rd data octet after /Q/ on lane 0 is a config octet (did=0)
            if ln == 0 and seen["count"] == 0 and v == (K_Q | CTRL_FLAG):
                seen["count"] = 1
                return v
            if ln == 0 and 1 <= seen["count"] <= 14:
                seen["count"] += 1
                if seen["count"] == 3:
                    return v ^ 0x40
            return v
        link = MiniLink(CFG, corrupt=hook)
        rx = link.run(400)
        assert rx.error_counts["config_mismatch"] >= 1

    def test_wrong_link_parameters_rejected(self):
        # The transmitted image encodes K=16 while the link runs K=32.
        bad = dataclasses.replace(IlasConfig.from_link_config(CFG), k=15)
        link = MiniLink(CFG, ilas=bad)
        rx = link.run(400)
        assert rx.error_counts["config_mismatch"] >= 1
        assert rx.fsm is not RxFsm.SYNCED or rx.resync_count > 0

    def test_strict_policy_checks_all_fields(self):
        cfg = dataclasses.replace(CFG, ilas_policy=POLICY_STRICT)
        tx_ilas = IlasConfig.from_link_config(cfg, channels=16)
        tx_ilas = dataclasses.replace(tx_ilas, did=5)
        # minimal policy accepts a different device id
        link = MiniLink(cfg_min := CFG, ilas=tx_ilas)
        assert link.run(400).fsm is RxFsm.SYNCED
        # strict policy, expecting did=0, rejects it
        rx = RxReceiver(cfg, expected_ilas=IlasConfig.from_link_config(cfg, channels=16))
        link = MiniLink(cfg, ilas=tx_ilas, rx=rx)
        rx = link.run(400)
        assert rx.error_counts["config_mismatch"] >= 1


class TestFaultPaths:
    def _synced_link(self, **kw):
        link = MiniLink(CFG, **kw)
        link.run(300)
        assert link.rx.fsm is RxFsm.SYNCED and link.rx.released
        return link

    def test_error_burst_reenters_cgs(self):
        link = self._synced_link()
        start = link.rx.cycle + 5
        burst = []

        def hook(t, ln, k, v):
            if ln == 0 and t in range(start, start + 4) and k == 0:
                burst.append(t)
                return v | NIT_FLAG
            return v
        link.corrupt = hook
        link.run(300)
        assert link.rx.resync_count == 1
        assert link.rx.fsm is RxFsm.SYNCED  # recovered

    def test_single_error_counted_without_resync(self):
        link = self._synced_link()
        fired = {}

        def hook(t, ln, k, v):
            if ln == 1 and not fired and k == 2:
                fired["t"] = t
                return v | DERR_FLAG
            return v
        link.corrupt = hook
        valid_before = len(link.outputs[0])
        link.run(200)
        assert link.rx.resync_count == 0
        assert link.rx.error_counts["disparity_error"] == 1
        assert len(link.outputs[0]) > valid_before  # valid output kept running

    def test_comma_in_data_phase_resyncs(self):
        link = self._synced_link()
        fired = {}

        def hook(t, ln, k, v):
            if ln == 0 and not fired:
                fired["t"] = t
                return K_PACKED
            return v
        link.corrupt = hook
        link.run(300)
        assert link.rx.resync_count == 1
        assert link.rx.error_counts["control_in_data"] >= 1

    def test_overflow_on_skew_beyond_capacity(self):
        cfg = dataclasses.replace(CFG, buffer_depth=64)
        link = MiniLink(cfg, skews=[0, 100])
        rx = link.run(500)
        assert rx.error_counts["buffer_overflow"] >= 1
        assert rx.resync_count >= 1
        assert not link.outputs[0]

    def test_release_defers_past_offset_point(self):
        # With an early release offset the lanes come ready after the
        # offset phase has passed; the trigger must wait a whole
        # multiframe rather than fire mid-frame.
        cfg = dataclasses.replace(CFG, release_offset=8)
        link = MiniLink(cfg)
        rx = link.run(500)
        assert rx.released
        assert rx.release_lmfc_phase <= 8 < rx.release_lmfc_phase + 4
        pay = link.tx.payload
        got = np.array(link.outputs[0], dtype=np.uint8)
        assert (got == lane_payload_octets(pay, 2, 0, 0, got.shape[0])).all()


class TestFsmSafety:
    def test_random_streams_never_reach_synced_illegally(self):
        # Fuzz with unconstrained character soup; the FSM must only walk
        # the legal forward path and may never reach SYNCED without every
        # lane passing group sync and sequence validation.
        rng = np.random.default_rng(99)
        legal = {
            RxFsm.RESET: {RxFsm.WAIT_FOR_PHY},
            RxFsm.WAIT_FOR_PHY: {RxFsm.CGS},
            RxFsm.CGS: {RxFsm.ILAS},
            RxFsm.ILAS: {RxFsm.SYNCED, RxFsm.CGS},
            RxFsm.SYNCED: {RxFsm.CGS},
        }
        for trial in range(10):
            rx = RxReceiver(CFG)
            prev = rx.fsm
            for t in range(500):
                words = []
                for _ in range(2):
                    word = tuple(
                        int(rng.integers(0, 256))
                        | (CTRL_FLAG if rng.random() < 0.3 else 0)
                        | (NIT_FLAG if rng.random() < 0.05 else 0)
                        for _ in range(4))
                    words.append(word)
                rx.step_packed(words, t % 32 == 0, True)
                if rx.fsm is not prev:
                    assert rx.fsm in legal[prev], (prev, rx.fsm)
                    if rx.fsm is RxFsm.SYNCED:
                        assert all(l.ilas_ok for l in rx.lanes)
                        assert all(l.rotation is not None for l in rx.lanes)
                    prev = rx.fsm
