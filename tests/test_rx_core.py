"""Receiver behavior: alignment, capture checks, LMFC, release, faults.

These tests drive the receiver at character level (no line coding) so
every scenario is constructed exactly; the codec path is covered by the
end-to-end harness tests.  ``TestReceive`` replays a harness run's line
to place one flag exactly.
"""

import dataclasses

import numpy as np
import pytest

from jesd204b_sim.codec8b10b import (CTRL_FLAG, DERR_FLAG, K_A, K_K, K_Q, K_R,
                                     NIT_FLAG, RD_NEG, decode_stream)
from jesd204b_sim.config import POLICY_STRICT, IlasConfig, LinkConfig
from jesd204b_sim.rx_core import _DATA, RxFsm, RxReceiver
from jesd204b_sim.scrambler import ALL_ONES, descramble_octets
from jesd204b_sim.sim_harness import ChannelSpec, Simulation, SysrefSpec
from jesd204b_sim.tx_model import PayloadSpec, TxLink, lane_payload_octets

CFG = LinkConfig(L=2, F=4, K=32, scrambling=1)
IDLE = 0x00
K_PACKED = K_K | CTRL_FLAG


class MiniLink:
    """Character-level transmitter-to-receiver loop with a corruption hook."""

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
            for lane, word in enumerate(self.tx.step(self.sync_seen, boundary)):
                self.tx_chars[lane].extend(word)
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
            out = self.rx.step_packed(rx_words, pulse)
            self.fsm_trace.append(self.rx.fsm)
            if out is not None:
                for lane in range(cfg.L):
                    self.outputs[lane].extend(out[lane])
            self.sync_seen = self.rx.sync_request
        return self.rx

    def payload(self, lane):
        """Lane ``lane``'s output words, descrambled as one segment: the
        words ``step_packed`` returns are buffer octets as received."""
        assert self.rx.resync_count == 0
        octets = np.array(self.outputs[lane], dtype=np.uint8)
        return descramble_octets(ALL_ONES, octets)[1] if self.cfg.scrambling else octets


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
        rx.step_packed([(IDLE,) * 4] * 2, False)
        assert rx.fsm is RxFsm.WAIT_FOR_PHY

    def test_phy_gate_needs_four_ready_cycles(self):
        # The PHY wait is fixed: WAIT_FOR_PHY holds on cycles 1..3 and
        # enters CGS on cycle 4, whatever the input.
        rx = RxReceiver(CFG)
        for cycle in range(4):
            rx.step_packed([(K_PACKED,) * 4] * 2, False)
            assert rx.cycle == cycle and rx.fsm is RxFsm.WAIT_FOR_PHY
        rx.step_packed([(K_PACKED,) * 4] * 2, False)
        assert rx.fsm is RxFsm.CGS and rx.t_cgs_enter == 4
        assert all(l.run == 0 for l in rx.lanes)  # no comma counted yet

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
            got = link.payload(lane)
            exp = lane_payload_octets(pay, 2, lane, 0, got.shape[0])
            assert got.shape[0] > 500 and (got == exp).all()

    @pytest.mark.parametrize("shift", [0, 1, 2, 3])
    def test_rotation_recovers_any_octet_offset(self, shift):
        link = MiniLink(CFG, skews=[shift, 0])
        rx = link.run(600)
        assert rx.lanes[0].rotation == shift
        assert rx.fsm is RxFsm.SYNCED
        pay = link.tx.payload
        got = link.payload(0)
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
            rx.step_packed([(IDLE,) * 4] * 2, False)
        assert rx.fsm is RxFsm.CGS
        return rx

    def test_four_clean_commas_achieve(self):
        rx = self._rx_in_cgs()
        rx.step_packed([(K_PACKED,) * 4] * 2, False)
        assert all(l.rotation is not None for l in rx.lanes)

    def test_interrupted_run_restarts(self):
        rx = self._rx_in_cgs()
        word = (K_PACKED, K_PACKED, IDLE, K_PACKED)  # K,K,D,K
        rx.step_packed([word] * 2, False)
        assert all(l.rotation is None for l in rx.lanes)
        assert all(l.run == 1 for l in rx.lanes)
        # the run carried from position 3 completes on the next clean word
        rx.step_packed([(K_PACKED,) * 4] * 2, False)
        assert all(l.rotation == 3 for l in rx.lanes)

    def test_disparity_error_resets_run(self):
        rx = self._rx_in_cgs()
        bad = K_PACKED | DERR_FLAG
        rx.step_packed([(K_PACKED, K_PACKED, bad, K_PACKED)] * 2, False)
        assert all(l.run == 1 for l in rx.lanes)

    def test_no_sysref_holds_in_cgs(self):
        link = MiniLink(CFG)
        rx = link.run(400, sysref_first=10**9)
        assert rx.fsm is RxFsm.CGS
        assert rx.sync_request


class TestLmfc:
    """The multiframe phase is four octets per cycle since the last
    SYSREF edge, modulo F*K (128 octets, 32 cycles here)."""

    @staticmethod
    def _run(pulses, cycles, word=(IDLE,) * 4):
        """Step a fresh receiver with SYSREF on the cycles in ``pulses``;
        returns it and its (phase, sync request) per cycle."""
        rx = RxReceiver(CFG)
        trace = []
        for t in range(cycles):
            rx.step_packed([word] * 2, t in pulses)
            trace.append((rx.lmfc_phase, rx.sync_request))
        return rx, trace

    def test_boundary_every_multiframe(self):
        _, trace = self._run({0}, 97)
        assert [t for t, (phase, _) in enumerate(trace) if phase == 0] == [0, 32, 64, 96]

    def test_aligned_periodic_sysref_is_quiet(self):
        rx, trace = self._run(set(range(0, 200, 32)), 200)
        assert [phase for phase, _ in trace] == [4 * t % 128 for t in range(200)]
        assert rx.error_counts["sysref_misaligned"] == 0
        assert not [e for e in rx.events if e[2] == "sysref_misaligned"]

    def test_misaligned_sysref_flagged(self):
        rx, _ = self._run({0, 11}, 12)  # cycle 11 arrives at phase 44
        assert [e for e in rx.events if e[2] == "sysref_misaligned"] == [
            (11, None, "sysref_misaligned", "phase=44")]
        assert rx.lmfc_phase == 0  # still realigns

    def test_receiver_reports_the_arrival_phase(self):
        # Locked at cycle 8, an edge at cycle 45 arrives 37 cycles of 4
        # octets later: phase 148 mod 128 = 20.
        rx = RxReceiver(CFG)
        for t in range(50):
            rx.step_packed([(IDLE,) * 4] * 2, t in (8, 45))
        assert [e for e in rx.events if e[2] == "sysref_misaligned"] == [
            (45, None, "sysref_misaligned", "phase=20")]
        assert rx.error_counts["sysref_misaligned"] == 1

    def test_free_runs_unlocked_without_edge(self):
        # The lanes reach CGS, but with no edge there is no boundary to
        # leave it on, although the free-running phase passes 0.
        rx, trace = self._run(set(), 100, (K_PACKED,) * 4)
        assert all(sync for _, sync in trace)
        assert 0 in {phase for phase, _ in trace}
        assert rx.fsm is RxFsm.CGS
        assert all(lane.rotation is not None for lane in rx.lanes)


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

    @staticmethod
    def _at_ilas_pos(pos, corrupt, seen):
        """Hook applying ``corrupt`` to lane 0's octet at alignment-sequence
        position ``pos``, counted from its first /R/; the result's octet
        goes to ``seen["got"]``."""
        def hook(t, ln, k, v):
            if ln != 0:
                return v
            if "p" in seen:
                seen["p"] += 1
            elif v == (K_R | CTRL_FLAG):
                seen["p"] = 0
            if seen.get("p") == pos:
                v = corrupt(v)
                seen["got"] = v & 0xFF
            return v
        return hook

    # Positions for fk = 128 and the corruption placed there, one per kind
    # of check: a control character replaced, a configuration octet after
    # /Q/ flagged, a filler octet turned into a control character.
    @pytest.mark.parametrize("pos,corrupt", [
        (2 * 128, lambda v: v & 0xFF),            # /R/ opening multiframe 2
        (127, lambda v: K_PACKED),                # /A/ closing multiframe 0
        (128 + 1, lambda v: v & 0xFF),            # /Q/ in multiframe 1
        (128 + 2, lambda v: v | CTRL_FLAG),       # first configuration octet
        (128 + 15, lambda v: v | DERR_FLAG),      # last configuration octet
        (3 * 128 + 40, lambda v: v | CTRL_FLAG),  # filler
    ])
    def test_each_rule_position_reports_where(self, pos, corrupt):
        seen = {}
        rx = MiniLink(CFG, corrupt=self._at_ilas_pos(pos, corrupt, seen)).run(400)
        mismatches = [e for e in rx.events if e[2] == "marker_mismatch"]
        mf, p = divmod(pos, 128)
        assert mismatches[0][1:] == (0, "marker_mismatch",
                                     f"mf={mf} pos={p} got=0x{seen['got']:02X}")
        assert rx.resync_count == 1 and rx.fsm is RxFsm.SYNCED

    def test_filler_may_carry_an_error_flag(self):
        # Outside the configuration octets only the control flag is checked.
        hook = self._at_ilas_pos(3 * 128 + 40, lambda v: v | NIT_FLAG, {})
        rx = MiniLink(CFG, corrupt=hook).run(400)
        assert rx.error_counts == {**rx.error_counts, "marker_mismatch": 0,
                                   "not_in_table": 1}
        assert rx.resync_count == 0 and rx.fsm is RxFsm.SYNCED

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


    def test_strict_policy_needs_an_expected_image(self):
        cfg = dataclasses.replace(CFG, ilas_policy=POLICY_STRICT)
        with pytest.raises(ValueError, match="strict"):
            RxReceiver(cfg)


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

    @pytest.mark.parametrize("gap, trips", [(255, True), (256, False)])
    def test_error_window_spans_256_cycles(self, gap, trips):
        # With a threshold of two, two not-in-table characters resync the
        # link only when they fall within one 256-cycle window.
        link = MiniLink(dataclasses.replace(CFG, error_threshold=2))
        link.run(300)
        assert link.rx.released
        start = link.rx.cycle + 5

        def hook(t, ln, k, v):
            return v | NIT_FLAG if ln == 0 and k == 0 and t in (start, start + gap) else v
        link.corrupt = hook
        link.run(gap + 10)
        assert link.rx.error_counts["not_in_table"] == 2
        assert link.rx.resync_count == int(trips)

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
        got = link.payload(0)
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
                rx.step_packed(words, t % 32 == 0)
                if rx.fsm is not prev:
                    assert rx.fsm in legal[prev], (prev, rx.fsm)
                    if rx.fsm is RxFsm.SYNCED:
                        assert all(l.mode == _DATA for l in rx.lanes)
                        assert all(l.rotation is not None for l in rx.lanes)
                    prev = rx.fsm


class TestReceive:
    """``RxReceiver.receive`` steps every cycle whose input, or whose
    octets waiting in a lane's rotation residue, carry a flag."""

    @staticmethod
    def _receive(cfg, image, chars, fast, split=None):
        """Replay ``chars`` in one call, or in two split after cycle
        ``split - 1``; returns the receiver and its output per segment."""
        rx = RxReceiver(cfg, expected_ilas=image)
        parts = [chars] if split is None else [[c[:4 * split] for c in chars],
                                               [c[4 * split:] for c in chars]]
        segments = []
        for part in parts:
            for cycle, outs in rx.receive(part, SysrefSpec(), fast=fast)[2]:
                if cycle >= 0:
                    segments.append((cycle, []))
                segments[-1][1].append(outs)
        return rx, [(cycle, [np.concatenate([o[lane] for o in outs])
                             for lane in range(cfg.L)])
                    for cycle, outs in segments]

    K_LANE = np.full(400, K_PACKED, np.uint16)

    @pytest.mark.parametrize("chars", [
        [K_LANE, np.concatenate([K_LANE, K_LANE])],
        [K_LANE, K_LANE[:396]],
        [K_LANE, K_LANE, K_LANE],
        [K_LANE],
        [K_LANE[:398], K_LANE[:398]],
        [K_LANE.astype(np.int64)] * 2,
    ], ids=["longer-lane", "shorter-lane", "extra-lane", "missing-lane",
            "part-cycle", "int64"])
    def test_malformed_lanes_rejected(self, chars):
        # Accepted, these dropped or ignored characters without an error,
        # or failed in numpy broadcasting.
        with pytest.raises(ValueError, match="uint16 arrays"):
            RxReceiver(CFG).receive(chars, SysrefSpec())

    def test_strided_lanes_read_like_copies(self):
        # A strided view is a uint16 array like any other; the flag scan
        # used to fail on it in numpy's view().
        wide = np.full(800, K_PACKED, np.uint16)
        strided, copied = RxReceiver(CFG), RxReceiver(CFG)
        assert (strided.receive([wide[::2]] * 2, SysrefSpec())
                == copied.receive([wide[:400].copy()] * 2, SysrefSpec()))
        assert strided.events == copied.events and strided.cycle == 99

    @staticmethod
    def _flagged_line():
        """A scrambled link's decoded characters with one flag after
        release: bit 9305 of lane 1 is bit 5 of character 2 of cycle 232."""
        cfg = LinkConfig(L=2, F=4, K=32)
        sim = Simulation(cfg, payload=PayloadSpec(kind="random", seed=5),
                         channel=ChannelSpec(skew=[5, 38], error_positions=[(1, 9305)]),
                         collect_received=True)
        sim.run(600, fast=False)
        chars = [decode_stream(syms, RD_NEG)[0] for syms in sim.received_symbols]
        assert chars[1][4 * 232 + 2] & CTRL_FLAG
        return cfg, sim, chars

    def test_a_flag_in_the_rotation_residue_steps(self):
        # Lane 1's rotation is 2, so the control character the flipped
        # bit decodes to waits in the residue into cycle 233: the fast
        # path must step that cycle, in one call and when a call starts there.
        cfg, sim, chars = self._flagged_line()
        ref, ref_out = self._receive(cfg, sim.tx.ilas_base, chars, fast=False)
        assert ref.error_counts["control_in_data"] == 1
        assert [lane.rotation for lane in ref.lanes] == [1, 2]
        assert [cycle for cycle, _ in ref_out] == [230, 486]
        for split in (None, 233):
            rx, out = self._receive(cfg, sim.tx.ilas_base, chars, True, split)
            assert rx.error_counts == ref.error_counts
            assert rx.events == ref.events
            assert [c for c, _ in out] == [c for c, _ in ref_out]
            for (_, got), (_, want) in zip(out, ref_out):
                assert all((g == w).all() for g, w in zip(got, want))

    def test_step_and_fast_output_is_buffer_octets(self):
        # step_packed words and fast_forward arrays are the buffer octets
        # as received; receive descrambles each segment from the reset state.
        cfg, sim, chars = self._flagged_line()
        rx = RxReceiver(cfg, expected_ilas=sim.tx.ilas_base)
        raw, calls = [], {"step": 0, "fast": 0}
        step, fast = rx.step_packed, rx.fast_forward

        def stepped(words, sysref):
            was_released = rx.released
            word = step(words, sysref)
            if rx.released and not was_released:
                raw.append([[] for _ in range(cfg.L)])
            if word is not None:
                calls["step"] += 1
                for parts, octets in zip(raw[-1], word):
                    parts.append(np.array(octets, np.uint8))
            return word

        def fast_forwarded(lane_chars, n_cycles):
            calls["fast"] += 1
            outs = fast(lane_chars, n_cycles)
            for parts, octets in zip(raw[-1], outs):
                parts.append(octets)
            return outs

        rx.step_packed, rx.fast_forward = stepped, fast_forwarded
        segments = rx.receive(chars, SysrefSpec())[2]
        assert [cycle for cycle, _ in segments] == [230, 486]
        assert calls["step"] > 0 and calls["fast"] > 0
        for (_, outs), lanes in zip(segments, raw):
            for got, parts in zip(outs, lanes):
                want = descramble_octets(ALL_ONES, np.concatenate(parts))[1]
                assert got.shape[0] > 0 and np.array_equal(got, want)
