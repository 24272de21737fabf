"""Receiver: per-lane datapath, shared link state machine, LMFC and release.

The receiver is stepped once per link clock.  Each step ingests four
decoded characters per lane and advances, in order: the SYSREF-locked
multiframe counter, the link state machine
(RESET -> WAIT_FOR_PHY -> CGS -> ILAS -> SYNCED, with the single
backward edge to CGS on fault), the per-lane datapaths (octet rotation,
alignment-sequence capture, descrambling, elastic buffering) and finally
the centralized buffer release that starts all lanes' output on the same
cycle at a fixed multiframe phase.

Per-lane octet rotation anchors on the first clean /K/ comma of the run
that completes group synchronization; because the transmitter emits
word-aligned commas, that position equals the lane's skew modulo the
4-octet word, and the subsequent /R/ then lands on an aligned word
boundary.  The rotation stays latched until a fault clears it.

Decode errors are flags on the incoming characters, never exceptions.
They reset the comma run during CGS and feed a sliding-window error
counter afterwards; crossing the configured threshold, seeing a control
character in the data phase, or overflowing an elastic buffer re-enters
CGS with the sync request asserted.

For flag-free stretches of a released link :meth:`RxReceiver.fast_forward`
consumes packed character arrays in one vectorized pass, leaving the
receiver exactly as repeated :meth:`~RxReceiver.step_packed` calls would
(the test suite asserts the equivalence).
"""

from __future__ import annotations

import dataclasses
from collections import deque
from enum import Enum
from typing import Sequence

import numpy as np

from . import scrambler
from .codec8b10b import K_A, K_K, K_Q, K_R
from .config import (ERROR_WINDOW_CYCLES, ILAS_CONFIG_LEN, ILAS_MULTIFRAMES,
                     OCTETS_PER_CYCLE, POLICY_STRICT, IlasConfig, LinkConfig,
                     validate_config)


class RxFsm(Enum):
    RESET = "RESET"
    WAIT_FOR_PHY = "WAIT_FOR_PHY"
    CGS = "CGS"
    ILAS = "ILAS"
    SYNCED = "SYNCED"


_PHY_READY_RUN = 4  # consecutive ready cycles before leaving WAIT_FOR_PHY

# Lane datapath modes while the link FSM is in ILAS/SYNCED.
_IDLE = 0
_WAIT_R = 1
_CAPTURE = 2
_DATA = 3

# Packed-character layout: octet in bits 7:0, flags above.
CTRL_FLAG = 1 << 8
NIT_FLAG = 1 << 9
DERR_FLAG = 1 << 10
_CTRL = CTRL_FLAG
_NIT = NIT_FLAG
_DERR = DERR_FLAG
_FLAGS = _NIT | _DERR


class Lmfc:
    """Octet counter of period F*K, phase-locked to SYSREF edges."""

    def __init__(self, fk: int):
        self.fk = fk
        self.phase = 0
        self.locked = False
        self.misaligned = False
        self._prev = False

    def step(self, sysref: bool) -> bool:
        """Advance one cycle; returns True on a multiframe boundary."""
        edge = sysref and not self._prev
        self._prev = sysref
        if edge:
            if self.locked and (self.phase + OCTETS_PER_CYCLE) % self.fk != 0:
                self.misaligned = True
            self.phase = 0
            self.locked = True
            return True
        self.phase = (self.phase + OCTETS_PER_CYCLE) % self.fk
        return self.locked and self.phase == 0


class LaneState:
    """Mutable per-lane datapath state."""

    __slots__ = (
        "idx", "rotation", "rot_candidate", "run", "pend", "rot_dropped",
        "mode", "aligned_count", "mf_count", "mf_pos", "cfg_octets",
        "markers_ok", "ilas_ok", "dsc_state", "buffer",
    )

    def __init__(self, idx: int):
        self.idx = idx
        self.clear()

    def clear(self) -> None:
        self.rotation: int | None = None
        self.rot_candidate: int | None = None
        self.run = 0
        self.pend: deque[int] = deque()
        self.rot_dropped = False
        self.mode = _IDLE
        self.aligned_count = 0
        self.mf_count = 0
        self.mf_pos = 0
        self.cfg_octets: list[int] = []
        self.markers_ok = True
        self.ilas_ok = False
        self.dsc_state = scrambler.ALL_ONES
        self.buffer: deque[int] = deque()

    @property
    def ready(self) -> bool:
        """Eligible for release: sequence validated and data in the buffer."""
        return self.ilas_ok and len(self.buffer) >= OCTETS_PER_CYCLE


_K_CLEAN = K_K | _CTRL
_R_CLEAN = K_R | _CTRL


class RxReceiver:
    """One link's receiver.  See the module docstring for the model."""

    def __init__(self, cfg: LinkConfig, expected_ilas: IlasConfig | None = None):
        validate_config(cfg)
        self.cfg = cfg
        self.expected_ilas = expected_ilas
        self.reset()

    def reset(self) -> None:
        cfg = self.cfg
        self.cycle = -1
        self.fsm = RxFsm.RESET
        self.sync_request = True
        self.lmfc = Lmfc(cfg.fk)
        self.lanes = [LaneState(i) for i in range(cfg.L)]
        self._phy_run = 0
        self._stability = 0
        self._err_cycles: deque[int] = deque()
        self.released = False
        self.resync_count = 0
        self.events: list[tuple[int, int | None, str, str]] = []
        self.error_counts: dict[str, int] = {
            "not_in_table": 0, "disparity_error": 0, "control_in_data": 0,
            "marker_mismatch": 0, "config_mismatch": 0, "buffer_overflow": 0,
            "buffer_underflow": 0, "sysref_misaligned": 0,
        }
        # measurement points (cycle numbers; -1 = not reached)
        self.t_cgs_enter = -1
        self.t_sync_deassert = -1
        self.t_synced = -1
        self.t_release = -1
        self.release_lmfc_phase = -1

    # -- public stepping ----------------------------------------------------

    def step_packed(self, words: Sequence[tuple[int, int, int, int]],
                    sysref: bool = False, phy_ready: bool = True
                    ) -> tuple[tuple[int, int, int, int], ...] | None:
        """Advance one cycle on packed characters (octet | flags << 8).

        Returns one output word of four octets per lane while the
        buffers are released, otherwise None.
        """
        self.cycle += 1
        cycle = self.cycle
        boundary = self.lmfc.step(sysref)
        if self.lmfc.misaligned:
            self.lmfc.misaligned = False
            self.error_counts["sysref_misaligned"] += 1
            self._event(None, "sysref_misaligned", f"phase={self.lmfc.phase}")

        fsm = self.fsm
        if fsm is RxFsm.RESET:
            self.fsm = RxFsm.WAIT_FOR_PHY
            return None

        if fsm is RxFsm.WAIT_FOR_PHY:
            self._phy_run = self._phy_run + 1 if phy_ready else 0
            if self._phy_run >= _PHY_READY_RUN:
                self.fsm = RxFsm.CGS
                self.t_cgs_enter = cycle
                self._event(None, "cgs_enter", "")
            return None

        if fsm is RxFsm.CGS:
            self._cgs_cycle(words, boundary)
            return None

        # ILAS or SYNCED: run lane datapaths, then fault checks and release.
        fault = self._lanes_cycle(words)
        if fault:
            self._fault(*fault)
            return None
        if self._window_tripped():
            self._fault(None, "error_threshold",
                        f"window_errors={len(self._err_cycles)}")
            return None

        if self.fsm is RxFsm.ILAS and all(l.ilas_ok for l in self.lanes):
            self.fsm = RxFsm.SYNCED
            if self.t_synced < 0:  # measurements track the first bring-up
                self.t_synced = cycle
            self._event(None, "all_lanes_ready", "")

        if self.fsm is not RxFsm.SYNCED:
            return None
        if not self.released and all(l.ready for l in self.lanes):
            ph = self.lmfc.phase
            if self.lmfc.locked and ph <= self.cfg.release_offset < ph + OCTETS_PER_CYCLE:
                self.released = True
                if self.t_release < 0:  # measurements track the first release
                    self.t_release = cycle
                    self.release_lmfc_phase = ph
                self._event(None, "release", f"lmfc_phase={ph}")
        if not self.released:
            return None
        out_words = []
        for lane in self.lanes:
            if len(lane.buffer) < OCTETS_PER_CYCLE:
                self.error_counts["buffer_underflow"] += 1
                self._fault(lane.idx, "buffer_underflow", f"fill={len(lane.buffer)}")
                return None
            out_words.append(tuple(lane.buffer.popleft()
                                   for _ in range(OCTETS_PER_CYCLE)))
        return tuple(out_words)

    # -- internals -----------------------------------------------------------

    def _event(self, lane: int | None, name: str, detail: str) -> None:
        self.events.append((self.cycle, lane, name, detail))

    def _count_flags(self, packed: int) -> None:
        if packed & _NIT:
            self.error_counts["not_in_table"] += 1
            self._err_cycles.append(self.cycle)
        elif packed & _DERR:
            self.error_counts["disparity_error"] += 1
            self._err_cycles.append(self.cycle)

    def _window_tripped(self) -> bool:
        window = self._err_cycles
        floor = self.cycle - (ERROR_WINDOW_CYCLES - 1)
        while window and window[0] < floor:
            window.popleft()
        return len(window) >= self.cfg.error_threshold

    def _cgs_cycle(self, words, boundary: bool) -> None:
        all_clean = True
        for lane, word in zip(self.lanes, words):
            for pos in range(OCTETS_PER_CYCLE):
                v = word[pos]
                if v == _K_CLEAN:
                    if lane.run == 0:
                        lane.rot_candidate = pos
                    lane.run += 1
                    if lane.run >= self.cfg.cgs_threshold and lane.rotation is None:
                        lane.rotation = lane.rot_candidate
                        self._event(lane.idx, "cgs_achieved",
                                    f"rotation={lane.rotation}")
                else:
                    lane.run = 0
                    lane.rotation = None
                    all_clean = False
        achieved = all(l.rotation is not None for l in self.lanes)
        self._stability = self._stability + 1 if (achieved and all_clean) else 0
        if (achieved and self._stability >= self.cfg.stability_cycles
                and self.lmfc.locked and boundary):
            self.sync_request = False
            self.fsm = RxFsm.ILAS
            if self.t_sync_deassert < 0:
                self.t_sync_deassert = self.cycle
            for lane in self.lanes:
                lane.pend.clear()
                lane.rot_dropped = False
                lane.mode = _WAIT_R
                lane.aligned_count = 0
            self._event(None, "sync_deassert", f"cycle={self.cycle}")

    def _lanes_cycle(self, words) -> tuple[int | None, str, str] | None:
        """Ingest one word per lane; returns a fault tuple or None."""
        fk = self.cfg.fk
        for lane, word in zip(self.lanes, words):
            pend = lane.pend
            for pos in range(OCTETS_PER_CYCLE):
                v = word[pos]
                if v & _FLAGS:
                    self._count_flags(v)
                pend.append(v)
            if lane.rotation is None:
                return (lane.idx, "no_rotation", "lane lost octet alignment")
            if not lane.rot_dropped:
                for _ in range(lane.rotation):
                    pend.popleft()
                lane.rot_dropped = True
            while len(pend) >= OCTETS_PER_CYCLE:
                aligned = (pend.popleft(), pend.popleft(),
                           pend.popleft(), pend.popleft())
                lane.aligned_count += OCTETS_PER_CYCLE
                fault = self._lane_word(lane, aligned, fk)
                if fault:
                    return fault
        return None

    def _lane_word(self, lane: LaneState, word, fk: int
                   ) -> tuple[int | None, str, str] | None:
        if lane.mode == _WAIT_R:
            if all(v == _K_CLEAN for v in word):
                return None
            if word[0] != _R_CLEAN:
                # A comma run ending inside the word means the rotation
                # anchored off by the comma count (noise during CGS can
                # shift the anchor); the multiframe marker is
                # authoritative, so re-rotate onto it and requeue the
                # remainder of the word.
                shift = next((p for p in range(1, OCTETS_PER_CYCLE)
                              if word[p] == _R_CLEAN
                              and all(word[i] == _K_CLEAN for i in range(p))),
                             None)
                if shift is None:
                    self.error_counts["marker_mismatch"] += 1
                    return (lane.idx, "marker_mismatch",
                            f"expected /R/ or /K/, got 0x{word[0] & 0xFF:02X}")
                lane.rotation = (lane.rotation + shift) % OCTETS_PER_CYCLE
                lane.aligned_count -= OCTETS_PER_CYCLE - shift
                for v in reversed(word[shift:]):
                    lane.pend.appendleft(v)
                self._event(lane.idx, "rotation_adjusted",
                            f"shift={shift} rotation={lane.rotation}")
                return None
            lane.mode = _CAPTURE
            lane.mf_count = 0
            lane.mf_pos = 0
            lane.cfg_octets = []
            lane.markers_ok = True
            self._event(lane.idx, "ilas_start",
                        f"aligned_octet={lane.aligned_count - 4}")

        if lane.mode == _CAPTURE:
            for pos in range(OCTETS_PER_CYCLE):
                v = word[pos]
                p = lane.mf_pos + pos
                ok = True
                if p == 0:
                    ok = v == _R_CLEAN
                elif p == fk - 1:
                    ok = v == (K_A | _CTRL)
                elif lane.mf_count == 1 and p == 1:
                    ok = v == (K_Q | _CTRL)
                elif lane.mf_count == 1 and 2 <= p < 2 + ILAS_CONFIG_LEN:
                    lane.cfg_octets.append(v & 0xFF)
                    ok = not (v & (_CTRL | _FLAGS))
                else:
                    ok = not (v & _CTRL)
                if not ok:
                    lane.markers_ok = False
                    self.error_counts["marker_mismatch"] += 1
                    self._event(lane.idx, "marker_mismatch",
                                f"mf={lane.mf_count} pos={p} got=0x{v & 0xFF:02X}")
            lane.mf_pos += OCTETS_PER_CYCLE
            if lane.mf_pos == fk:
                lane.mf_pos = 0
                lane.mf_count += 1
                if lane.mf_count == ILAS_MULTIFRAMES:
                    return self._finish_ilas(lane)
            return None

        if lane.mode == _DATA:
            return self._lane_data_word(lane, word)
        return None

    def _finish_ilas(self, lane: LaneState) -> tuple[int | None, str, str] | None:
        cfg = self.cfg
        ic, checksum_ok = IlasConfig.unpack(lane.cfg_octets, cfg.fchk_rule)
        config_ok = checksum_ok
        if cfg.ilas_policy == POLICY_STRICT and self.expected_ilas is not None:
            expected = dataclasses.replace(
                self.expected_ilas, lid=(self.expected_ilas.lid + lane.idx) & 0x1F)
            config_ok = config_ok and ic == expected
        else:
            config_ok = config_ok and ic.matches_link(cfg)
        lane.ilas_ok = lane.markers_ok and config_ok
        lane.mode = _DATA
        lane.dsc_state = scrambler.ALL_ONES
        if not config_ok:
            self.error_counts["config_mismatch"] += 1
            self._event(lane.idx, "config_mismatch",
                        f"checksum_ok={checksum_ok}")
        if not lane.ilas_ok:
            return (lane.idx, "ilas_invalid", "alignment sequence rejected")
        self._event(lane.idx, "ilas_ok", f"lid={ic.lid}")
        return None

    def _lane_data_word(self, lane: LaneState, word
                        ) -> tuple[int | None, str, str] | None:
        for v in word:
            if v & _CTRL:
                self.error_counts["control_in_data"] += 1
                name = "comma_in_data" if (v & 0xFF) == K_K else "control_in_data"
                return (lane.idx, name, f"octet=0x{v & 0xFF:02X}")
        buf = lane.buffer
        if self.cfg.scrambling:
            lane.dsc_state, word = scrambler.descramble_word32(lane.dsc_state, word)
        buf.extend(v & 0xFF for v in word)
        if len(buf) > self.cfg.buffer_depth:
            self.error_counts["buffer_overflow"] += 1
            return (lane.idx, "buffer_overflow", f"fill={len(buf)}")
        return None

    def _fault(self, lane: int | None, name: str, detail: str) -> None:
        self._event(lane, name, detail)
        self.resync_count += 1
        self.fsm = RxFsm.CGS
        self.sync_request = True
        self.released = False
        self._stability = 0
        self._err_cycles.clear()
        for l in self.lanes:
            l.clear()
        self._event(None, "resync", f"cause={name}")

    # -- vectorized steady state ---------------------------------------------

    def fast_forward(self, lane_chars: list[np.ndarray], n_cycles: int
                     ) -> list[np.ndarray]:
        """Consume ``n_cycles`` of flag-free data-phase input in one pass.

        ``lane_chars[i]`` holds exactly the next ``4 * n_cycles`` packed
        characters of lane i.  Unchecked precondition: the link is SYNCED
        and released, no character here or in a lane's rotation residue
        carries a flag, and SYSREF pulses in the span fall on multiframe
        boundaries.  Reads then match writes, so no buffer fault can
        occur, and state advances exactly as ``n_cycles`` calls of
        :meth:`step_packed` would.  Returns the output octets per lane.
        """
        n_oct = n_cycles * OCTETS_PER_CYCLE
        outputs = []
        for lane in self.lanes:
            residue = np.array([v & 0xFF for v in lane.pend], dtype=np.uint8)
            incoming = lane_chars[lane.idx].astype(np.uint8)
            stream = np.concatenate([residue, incoming])
            consume = stream[:n_oct]
            leftover = stream[n_oct:]
            if self.cfg.scrambling:
                lane.dsc_state, plain = scrambler.descramble_octets(
                    lane.dsc_state, consume)
            else:
                plain = consume
            combined = np.concatenate(
                [np.fromiter(lane.buffer, dtype=np.uint8, count=len(lane.buffer)),
                 plain])
            outputs.append(combined[:n_oct].copy())
            lane.buffer = deque(int(v) for v in combined[n_oct:])
            lane.pend = deque(int(v) for v in leftover)
            lane.aligned_count += n_oct

        self.cycle += n_cycles
        self.lmfc.phase = (self.lmfc.phase
                           + n_cycles * OCTETS_PER_CYCLE) % self.lmfc.fk
        return outputs
