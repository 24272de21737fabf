"""Receiver: per-lane datapath, shared link state machine, LMFC and release.

The receiver is stepped once per link clock.  Each step ingests four
decoded characters per lane and advances, in order: the SYSREF edge
detector, the link state machine (RESET -> WAIT_FOR_PHY -> CGS -> ILAS
-> SYNCED, with the single backward edge to CGS on fault; the PHY wait
is a fixed four cycles), the per-lane datapaths (octet rotation,
alignment-sequence capture checked against the layout
:func:`.tx_model.build_ilas` transmits, elastic buffering) and finally
the centralized buffer release that starts all lanes' output on the same
cycle at a fixed multiframe phase.  That phase (LMFC) is derived, not
counted: four octets per cycle since the last SYSREF edge (or reset,
until the first edge locks it), modulo F*K.

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

:meth:`RxReceiver.receive` drives the receiver over packed character
arrays: flag-free stretches of a released link go through
:meth:`RxReceiver.fast_forward` in one vectorized pass, leaving the
receiver exactly as repeated :meth:`~RxReceiver.step_packed` calls would
(the test suite asserts the equivalence).  Each output segment is handed
out once, as one uint8 array per lane joined when the call returns.  The
data path is the buffer, then descrambling on the way out: the two
commute, as the buffer is a FIFO that starts with a lane's first
data-phase octet, where the scrambler state resets.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from enum import Enum
from typing import Sequence

import numpy as np

from . import scrambler
from .codec8b10b import CTRL_FLAG, DERR_FLAG, K_K, K_Q, K_R, NIT_FLAG
from .config import (ERROR_WINDOW_CYCLES, ILAS_CONFIG_LEN, OCTETS_PER_CYCLE,
                     POLICY_STRICT, IlasConfig, LinkConfig)
from .tx_model import build_ilas


class RxFsm(Enum):
    RESET = "RESET"
    WAIT_FOR_PHY = "WAIT_FOR_PHY"
    CGS = "CGS"
    ILAS = "ILAS"
    SYNCED = "SYNCED"


_CGS_ENTER_CYCLE = 4  # the fixed PHY wait: WAIT_FOR_PHY leaves on this cycle

# Lane datapath modes while the link FSM is in ILAS/SYNCED.
_WAIT_R = 1
_CAPTURE = 2
_DATA = 3

_FLAGS = NIT_FLAG | DERR_FLAG
# Flag bits of four packed characters viewed as one 64-bit word.
_CYCLE_FLAGS = np.uint64(0xFF00_FF00_FF00_FF00)
_NO_OCTETS = np.zeros(0, np.uint8)


class LaneState:
    """Mutable per-lane datapath state."""

    __slots__ = (
        "idx", "rotation", "run", "pend", "rot_dropped", "mode",
        "aligned_count", "ilas_pos", "cfg_octets", "markers_ok", "buffer",
    )

    def __init__(self, idx: int):
        self.idx = idx
        self.clear()

    def clear(self) -> None:
        self.rotation: int | None = None
        self.run = 0
        self.pend: deque[int] = deque()
        self.rot_dropped = False
        self.mode = _WAIT_R
        self.aligned_count = 0
        self.ilas_pos = 0
        self.cfg_octets: list[int] = []
        self.markers_ok = True
        self.buffer: deque[int] = deque()


_K_CLEAN = K_K | CTRL_FLAG
_R_CLEAN = K_R | CTRL_FLAG


class RxReceiver:
    """One link's receiver; the strict ILAS policy needs ``expected_ilas``.
    See the module docstring for the model."""

    def __init__(self, cfg: LinkConfig, expected_ilas: IlasConfig | None = None):
        if cfg.ilas_policy == POLICY_STRICT and expected_ilas is None:
            raise ValueError("ilas_policy 'strict' needs an expected_ilas image")
        self.cfg = cfg
        self.expected_ilas = expected_ilas
        # One (mask, want) rule per alignment-sequence position: octet v
        # passes when v & mask == want.  A control character must match
        # exactly, the configuration octets after /Q/ carry no flag, and
        # every other octet carries no control flag.
        ilas = build_ilas(cfg, IlasConfig())[0].tolist()
        q = ilas.index(K_Q | CTRL_FLAG)
        self._cfg_span = range(q + 1, q + 1 + ILAS_CONFIG_LEN)
        self._ilas_rules = [
            (-1, c) if c & CTRL_FLAG
            else (CTRL_FLAG | (_FLAGS if p in self._cfg_span else 0), 0)
            for p, c in enumerate(ilas)]
        self.reset()

    def reset(self) -> None:
        cfg = self.cfg
        self.cycle = -1
        self.fsm = RxFsm.RESET
        self.sync_request = True
        self._sysref_level = False
        self._lmfc_locked = False
        self._sysref_edge = -1   # cycle of the last SYSREF edge; reset acts as one
        self.lanes = [LaneState(i) for i in range(cfg.L)]
        self._dsc_states = [scrambler.ALL_ONES] * cfg.L   # at the open segment's end
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

    @property
    def lmfc_phase(self) -> int:
        """Multiframe phase in octets on the current cycle."""
        return OCTETS_PER_CYCLE * (self.cycle - self._sysref_edge) % self.cfg.fk

    # -- public stepping ----------------------------------------------------

    def receive(self, chars: list[np.ndarray], sysref, fast: bool = True,
                stop_on_sync_change: bool = False) -> tuple[int, int, list]:
        """Feed ``chars[l]``, lane l's packed characters (octet | flags),
        four per lane per cycle, numbered by the receiver's clock, which
        places the pulses of ``sysref`` (a :class:`.sim_harness.SysrefSpec`).

        With ``fast``, each flag-free span of a released link goes through
        :meth:`fast_forward`.  Everything else steps, which establishes
        that method's precondition: bring-up, each flagged cycle and the
        cycle after it (a flagged octet can wait one cycle in a lane's
        rotation residue), and the call's first cycle (the residue may
        hold a flagged octet from the previous call).  With
        ``stop_on_sync_change`` the call returns right after the cycle on
        which the sync request changes.

        Returns ``(cycles consumed, cycles fast-forwarded, segments)``,
        the output as ``(release cycle, outs)`` per segment (cycle -1 for
        the one open when the call began), ``outs`` one uint8 array per
        lane, all of one length (maybe 0).  Only this method yields payload
        (it descrambles), so do not mix it with :meth:`step_packed` on an
        open segment.  Raises ValueError unless
        ``chars`` holds one uint16 array per lane, all of one length in
        whole cycles.
        """
        if not (len(chars) == self.cfg.L
                and all(isinstance(c, np.ndarray) and c.dtype == np.uint16
                        and c.shape == chars[0].shape for c in chars)
                and chars[0].ndim == 1 and chars[0].shape[0] % OCTETS_PER_CYCLE == 0):
            raise ValueError(f"chars must be {self.cfg.L} uint16 arrays of one "
                             "length, a multiple of 4")
        n = chars[0].shape[0] // OCTETS_PER_CYCLE
        fk = self.cfg.fk
        flagged = np.zeros(n, dtype=bool)
        for lane in chars:
            flagged |= (np.ascontiguousarray(lane).view(np.uint64) & _CYCLE_FLAGS) != 0
        must_step = flagged.copy()
        must_step[1:] |= flagged[:-1]
        must_step[:1] = True
        step_at = np.flatnonzero(must_step)

        sync_before = self.sync_request
        segments = [(-1, [[] for _ in chars])] if self.released else []
        i = fast_cycles = 0
        while i < n:
            if fast and self.released and not must_step[i]:
                k = int(np.searchsorted(step_at, i))
                j = int(step_at[k]) if k < step_at.shape[0] else n
                out = self.fast_forward(
                    [lane[OCTETS_PER_CYCLE * i: OCTETS_PER_CYCLE * j] for lane in chars],
                    j - i)
                fast_cycles += j - i
                i = j
            else:
                cycle = self.cycle + 1
                was_released = self.released
                words = [tuple(lane[OCTETS_PER_CYCLE * i: OCTETS_PER_CYCLE * (i + 1)].tolist())
                         for lane in chars]
                out = self.step_packed(words, sysref.pulse(cycle, fk))
                if self.released and not was_released:
                    segments.append((cycle, [[] for _ in chars]))
                i += 1
            if out is not None:
                for parts, part in zip(segments[-1][1], out):
                    parts.append(part)
            if stop_on_sync_change and self.sync_request != sync_before:
                break
        for seg, (cycle, lanes) in enumerate(segments):
            # Stepped words are Python ints, all octets: hence the unsafe cast.
            outs = [np.concatenate([_NO_OCTETS, *parts], dtype=np.uint8, casting="unsafe")
                    for parts in lanes]
            if self.cfg.scrambling:
                states = self._dsc_states if cycle < 0 else [scrambler.ALL_ONES] * len(outs)
                self._dsc_states, outs = zip(*map(scrambler.descramble_octets, states, outs))
            segments[seg] = (cycle, list(outs))
        return i, fast_cycles, segments

    def step_packed(self, words: Sequence[tuple[int, int, int, int]],
                    sysref: bool = False
                    ) -> tuple[tuple[int, int, int, int], ...] | None:
        """Advance one cycle on packed characters (octet | flags << 8) with
        SYSREF at level ``sysref``; a rising edge realigns the LMFC phase.

        Returns one word of four buffer octets (as received, so still
        scrambled) per lane while the buffers are released, else None.
        """
        self.cycle += 1
        cycle = self.cycle
        if sysref and not self._sysref_level:
            if self._lmfc_locked and self.lmfc_phase:
                self.error_counts["sysref_misaligned"] += 1
                self._event(None, "sysref_misaligned", f"phase={self.lmfc_phase}")
            self._lmfc_locked = True
            self._sysref_edge = cycle
        self._sysref_level = sysref

        fsm = self.fsm
        if fsm is RxFsm.RESET:
            self.fsm = RxFsm.WAIT_FOR_PHY
            return None

        if fsm is RxFsm.WAIT_FOR_PHY:
            if cycle >= _CGS_ENTER_CYCLE:
                self.fsm = RxFsm.CGS
                self.t_cgs_enter = cycle
                self._event(None, "cgs_enter", "")
            return None

        if fsm is RxFsm.CGS:
            self._cgs_cycle(words)
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

        if self.fsm is RxFsm.ILAS and all(l.mode == _DATA for l in self.lanes):
            self.fsm = RxFsm.SYNCED
            if self.t_synced < 0:  # measurements track the first bring-up
                self.t_synced = cycle
            self._event(None, "all_lanes_ready", "")

        if self.fsm is not RxFsm.SYNCED:
            return None
        # SYNCED: every lane is in its data phase.
        if not self.released and all(len(l.buffer) >= OCTETS_PER_CYCLE for l in self.lanes):
            ph = self.lmfc_phase
            if ph <= self.cfg.release_offset < ph + OCTETS_PER_CYCLE:
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
        if packed & NIT_FLAG:
            self.error_counts["not_in_table"] += 1
            self._err_cycles.append(self.cycle)
        elif packed & DERR_FLAG:
            self.error_counts["disparity_error"] += 1
            self._err_cycles.append(self.cycle)

    def _window_tripped(self) -> bool:
        window = self._err_cycles
        floor = self.cycle - (ERROR_WINDOW_CYCLES - 1)
        while window and window[0] < floor:
            window.popleft()
        return len(window) >= self.cfg.error_threshold

    def _cgs_cycle(self, words) -> None:
        all_clean = True
        for lane, word in zip(self.lanes, words):
            for pos in range(OCTETS_PER_CYCLE):
                v = word[pos]
                if v == _K_CLEAN:
                    lane.run += 1
                    if lane.run >= self.cfg.cgs_threshold and lane.rotation is None:
                        lane.rotation = (pos + 1 - lane.run) % OCTETS_PER_CYCLE
                        self._event(lane.idx, "cgs_achieved",
                                    f"rotation={lane.rotation}")
                else:
                    lane.run = 0
                    lane.rotation = None
                    all_clean = False
        achieved = all(l.rotation is not None for l in self.lanes)
        self._stability = self._stability + 1 if (achieved and all_clean) else 0
        if (achieved and self._stability >= self.cfg.stability_cycles
                and self._lmfc_locked and self.lmfc_phase == 0):
            self.sync_request = False
            self.fsm = RxFsm.ILAS
            if self.t_sync_deassert < 0:
                self.t_sync_deassert = self.cycle
            self._event(None, "sync_deassert", f"cycle={self.cycle}")

    def _lanes_cycle(self, words) -> tuple[int | None, str, str] | None:
        """Ingest one word per lane; returns a fault tuple or None."""
        for lane, word in zip(self.lanes, words):
            pend = lane.pend
            for pos in range(OCTETS_PER_CYCLE):
                v = word[pos]
                if v & _FLAGS:
                    self._count_flags(v)
                pend.append(v)
            if not lane.rot_dropped:
                for _ in range(lane.rotation):
                    pend.popleft()
                lane.rot_dropped = True
            while len(pend) >= OCTETS_PER_CYCLE:
                aligned = (pend.popleft(), pend.popleft(),
                           pend.popleft(), pend.popleft())
                lane.aligned_count += OCTETS_PER_CYCLE
                fault = self._lane_word(lane, aligned)
                if fault:
                    return fault
        return None

    def _lane_word(self, lane: LaneState, word) -> tuple[int | None, str, str] | None:
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
            self._event(lane.idx, "ilas_start",
                        f"aligned_octet={lane.aligned_count - 4}")

        if lane.mode == _CAPTURE:
            for i, v in enumerate(word):
                p = lane.ilas_pos + i
                if p in self._cfg_span:
                    lane.cfg_octets.append(v & 0xFF)
                mask, want = self._ilas_rules[p]
                if v & mask != want:
                    lane.markers_ok = False
                    self.error_counts["marker_mismatch"] += 1
                    mf, pos = divmod(p, self.cfg.fk)
                    self._event(lane.idx, "marker_mismatch",
                                f"mf={mf} pos={pos} got=0x{v & 0xFF:02X}")
            lane.ilas_pos += OCTETS_PER_CYCLE
            if lane.ilas_pos == len(self._ilas_rules):
                return self._finish_ilas(lane)
            return None
        return self._lane_data_word(lane, word)

    def _finish_ilas(self, lane: LaneState) -> tuple[int | None, str, str] | None:
        cfg = self.cfg
        ic, checksum_ok = IlasConfig.unpack(lane.cfg_octets, cfg.fchk_rule)
        config_ok = checksum_ok
        if cfg.ilas_policy == POLICY_STRICT:
            expected = dataclasses.replace(
                self.expected_ilas, lid=(self.expected_ilas.lid + lane.idx) & 0x1F)
            config_ok = config_ok and ic == expected
        else:
            config_ok = config_ok and ic.matches_link(cfg)
        if not config_ok:
            self.error_counts["config_mismatch"] += 1
            self._event(lane.idx, "config_mismatch",
                        f"checksum_ok={checksum_ok}")
        if not (lane.markers_ok and config_ok):
            return (lane.idx, "ilas_invalid", "alignment sequence rejected")
        lane.mode = _DATA
        self._event(lane.idx, "ilas_ok", f"lid={ic.lid}")
        return None

    def _lane_data_word(self, lane: LaneState, word
                        ) -> tuple[int | None, str, str] | None:
        for v in word:
            if v & CTRL_FLAG:
                self.error_counts["control_in_data"] += 1
                name = "comma_in_data" if (v & 0xFF) == K_K else "control_in_data"
                return (lane.idx, name, f"octet=0x{v & 0xFF:02X}")
        buf = lane.buffer
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
        :meth:`step_packed` would.  Buffer, rotation residue and input are
        one FIFO; returns the buffer octets out per lane, as received.
        """
        n_oct = n_cycles * OCTETS_PER_CYCLE
        outputs = []
        for lane in self.lanes:
            depth = len(lane.buffer)
            fifo = np.concatenate([np.fromiter(lane.buffer, np.uint8, depth),
                                   np.fromiter(lane.pend, np.uint8, len(lane.pend)),
                                   lane_chars[lane.idx].astype(np.uint8)])
            outputs.append(fifo[:n_oct])
            lane.buffer = deque(fifo[n_oct: n_oct + depth].tolist())
            lane.pend = deque(fifo[n_oct + depth:].tolist())

        self.cycle += n_cycles
        return outputs
