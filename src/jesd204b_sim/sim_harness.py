"""Deterministic end-to-end simulation.

One :func:`run_simulation` call wires a golden transmitter through an
impairment channel (per-lane octet skew, optional bit errors) and the
8b/10b codec into the receiver, generates SYSREF, and measures sync
time, release phase, latency and payload integrity.

Wiring: the transmitter sees the receiver's sync request from the
previous cycle (one cycle of SYNC propagation) and a multiframe boundary
derived from the shared SYSREF schedule; its emitted characters are
delayed per lane by the channel, encoded, optionally corrupted at the
bit level, decoded and handed to the receiver.  Everything is a pure
function of the configuration and seeds, so identical inputs give
byte-identical reports and event logs.

Payload correctness is judged against the transmitter's deterministic
sample generator, regenerated slice by slice, never against anything
the receiver produced.  The channel prepends ``base_idle_octets`` of
idle filler (plus the per-lane skew) so every lane sees an
idle-to-comma transition; the receiver anchors its octet rotation
there.

The link runs in bounded chunks of cycles, so memory stays flat however
long the run.  Within a chunk the sync request is held, the transmitter,
channel and codec run vectorized, and :func:`drive_receiver` feeds the
decoded characters to the receiver: flag-free stretches of a released
link through its vectorized fast path (``fast=True``), everything else
cycle by cycle.  When the receiver changes its sync request the chunk
is cut there, and the transmitter, both running disparities and the
line are rewound to that cycle.  Bit errors depend only on the seed,
lane and cycle, so a rewind never redraws them.  The test suite asserts
that stepped, fast and replayed runs agree byte for byte.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import codec8b10b as codec
# Unused here; the benchmark's tracer looks the scalar codec forms up in
# this module, so they stay importable from it.
from .codec8b10b import decode_octet, encode_octet  # noqa: F401
from .config import (IlasConfig, LinkConfig, ParseError, check_int,
                     validate_config)
from .rx_core import CTRL_FLAG, DERR_FLAG, NIT_FLAG, RxFsm, RxReceiver
from .tx_model import PHASE_CGS, PayloadSpec, TxLink, lane_payload_octets

OCTETS_PER_CYCLE = 4
BITS_PER_CYCLE = 40

_TAIL_CHUNK_CYCLES = 1 << 18   # largest chunk; bounds peak memory
_FIRST_CHUNK_CYCLES = 64       # chunk length after each sync-request change
_FLIP_DRAW_CYCLES = 1 << 14    # cycles of bit-error draws per generator call
# Flag bits of four packed characters viewed as one 64-bit word.
_CYCLE_FLAGS = np.uint64(0xFF00_FF00_FF00_FF00)


class SimConfigError(ValueError):
    """The simulation setup is impossible as specified.

    Raised for structural mistakes (wrong skew list length, a flip on a
    lane that does not exist, nonpositive duration).  Setups that are
    merely doomed, like skew beyond the buffer capacity, are valid
    inputs: they must produce a reported fault, not an exception.
    """


@dataclass
class ChannelSpec:
    """Per-lane impairments: skew in octets plus optional bit errors.

    ``error_positions`` lists explicit ``(lane, bit_index)`` flips, with
    bit indices counted over the lane's serialized (post-skew) stream;
    bit i of cycle t is ``40 * t + i``.  Indices must be non-negative and
    lanes must exist; a position past the end of a run is legal and
    simply not reached.  A nonzero ``bit_error_rate`` flips each line
    bit independently with that probability.  The two mechanisms are
    mutually exclusive.  The same seed always produces the same flips.
    """

    skew: tuple[int, ...] | list[int] | None = None
    bit_error_rate: float = 0.0
    error_positions: list[tuple[int, int]] | None = None
    rng_seed: int = 0
    base_idle_octets: int = 32
    idle_octet: int = 0x00

    def __post_init__(self) -> None:
        rate = self.bit_error_rate
        if not (isinstance(rate, numbers.Real) and not isinstance(rate, bool)
                and 0 <= rate <= 1):
            raise ParseError(f"channel.bit_error_rate: got {rate!r}, "
                             "allowed a number in [0, 1]")
        check_int("channel.rng_seed", self.rng_seed, 0)
        # The idle prefix must outlast receiver startup (reset plus the
        # PHY-ready gate, 6 cycles) or the lane cannot observe the
        # idle-to-comma transition its octet rotation anchors on.
        check_int("channel.base_idle_octets", self.base_idle_octets, 24)
        check_int("channel.idle_octet", self.idle_octet, 0, 0xFF)
        for name in ("skew", "error_positions"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, (list, tuple)):
                raise ParseError(f"channel.{name}: got {value!r}, allowed a list")
        for s in self.skew or ():
            check_int("channel.skew", s, 0)
        for pos in self.error_positions or ():
            if not (isinstance(pos, (list, tuple)) and len(pos) == 2):
                raise ParseError(f"channel.error_positions: got {pos!r}, "
                                 "allowed [lane, bit] pairs")
            check_int("channel.error_positions lane", pos[0], 0)
            check_int("channel.error_positions bit", pos[1], 0)
        if self.error_positions is not None:
            self.error_positions = [tuple(pos) for pos in self.error_positions]
        if self.bit_error_rate and self.error_positions:
            raise ValueError("bit_error_rate and error_positions are mutually exclusive")

    def lane_skews(self, lanes: int) -> list[int]:
        if self.skew is None:
            return [0] * lanes
        if len(self.skew) != lanes:
            raise SimConfigError(
                f"need {lanes} skew entries, got {len(self.skew)}")
        return [int(s) for s in self.skew]

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        if d["skew"] is not None:
            d["skew"] = list(d["skew"])
        if d["error_positions"] is not None:
            d["error_positions"] = [list(p) for p in d["error_positions"]]
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "ChannelSpec":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ParseError(f"unknown channel key(s): {', '.join(unknown)}")
        return cls(**data)


@dataclass
class SysrefSpec:
    """SYSREF pulse schedule shared by both link ends.

    Pulses start at ``first_cycle`` and repeat every
    ``period_multiframes`` multiframes (``None`` = one-shot;
    ``first_cycle=None`` = never, the receiver then holds in CGS).
    ``tx_phase_offset_octets`` shifts the transmitter's multiframe grid
    against SYSREF; nonzero values are the negative control for the
    deterministic-latency property.
    """

    first_cycle: int | None = 8
    period_multiframes: int | None = 4
    tx_phase_offset_octets: int = 0

    def __post_init__(self) -> None:
        if self.first_cycle is not None:
            check_int("sysref.first_cycle", self.first_cycle, 0)
        if self.period_multiframes is not None:
            check_int("sysref.period_multiframes", self.period_multiframes, 1)
        check_int("sysref.tx_phase_offset_octets", self.tx_phase_offset_octets)
        if self.tx_phase_offset_octets % OCTETS_PER_CYCLE:
            raise ValueError("tx_phase_offset_octets must be a multiple of 4")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SysrefSpec":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ParseError(f"unknown sysref key(s): {', '.join(unknown)}")
        return cls(**data)

    def pulse(self, cycle: int, fk: int) -> bool:
        """Whether SYSREF pulses on ``cycle`` for a multiframe of ``fk`` octets."""
        if self.first_cycle is None or cycle < self.first_cycle:
            return False
        if cycle == self.first_cycle:
            return True
        if self.period_multiframes is None:
            return False
        period = self.period_multiframes * fk // OCTETS_PER_CYCLE
        return (cycle - self.first_cycle) % period == 0

    def tx_boundary(self, cycle: int, fk: int) -> bool:
        """Whether the transmitter's multiframe starts on ``cycle``.

        The transmitter's grid is the SYSREF grid shifted by
        ``tx_phase_offset_octets``; it runs only once SYSREF has started.
        """
        if self.first_cycle is None or cycle < self.first_cycle:
            return False
        offset = self.tx_phase_offset_octets // OCTETS_PER_CYCLE
        return (cycle - self.first_cycle - offset) % (fk // OCTETS_PER_CYCLE) == 0


@dataclass
class SimReport:
    """Measured results of one simulation run."""

    config: dict
    payload: dict
    channel: dict
    sysref: dict
    duration_cycles: int
    fast_path_used: bool
    sync_achieved: bool
    resync_count: int
    # cycle-number measurement points (-1 = never reached)
    t_sync_deassert: int
    t_synced: int
    t_release: int
    t_first_valid: int
    tx_data_start_cycle: int
    release_lmfc_phase: int
    # sync time in frame clocks from three references
    sync_frames_from_sync_deassert: float
    sync_frames_from_phy_ready: float
    sync_frames_from_reset: float
    total_latency_octets: int
    startup_latency_cycles: int
    payload_match: bool
    payload_octets_compared: int
    payload_mismatch_octets: int
    error_counts: dict
    flips_injected: int
    flips_pre_release: int
    event_log: list[str]

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, indent=2)


class _BitErrors:
    """Line bit flips per lane, as absolute bit indices (bit i of cycle t
    is ``40 * t + i``).

    With a bit-error rate, lane ``l`` draws 40 uniforms per cycle, in
    cycle order, from its own generator seeded ``(rng_seed, l)``.  One
    ``random(40 * n)`` call returns the same values as ``n`` calls of
    ``random(40)``, so drawing ahead in blocks changes nothing, and
    positions drawn but not yet reached are kept: a rewound chunk sees
    the same flips again.
    """

    def __init__(self, channel: ChannelSpec, lanes: int):
        self.rate = channel.bit_error_rate
        self.rngs = [np.random.default_rng((channel.rng_seed, lane))
                     for lane in range(lanes)]
        self.drawn = [0] * lanes          # bits drawn so far per lane
        given: list[list[int]] = [[] for _ in range(lanes)]
        for lane, bit in channel.error_positions or ():
            given[int(lane)].append(int(bit))
        self.pending = [np.array(sorted(b), dtype=np.int64) for b in given]

    def take(self, lane: int, lo: int, hi: int) -> np.ndarray:
        """Flip positions of one lane in bits ``[lo, hi)``, duplicates kept."""
        if self.rate > 0:
            while self.drawn[lane] < hi:
                n = min(hi - self.drawn[lane], _FLIP_DRAW_CYCLES * BITS_PER_CYCLE)
                hits = np.flatnonzero(self.rngs[lane].random(n) < self.rate)
                self.pending[lane] = np.concatenate(
                    [self.pending[lane], hits + self.drawn[lane]])
                self.drawn[lane] += n
        p = self.pending[lane]
        return p[np.searchsorted(p, lo): np.searchsorted(p, hi)]

    def forget(self, bit: int) -> None:
        """Drop positions before ``bit``; they will not be asked for again."""
        self.pending = [p[np.searchsorted(p, bit):] for p in self.pending]


def pack_chars(octets: np.ndarray, ctrl: np.ndarray, nit: np.ndarray,
               derr: np.ndarray) -> np.ndarray:
    """Decoded characters in the receiver's packed layout (octet | flags)."""
    packed = octets.astype(np.uint16)
    packed[ctrl] |= CTRL_FLAG
    packed[nit] |= NIT_FLAG
    packed[derr] |= DERR_FLAG
    return packed


def drive_receiver(rx: RxReceiver, chars: list[np.ndarray], sysref: SysrefSpec,
                   on_release: Callable[[int], None],
                   on_output: Callable[[list[np.ndarray]], None],
                   fast: bool = True, stop_on_sync_change: bool = False,
                   ) -> tuple[int, int]:
    """Feed packed characters to ``rx``, four per lane per cycle.

    ``chars[l]`` holds lane l's next characters in the layout of
    :func:`pack_chars`; cycles are numbered by the receiver's own clock,
    which also places the SYSREF pulses.  With ``fast``, every flag-free
    span of a released, synchronized link goes through
    :meth:`RxReceiver.fast_forward`.  Everything else steps, which
    establishes that method's precondition: bring-up, each flagged cycle
    and the cycle after it (a flagged octet can wait one cycle in a
    lane's rotation residue), and the first cycle of the call (the
    residue may hold a flagged octet from the previous call).

    Released output is reported in order: ``on_release(cycle)`` opens an
    output segment, ``on_output(per-lane octets)`` appends to the open
    one.  With ``stop_on_sync_change`` the call returns right after the
    cycle on which the receiver's sync request changes.  Returns
    ``(cycles consumed, cycles fast-forwarded)``.
    """
    n = chars[0].shape[0] // OCTETS_PER_CYCLE
    fk = rx.cfg.fk
    flagged = np.zeros(n, dtype=bool)
    for lane in chars:
        flagged |= (lane[:OCTETS_PER_CYCLE * n].view(np.uint64) & _CYCLE_FLAGS) != 0
    must_step = flagged.copy()
    must_step[1:] |= flagged[:-1]
    must_step[:1] = True
    step_at = np.flatnonzero(must_step)

    sync_before = rx.sync_request
    stepped_out: list[list[int]] = [[] for _ in chars]

    def flush() -> None:
        if stepped_out[0]:
            on_output([np.array(words, dtype=np.uint8) for words in stepped_out])
            for words in stepped_out:
                words.clear()

    i = fast_cycles = 0
    while i < n:
        if fast and rx.released and rx.fsm is RxFsm.SYNCED and not must_step[i]:
            k = int(np.searchsorted(step_at, i))
            j = int(step_at[k]) if k < step_at.shape[0] else n
            flush()
            on_output(rx.fast_forward(
                [lane[OCTETS_PER_CYCLE * i: OCTETS_PER_CYCLE * j] for lane in chars],
                j - i))
            fast_cycles += j - i
            i = j
            continue
        cycle = rx.cycle + 1
        was_released = rx.released
        words = [tuple(lane[OCTETS_PER_CYCLE * i: OCTETS_PER_CYCLE * (i + 1)].tolist())
                 for lane in chars]
        out = rx.step_packed(words, sysref.pulse(cycle, fk), True)
        if rx.released != was_released:
            flush()
            if rx.released:
                on_release(cycle)
        if out is not None:
            for acc, word in zip(stepped_out, out):
                acc.extend(word)
        i += 1
        if stop_on_sync_change and rx.sync_request != sync_before:
            break
    flush()
    return i, fast_cycles


class _SegmentCheck:
    """One output segment, compared as it arrives against the generator
    from lane octet ``m0`` (unless ``payload`` is None), kept if ``store``."""

    def __init__(self, payload: PayloadSpec | None, lanes: int, m0: int, store: bool):
        self.payload = payload
        self.lanes = lanes
        self.m0 = m0
        self.off = [0] * lanes
        self.compared = 0
        self.mismatched = 0
        self.store = store
        self.stored: list[list[np.ndarray]] = [[] for _ in range(lanes)]

    def absorb(self, lane: int, got: np.ndarray) -> None:
        if got.shape[0] == 0:
            return
        if self.payload is not None:
            exp = lane_payload_octets(self.payload, self.lanes, lane,
                                      self.m0 + self.off[lane], got.shape[0])
            self.compared += got.shape[0]
            self.mismatched += int(np.count_nonzero(got != exp))
        self.off[lane] += got.shape[0]
        if self.store:
            self.stored[lane].append(got)

    def arrays(self) -> list[np.ndarray]:
        return [np.concatenate(chunks) if chunks else np.zeros(0, np.uint8)
                for chunks in self.stored]


class Simulation:
    """One link end-to-end; create, then :meth:`run`.

    After a run, ``output_segments`` holds the released output octets per
    segment and lane (populated when ``collect_output`` is set), and
    ``received_symbols`` the post-impairment line symbols per lane (when
    ``collect_received`` is set).
    """

    def __init__(self, cfg: LinkConfig, ilas: IlasConfig | None = None,
                 payload: PayloadSpec | None = None,
                 channel: ChannelSpec | None = None,
                 sysref: SysrefSpec | None = None,
                 collect_output: bool = False,
                 collect_received: bool = False):
        validate_config(cfg)
        self.cfg = cfg
        self.payload = payload or PayloadSpec()
        self.channel = channel or ChannelSpec()
        self.sysref = sysref or SysrefSpec()
        self.tx = TxLink(cfg, ilas, self.payload)
        self.rx = RxReceiver(cfg, expected_ilas=self.tx.ilas_base)
        self.skews = self.channel.lane_skews(cfg.L)
        bad = sorted({lane for lane, _ in self.channel.error_positions or ()
                      if not 0 <= lane < cfg.L})
        if bad:
            raise SimConfigError(f"error_positions name lane(s) {bad}; "
                                 f"the link has lanes 0..{cfg.L - 1}")
        self.fills = [self.channel.base_idle_octets + s for s in self.skews]
        self.collect_output = collect_output
        self.collect_received = collect_received

    # -- main loop ------------------------------------------------------------

    def run(self, duration: int, fast: bool = True) -> SimReport:
        """Run ``duration`` cycles from reset; ``fast=False`` steps every
        cycle (the reference the fast path must match)."""
        if duration < 1:
            raise SimConfigError(f"duration must be positive, got {duration}")
        lanes = self.cfg.L
        tx, rx = self.tx, self.rx
        tx.reset()
        rx.reset()
        # What each lane receives, from octet ``_line_base`` on: its idle
        # fill, then everything the transmitter has sent.
        self._line = [np.full(fill, self.channel.idle_octet, np.uint8)
                      for fill in self.fills]
        self._line_ctrl = [np.zeros(fill, bool) for fill in self.fills]
        self._line_base = 0
        self._tx_data_cycle = -1
        flips = _BitErrors(self.channel, lanes)
        enc_rd = [codec.RD_NEG] * lanes
        dec_rd = [codec.RD_NEG] * lanes
        segments: list[_SegmentCheck] = []
        seg_data_cycle: list[int] = []
        received: list[list[np.ndarray]] = [[] for _ in range(lanes)]
        flips_injected = flips_pre_release = 0
        fast_used = False
        release_cycle = -1

        def on_release(cycle: int) -> None:
            nonlocal release_cycle
            release_cycle = cycle
            segments.append(_SegmentCheck(self.payload, lanes, tx.data_segments[-1],
                                          self.collect_output))
            seg_data_cycle.append(self._tx_data_cycle)

        # A segment closes only on a fault, which ends the chunk, so all of
        # a chunk's output belongs to the segment open at its end; it is
        # checked once the chunk's input arrays are freed.
        outputs: list[list[np.ndarray]] = []

        t, chunk = 0, _FIRST_CHUNK_CYCLES
        while t < duration:
            n = min(chunk, duration - t)
            sync = rx.sync_request
            released = rx.released
            release_cycle = -1
            tx_state = (tx.snapshot(), self._tx_data_cycle,
                        [a.shape[0] for a in self._line])
            self._tx_chunk(t, n, sync)
            chars, line, lane_flips, rd_end = self._receive(t, n, enc_rd, dec_rd, flips)
            done, fast_cycles = drive_receiver(rx, chars, self.sysref, on_release,
                                               outputs.append, fast,
                                               stop_on_sync_change=True)
            del chars
            for outs in outputs:
                for lane, got in enumerate(outs):
                    segments[-1].absorb(lane, got)
            outputs.clear()
            fast_used = fast_used or fast_cycles > 0
            if done < n:
                # The sync request changed: the cycles after the change were
                # built on the old request, so rewind to the change.
                _, line, lane_flips, rd_end = self._receive(t, done, enc_rd, dec_rd,
                                                            flips)
                snap, self._tx_data_cycle, line_len = tx_state
                tx.restore(snap)
                self._line = [a[:k] for a, k in zip(self._line, line_len)]
                self._line_ctrl = [a[:k] for a, k in zip(self._line_ctrl, line_len)]
                self._tx_chunk(t, done, sync)
                chunk = _FIRST_CHUNK_CYCLES
            else:
                chunk = min(2 * chunk, _TAIL_CHUNK_CYCLES)
            enc_rd = [e for e, _ in rd_end]
            dec_rd = [d for _, d in rd_end]

            # A flip is pre-release when the link was not released entering
            # its cycle; unrelease always changes the sync request, so it
            # can only happen on the chunk's last cycle.
            pre_release = 0 if released else (release_cycle + 1 - t
                                              if release_cycle >= 0 else done)
            for pos in lane_flips:
                flips_injected += pos.shape[0]
                flips_pre_release += int(np.count_nonzero(
                    pos < BITS_PER_CYCLE * pre_release))
            if self.collect_received:
                for lane, syms in enumerate(line):
                    received[lane].append(syms)
            t += done
            flips.forget(BITS_PER_CYCLE * t)
            drop = OCTETS_PER_CYCLE * t - self._line_base
            self._line = [a[drop:] for a in self._line]
            self._line_ctrl = [a[drop:] for a in self._line_ctrl]
            self._line_base += drop

        return self._build_report(duration, fast_used, segments, seg_data_cycle,
                                  flips_injected, flips_pre_release, received)

    def _receive(self, t0: int, n_cycles: int, enc_rd: list[int], dec_rd: list[int],
                 flips: _BitErrors) -> tuple[list[np.ndarray], list[np.ndarray],
                                             list[np.ndarray], list[tuple[int, int]]]:
        """The channel and codec for cycles [t0, t0 + n_cycles).

        Returns per lane the packed decoded characters, the line symbols
        (only when collected), the flip positions relative to the chunk,
        and the (encoder, decoder) running disparities after the chunk.
        """
        chars, line, lane_flips, rd_end = [], [], [], []
        lo = OCTETS_PER_CYCLE * t0 - self._line_base
        hi = lo + OCTETS_PER_CYCLE * n_cycles
        for lane in range(self.cfg.L):
            syms, enc_end = codec.encode_stream(self._line[lane][lo:hi],
                                                self._line_ctrl[lane][lo:hi],
                                                enc_rd[lane])
            pos = flips.take(lane, BITS_PER_CYCLE * t0,
                             BITS_PER_CYCLE * (t0 + n_cycles)) - BITS_PER_CYCLE * t0
            if pos.shape[0]:
                np.bitwise_xor.at(syms, pos // 10,
                                  (1 << (9 - pos % 10)).astype(np.uint16))
            octs, ctrl, nit, derr, dec_end = codec.decode_stream(syms, dec_rd[lane])
            chars.append(pack_chars(octs, ctrl, nit, derr))
            if self.collect_received:
                line.append(syms)
            lane_flips.append(pos)
            rd_end.append((enc_end, dec_end))
        return chars, line, lane_flips, rd_end

    # -- transmitter and line --------------------------------------------------

    def _tx_chunk(self, t0: int, n_cycles: int, sync: bool) -> None:
        """Append the transmitter's output for cycles [t0, t0 + n_cycles)
        to the line, with the receiver's sync request held at ``sync``."""
        tx, fk = self.tx, self.cfg.fk
        boundary = None
        if tx.phase == PHASE_CGS and not sync:
            # The grid repeats every multiframe, so one multiframe is enough.
            boundary = next((i for i in range(min(n_cycles, fk // OCTETS_PER_CYCLE))
                             if self.sysref.tx_boundary(t0 + i, fk)), None)
        sent = tx.lane_octets_sent
        lanes = tx.emit(n_cycles, sync, boundary)
        data_cycles = (tx.lane_octets_sent - sent) // OCTETS_PER_CYCLE
        if sync:
            self._tx_data_cycle = -1
        elif data_cycles and self._tx_data_cycle < 0:
            self._tx_data_cycle = t0 + n_cycles - data_cycles
        for lane, (octets, ctrl) in enumerate(lanes):
            self._line[lane] = np.concatenate([self._line[lane], octets])
            self._line_ctrl[lane] = np.concatenate([self._line_ctrl[lane], ctrl])

    # -- reporting -------------------------------------------------------------

    def _build_report(self, duration: int, fast_used: bool,
                      segments: list[_SegmentCheck], seg_data_cycle: list[int],
                      flips_injected: int, flips_pre_release: int,
                      received: list[list[np.ndarray]]) -> SimReport:
        cfg = self.cfg
        rx = self.rx

        compared = sum(s.compared for s in segments)
        mismatched = sum(s.mismatched for s in segments)
        payload_match = compared > 0 and mismatched == 0
        self.output_segments = ([s.arrays() for s in segments]
                                if self.collect_output else [])
        self.segment_tx_starts = [s.m0 for s in segments]

        if self.collect_received:
            self.received_symbols = [np.concatenate(parts) for parts in received]

        sync_achieved = rx.t_synced >= 0
        frames_per_cycle = OCTETS_PER_CYCLE / cfg.F

        def frames(a: int, b: int) -> float:
            if a < 0 or b < 0:
                return -1.0
            return round((a - b) * frames_per_cycle, 3)

        t_data = seg_data_cycle[0] if seg_data_cycle else -1
        latency_oct = (OCTETS_PER_CYCLE * (rx.t_release - t_data)
                       if rx.t_release >= 0 and t_data >= 0 else -1)

        events = [f"cycle={c} lane={'-' if l is None else l} event={n} detail={d or '-'}"
                  for (c, l, n, d) in rx.events]

        return SimReport(
            config=cfg.to_dict(),
            payload=self.payload.to_dict(),
            channel=self.channel.to_dict(),
            sysref=self.sysref.to_dict(),
            duration_cycles=duration,
            fast_path_used=fast_used,
            sync_achieved=sync_achieved,
            resync_count=rx.resync_count,
            t_sync_deassert=rx.t_sync_deassert,
            t_synced=rx.t_synced,
            t_release=rx.t_release,
            t_first_valid=rx.t_release,
            tx_data_start_cycle=t_data,
            release_lmfc_phase=rx.release_lmfc_phase,
            sync_frames_from_sync_deassert=frames(rx.t_synced, rx.t_sync_deassert),
            sync_frames_from_phy_ready=frames(rx.t_synced, rx.t_cgs_enter),
            sync_frames_from_reset=frames(rx.t_synced, 0),
            total_latency_octets=latency_oct,
            startup_latency_cycles=(latency_oct // OCTETS_PER_CYCLE
                                    if latency_oct >= 0 else -1),
            payload_match=payload_match,
            payload_octets_compared=compared,
            payload_mismatch_octets=mismatched,
            error_counts=dict(rx.error_counts),
            flips_injected=flips_injected,
            flips_pre_release=flips_pre_release,
            event_log=events,
        )


def run_simulation(cfg: LinkConfig, ilas: IlasConfig | None = None,
                   payload: PayloadSpec | None = None,
                   channel: ChannelSpec | None = None,
                   sysref: SysrefSpec | None = None,
                   duration: int = 4096, fast: bool = True,
                   collect_output: bool = False,
                   collect_received: bool = False) -> SimReport:
    """Run one link end to end and return the measurement report."""
    sim = Simulation(cfg, ilas, payload, channel, sysref,
                     collect_output=collect_output,
                     collect_received=collect_received)
    return sim.run(duration, fast=fast)


def run_multi_link(cfg: LinkConfig, **kwargs) -> list[SimReport]:
    """Run ``cfg.links`` independent links sharing one SYSREF schedule.

    Links do not interact beyond the common SYSREF phase; per-link
    channel seeds are offset by the link index.
    """
    reports = []
    channel = kwargs.pop("channel", None) or ChannelSpec()
    for link in range(cfg.links):
        ch = dataclasses.replace(channel, rng_seed=channel.rng_seed + link)
        reports.append(run_simulation(cfg, channel=ch, **kwargs))
    return reports


@dataclass
class LatencySweep:
    """Outcome of a deterministic-latency trial sweep."""

    latencies: list[int]
    release_phases: list[int]
    all_synced: bool
    deterministic: bool


def measure_latency_determinism(cfg: LinkConfig, n_trials: int,
                                skew_range: tuple[int, int] | None = None,
                                seed: int = 0,
                                payload: PayloadSpec | None = None,
                                sysref: SysrefSpec | None = None,
                                duration: int | None = None) -> LatencySweep:
    """Run ``n_trials`` with random per-lane skews and compare latencies.

    The SYSREF phase relative to the transmitter grid is held fixed
    across trials; the verdict is pass iff every trial produced the same
    total latency.  Varying the phase instead (via ``sysref``) is the
    negative control and is expected to break the equality.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    validate_config(cfg)
    if skew_range is None:
        skew_range = (0, cfg.fk // 2)
    rng = np.random.default_rng(seed)
    base_sysref = sysref or SysrefSpec()
    if duration is None:
        s0 = base_sysref.first_cycle or 0
        duration = s0 + (48 + skew_range[1] + 10 * cfg.fk) // OCTETS_PER_CYCLE + 128
    latencies = []
    phases = []
    synced = True
    for _ in range(n_trials):
        skews = rng.integers(skew_range[0], skew_range[1] + 1, cfg.L)
        channel = ChannelSpec(skew=[int(s) for s in skews])
        rep = run_simulation(cfg, payload=payload, channel=channel,
                             sysref=base_sysref,
                             duration=duration)
        synced = synced and rep.sync_achieved and rep.t_release >= 0
        latencies.append(rep.total_latency_octets)
        phases.append(rep.release_lmfc_phase)
    deterministic = synced and len(set(latencies)) == 1
    return LatencySweep(latencies, phases, synced, deterministic)
