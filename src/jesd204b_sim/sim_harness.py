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
sample generator, never against anything the receiver produced: the
oracle slices the octets the transmitter generated for its last span
and regenerates only the rest.  The channel prepends
``base_idle_octets`` of idle filler (plus the per-lane skew) so every
lane sees an idle-to-comma transition; the receiver anchors its octet
rotation there.

The link runs in bounded chunks of cycles, so memory stays flat however
long the run, and a chunk's per-lane temporaries fit the cache.  Within
a chunk the sync request is held, the transmitter, channel and codec
run vectorized, and :meth:`.RxReceiver.receive` takes the decoded
characters: flag-free stretches of a released link through its
vectorized fast path (``fast=True``), everything else cycle by cycle.
When the receiver changes its sync request the chunk is cut there, and
the transmitter, both running disparities and the line are rewound to
that cycle.  Bit errors depend only on the seed,
lane and cycle, so a rewind never redraws them.  The test suite asserts
that stepped, fast and replayed runs agree byte for byte.

A fast run codes only what the line can change.  On a lane span with
no flips, only data octets (always encodable) and equal encoder and
decoder disparities on entry, decoding the encoding returns every
character unflagged and leaves the decoder at the encoder's disparity:
each symbol is balanced, keeping the disparity, or sets it by its own
sign.  Such a span passes the characters straight to the receiver and
advances both disparities by the parity of its ``ENC_FLIP`` count.
Bring-up, ILAS, spans with a flip, spans entered with split disparities
(a flip near the previous span's end can leave them so) and every span
of a stepped run or of one that collects the received symbols keep the
full codec.  The scrambler always runs, so the oracle still checks the
whole data path against the generator.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
from dataclasses import dataclass

import numpy as np

from . import codec8b10b as codec
# Unused here; the benchmark's tracer looks the scalar codec forms up in
# this module, so they stay importable from it.
from .codec8b10b import decode_octet, encode_octet  # noqa: F401
from .config import (OCTETS_PER_CYCLE, IlasConfig, LinkConfig, ParseError,
                     check_int, check_keys, is_int)
from .rx_core import RxReceiver
from .tx_model import PayloadSpec, TxLink, lane_payload_octets

BITS_PER_CYCLE = 40

_TAIL_CHUNK_CYCLES = 1 << 16   # largest chunk; its temporaries fit the cache
_FIRST_CHUNK_CYCLES = 64       # chunk length after each sync-request change
_FLIP_DRAW_CYCLES = 1 << 14    # cycles of bit-error draws per generator call


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
        # The idle prefix must cover receiver startup (reset, the fixed PHY
        # wait and the first CGS cycle: 6 cycles) so the lane sees the
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

    @classmethod
    def from_dict(cls, data: dict) -> "ChannelSpec":
        check_keys("channel", data, [f.name for f in dataclasses.fields(cls)])
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

    @classmethod
    def from_dict(cls, data: dict) -> "SysrefSpec":
        check_keys("sysref", data, [f.name for f in dataclasses.fields(cls)])
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

    def first_tx_boundary(self, t0: int, n: int, fk: int) -> int | None:
        """Offset of the transmitter's first multiframe start in cycles
        ``[t0, t0 + n)``, or None.  Its grid is the SYSREF grid shifted by
        ``tx_phase_offset_octets``, and it starts with SYSREF."""
        if self.first_cycle is None:
            return None
        start = max(t0, self.first_cycle)
        grid = self.first_cycle + self.tx_phase_offset_octets // OCTETS_PER_CYCLE
        start += (grid - start) % (fk // OCTETS_PER_CYCLE)
        return start - t0 if start < t0 + n else None


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
        """Flip positions of one lane in bits ``[lo, hi)``, duplicates kept.
        Positions below ``lo`` are dropped: later calls start there or after."""
        if self.rate > 0:
            while self.drawn[lane] < hi:
                n = min(hi - self.drawn[lane], _FLIP_DRAW_CYCLES * BITS_PER_CYCLE)
                hits = np.flatnonzero(self.rngs[lane].random(n) < self.rate)
                self.pending[lane] = np.concatenate(
                    [self.pending[lane], hits + self.drawn[lane]])
                self.drawn[lane] += n
        p = self.pending[lane] = self.pending[lane][np.searchsorted(self.pending[lane], lo):]
        return p[: np.searchsorted(p, hi)]


class SegmentCheck:
    """One output segment, compared as it arrives against the generator
    from lane octet ``m0`` (unless ``payload`` is None), kept if ``store``.
    Every lane releases in lockstep, so ``off`` octets have arrived per lane.

    With ``tx``, the expected octets that its ``payload_window`` holds are
    sliced from it, and only the rest are generated: the window is the
    generator's output before scrambling, the transmit side's truth, so
    the output is still never compared with anything the receiver made.
    """

    def __init__(self, payload: PayloadSpec | None, lanes: int, m0: int, store: bool,
                 tx: TxLink | None = None):
        self.payload = payload
        self.tx = tx
        self.lanes = lanes
        self.m0 = m0
        self.off = 0
        self.compared = 0
        self.mismatched = 0
        self.store = store
        self.stored: list[list[np.ndarray]] = [[] for _ in range(lanes)]

    def absorb(self, outs: list[np.ndarray]) -> None:
        """Append one equal-length array of octets per lane."""
        count = outs[0].shape[0]
        for lane, (got, kept) in enumerate(zip(outs, self.stored)):
            if self.payload is not None:
                exp = self._expected(lane, self.m0 + self.off, count)
                self.compared += count
                self.mismatched += int(np.count_nonzero(got != exp))
            if self.store:
                kept.append(got)
        self.off += count

    def _expected(self, lane: int, start: int, count: int) -> np.ndarray:
        """Lane octets ``start .. start+count`` of the payload; none lies past the window."""
        end = start + count
        w0, kept = self.tx.payload_window if self.tx is not None else (end, None)
        lo = min(max(start, w0), end)
        head = lane_payload_octets(self.payload, self.lanes, lane, start, lo - start)
        tail = kept[lane][lo - w0: end - w0] if lo < end else head
        return np.concatenate([head, tail]) if start < lo < end else tail

    def arrays(self) -> list[np.ndarray]:
        return [np.concatenate(chunks) if chunks else np.zeros(0, np.uint8)
                for chunks in self.stored]


class Simulation:
    """One link end-to-end; create, then :meth:`run`.

    After a run, ``segments`` holds one :class:`SegmentCheck` per release
    (its output octets per lane kept when ``collect_output`` is set), and
    ``received_symbols`` the post-impairment line symbols per lane (when
    ``collect_received`` is set).
    """

    def __init__(self, cfg: LinkConfig, ilas: IlasConfig | None = None,
                 payload: PayloadSpec | None = None,
                 channel: ChannelSpec | None = None,
                 sysref: SysrefSpec | None = None,
                 collect_output: bool = False,
                 collect_received: bool = False):
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
        if not is_int(duration) or duration < 1:
            raise SimConfigError(f"duration must be a positive int, got {duration!r}")
        lanes = self.cfg.L
        tx, rx = self.tx, self.rx
        tx.reset()
        rx.reset()
        # The characters in flight on each lane, ``fill`` of them: the idle
        # fill at reset, later the last ``fill`` characters sent.
        self._line = [np.full(fill, self.channel.idle_octet, np.uint16)
                      for fill in self.fills]
        self._rd = [(codec.RD_NEG, codec.RD_NEG)] * lanes   # (encoder, decoder)
        flips = _BitErrors(self.channel, lanes)
        self.segments = segments = []
        received: list[list[np.ndarray]] = [[] for _ in range(lanes)]
        flips_injected = flips_pre_release = 0
        fast_used = False
        t_data = -1

        t, chunk = 0, _FIRST_CHUNK_CYCLES
        while t < duration:
            n = min(chunk, duration - t)
            sync = rx.sync_request
            released = rx.released
            state = (tx.snapshot(), self._line, self._rd)
            chars, line, lane_flips = self._advance(t, n, sync, flips, fast)
            done, fast_cycles, outputs = rx.receive(chars, self.sysref, fast,
                                                    stop_on_sync_change=True)
            # Output is checked once the chunk's input arrays are freed.
            del chars
            for cycle, outs in outputs:
                if cycle >= 0:
                    m0, data_cycle = tx.data_segments[-1]
                    if not segments:
                        t_data = data_cycle
                    segments.append(SegmentCheck(self.payload, lanes, m0,
                                                 self.collect_output, tx))
                segments[-1].absorb(outs)
            fast_used = fast_used or fast_cycles > 0
            if done < n:
                # The sync request changed: the cycles after the change were
                # built on the old request, so rewind to the change.
                snap, self._line, self._rd = state
                tx.restore(snap)
                line, lane_flips = self._advance(t, done, sync, flips, fast)[1:]
                chunk = _FIRST_CHUNK_CYCLES
            else:
                chunk = min(2 * chunk, _TAIL_CHUNK_CYCLES)

            # A flip is pre-release when the link was not released entering
            # its cycle (a chunk's first segment opens at its release); an
            # unrelease changes the sync request, so it ends the chunk.
            pre_release = 0 if released else (outputs[0][0] + 1 - t
                                              if outputs else done)
            for pos in lane_flips:
                flips_injected += pos.shape[0]
                flips_pre_release += int(np.count_nonzero(
                    pos < BITS_PER_CYCLE * pre_release))
            if self.collect_received:
                for lane, syms in enumerate(line):
                    received[lane].append(syms)
            t += done

        return self._build_report(duration, fast_used, t_data,
                                  flips_injected, flips_pre_release, received)

    def _advance(self, t0: int, n_cycles: int, sync: bool, flips: _BitErrors,
                 fast: bool) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
        """Transmitter, line and codec for cycles [t0, t0 + n_cycles), with
        the receiver's sync request held at ``sync``.

        Sends the transmitter's output into the line, codes what leaves it
        and moves ``_line`` and ``_rd`` to the end of the span.  Returns
        per lane the packed decoded characters, the line symbols (only
        when collected) and the flip positions relative to the span.

        With ``fast`` and no symbols to collect, a flip-free lane span of
        data octets entered at one disparity skips the codec (see the
        module docstring).
        """
        line = self.tx.emit(n_cycles, sync,
                            self.sysref.first_tx_boundary(t0, n_cycles, self.cfg.fk))
        count = OCTETS_PER_CYCLE * n_cycles
        skip = fast and not self.collect_received
        chars, symbols, lane_flips, rd = [], [], [], []
        for lane, (enc_rd, dec_rd) in enumerate(self._rd):
            stream = np.concatenate([self._line[lane], line[lane]])
            # Copy what stays in flight, so the stream lives only as long as
            # the characters that leave the line: lowest peak RSS.
            line[lane] = stream[count:].copy()
            lane_chars = stream[:count]
            del stream
            pos = flips.take(lane, BITS_PER_CYCLE * t0,
                             BITS_PER_CYCLE * (t0 + n_cycles)) - BITS_PER_CYCLE * t0
            if (skip and not pos.shape[0] and enc_rd == dec_rd
                    and lane_chars.max(initial=0) < codec.CTRL_FLAG):
                enc_rd = dec_rd = enc_rd ^ (
                    int(np.count_nonzero(np.take(codec.ENC_FLIP, lane_chars))) & 1)
            else:
                syms, enc_rd = codec.encode_stream(lane_chars, enc_rd)
                del lane_chars   # the stream, freed before decoding
                if pos.shape[0]:
                    np.bitwise_xor.at(syms, pos // 10,
                                      (1 << (9 - pos % 10)).astype(np.uint16))
                lane_chars, dec_rd = codec.decode_stream(syms, dec_rd)
                if self.collect_received:
                    symbols.append(syms)
            chars.append(lane_chars)
            lane_flips.append(pos)
            rd.append((enc_rd, dec_rd))
        self._line, self._rd = line, rd
        return chars, symbols, lane_flips

    # -- reporting -------------------------------------------------------------

    def _build_report(self, duration: int, fast_used: bool, t_data: int,
                      flips_injected: int, flips_pre_release: int,
                      received: list[list[np.ndarray]]) -> SimReport:
        cfg = self.cfg
        rx = self.rx

        compared = sum(s.compared for s in self.segments)
        mismatched = sum(s.mismatched for s in self.segments)
        payload_match = compared > 0 and mismatched == 0

        if self.collect_received:
            self.received_symbols = [np.concatenate(parts) for parts in received]

        sync_achieved = rx.t_synced >= 0
        frames_per_cycle = OCTETS_PER_CYCLE / cfg.F

        def frames(a: int, b: int) -> float:
            if a < 0 or b < 0:
                return -1.0
            return round((a - b) * frames_per_cycle, 3)

        latency_oct = (OCTETS_PER_CYCLE * (rx.t_release - t_data)
                       if rx.t_release >= 0 and t_data >= 0 else -1)

        events = [f"cycle={c} lane={'-' if l is None else l} event={n} detail={d or '-'}"
                  for (c, l, n, d) in rx.events]

        return SimReport(
            config=cfg.to_dict(),
            payload=dataclasses.asdict(self.payload),
            channel=dataclasses.asdict(self.channel),
            sysref=dataclasses.asdict(self.sysref),
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
                                duration: int | None = None,
                                channel: ChannelSpec | None = None,
                                ilas: IlasConfig | None = None) -> LatencySweep:
    """Run ``n_trials`` with random per-lane skews and compare latencies.

    Each trial runs ``channel`` with only its skew replaced.  The SYSREF
    phase relative to the transmitter grid is held fixed across trials;
    the verdict is pass iff every trial produced the same total latency.
    Varying the phase instead (via ``sysref``) is the negative control
    and is expected to break the equality.
    """
    if not is_int(n_trials) or n_trials < 1:
        raise ValueError(f"n_trials must be an int >= 1, got {n_trials!r}")
    if skew_range is None:
        skew_range = (0, cfg.fk // 2)
    elif not (isinstance(skew_range, (tuple, list)) and len(skew_range) == 2
              and all(is_int(s) for s in skew_range) and 0 <= skew_range[0] <= skew_range[1]):
        raise ValueError("skew_range must be two ints (lo, hi) with 0 <= lo <= hi, "
                         f"got {skew_range!r}")
    rng = np.random.default_rng(seed)
    base_sysref = sysref or SysrefSpec()
    channel = channel or ChannelSpec()
    if duration is None:
        duration = ((base_sysref.first_cycle or 0) + 128 + (channel.base_idle_octets + 16
                    + skew_range[1] + 10 * cfg.fk) // OCTETS_PER_CYCLE)
    latencies = []
    phases = []
    synced = True
    for _ in range(n_trials):
        skews = rng.integers(skew_range[0], skew_range[1] + 1, cfg.L)
        trial = dataclasses.replace(channel, skew=[int(s) for s in skews])
        rep = run_simulation(cfg, ilas, payload, trial, base_sysref, duration)
        synced = synced and rep.sync_achieved and rep.t_release >= 0
        latencies.append(rep.total_latency_octets)
        phases.append(rep.release_lmfc_phase)
    deterministic = synced and len(set(latencies)) == 1
    return LatencySweep(latencies, phases, synced, deterministic)
