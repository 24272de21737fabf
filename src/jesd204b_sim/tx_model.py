"""Golden transmitter: CGS, initial lane alignment, then (scrambled) payload.

While the receiver requests synchronization the transmitter emits /K/
commas on every lane, four octets per lane per cycle.  Once the request
clears it waits for a multiframe boundary, sends the four alignment
multiframes (/R/ start, /A/ end, /Q/ plus the 14 configuration octets in
the second multiframe, position-counter ramp elsewhere) and then streams
payload, scrambled per lane when enabled.

Any span of cycles is emitted at once as per-lane (octets, control-flag)
arrays with the sync request held over the span: a filled comma array, a
slice of the prebuilt alignment sequence, then bulk payload.  Stepping
one cycle is the one-cycle span.

Payload is produced by a deterministic, seekable generator so the
harness can regenerate any slice for exact comparison instead of logging
what was sent.  16-bit samples are interleaved sample-by-sample across
lanes (sample j goes to lane j mod L as two octets, high byte first).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import scrambler
from .codec8b10b import K_A, K_K, K_Q, K_R
from .config import (ILAS_MULTIFRAMES, OCTETS_PER_CYCLE, IlasConfig,
                     LinkConfig, ParseError, check_int, validate_config)

PHASE_CGS = "CGS"
PHASE_ILAS = "ILAS"
PHASE_DATA = "DATA"

PAYLOAD_KINDS = ("ramp", "sine", "random")

_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_PAYLOAD_BLOCK = 1 << 16   # octets generated per pass


@dataclass
class PayloadSpec:
    """Deterministic sample source: ramp, quantized sine or seeded noise."""

    kind: str = "random"
    seed: int = 0
    channels: int = 2
    amplitude: int = 20000     # sine peak, LSBs
    period: int = 16           # samples per sine period (80 MSPS / 5 MHz = 16)
    dc_offset: int = 0
    step: int = 1              # ramp increment per sample frame
    channel_offset: int = 0    # ramp offset between adjacent channels

    def __post_init__(self) -> None:
        if self.kind not in PAYLOAD_KINDS:
            raise ValueError(f"unknown payload kind {self.kind!r}")
        check_int("payload.seed", self.seed, 0, 2**64 - 2)  # seed + 1 is a uint64
        check_int("payload.channels", self.channels, 1)
        for name in ("amplitude", "period", "dc_offset", "step", "channel_offset"):
            check_int(f"payload.{name}", getattr(self, name))
        if self.kind == "sine" and self.period < 2:
            raise ValueError("sine period must be >= 2 samples")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PayloadSpec":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ParseError(f"unknown payload key(s): {', '.join(unknown)}")
        return cls(**data)


def _splitmix16(seed: int, idx: np.ndarray) -> np.ndarray:
    """Counter-based uniform 16-bit values: hash of (seed, index)."""
    with np.errstate(over="ignore"):
        z = idx.astype(np.uint64) + _GOLDEN * np.uint64(seed + 1)
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        z = z ^ (z >> np.uint64(31))
    return (z & np.uint64(0xFFFF)).astype(np.uint16)


def payload_samples(spec: PayloadSpec, indices: np.ndarray) -> np.ndarray:
    """16-bit sample values at the given flat sample indices.

    The flat stream is frame-major: index j carries channel j mod C of
    sample frame j div C.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if spec.kind == "random":
        return _splitmix16(spec.seed, idx)
    frame = idx // spec.channels
    chan = idx % spec.channels
    if spec.kind == "ramp":
        return ((frame * spec.step + chan * spec.channel_offset) & 0xFFFF).astype(np.uint16)
    # quantized sine, identical table on every channel
    v = spec.dc_offset + spec.amplitude * np.sin(2.0 * np.pi * frame / spec.period)
    v = np.clip(np.rint(v), -32768, 32767).astype(np.int16)
    return v.view(np.uint16) + np.zeros_like(chan, dtype=np.uint16)


def lane_payload_octets(spec: PayloadSpec, lanes: int, lane: int,
                        start: int, count: int) -> np.ndarray:
    """Octets ``start .. start+count`` of one lane's unscrambled payload.

    Sample j maps to lane ``j mod lanes``; each sample occupies two
    consecutive lane octets, high byte first.
    """
    # Generated in fixed blocks: the 64-bit index and hash temporaries
    # then stay small and are reused, instead of being faulted in afresh
    # for every long chunk.
    out = np.empty(count, dtype=np.uint8)
    for lo in range(0, count, _PAYLOAD_BLOCK):
        m = np.arange(start + lo, start + min(count, lo + _PAYLOAD_BLOCK),
                      dtype=np.int64)
        samples = payload_samples(spec, lanes * (m >> 1) + lane)
        out[lo: lo + m.shape[0]] = np.where(m & 1 == 0, samples >> 8, samples & 0xFF)
    return out


def build_ilas(cfg: LinkConfig, base: IlasConfig) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-lane alignment sequence as (octets, control-flag) arrays.

    Four multiframes per lane: /R/ first, /A/ last, /Q/ plus the packed
    configuration octets at the start of multiframe 2.  Lanes differ only
    in the lane id field (and therefore the checksum).  Filler positions
    carry the position counter mod 256 so any slip is visible in a dump.
    """
    validate_config(cfg)
    fk = cfg.fk
    total = ILAS_MULTIFRAMES * fk
    lanes = []
    for lane in range(cfg.L):
        ic = dataclasses.replace(base, lid=(base.lid + lane) & 0x1F)
        image = ic.pack(cfg.fchk_rule)
        octets = (np.arange(total) % 256).astype(np.uint8)
        ctrl = np.zeros(total, dtype=bool)
        for mf in range(ILAS_MULTIFRAMES):
            octets[mf * fk] = K_R
            ctrl[mf * fk] = True
            octets[mf * fk + fk - 1] = K_A
            ctrl[mf * fk + fk - 1] = True
        octets[fk + 1] = K_Q
        ctrl[fk + 1] = True
        octets[fk + 2: fk + 2 + len(image)] = np.frombuffer(image, dtype=np.uint8)
        lanes.append((octets, ctrl))
    return lanes


class TxLink:
    """One link's transmitter, emitting any span of link-clock cycles."""

    def __init__(self, cfg: LinkConfig, ilas: IlasConfig | None = None,
                 payload: PayloadSpec | None = None):
        validate_config(cfg)
        self.cfg = cfg
        self.payload = payload or PayloadSpec()
        self.ilas_base = ilas or IlasConfig.from_link_config(
            cfg, channels=self.payload.channels)
        self._ilas = build_ilas(cfg, self.ilas_base)
        self._ilas_len = ILAS_MULTIFRAMES * cfg.fk
        self.reset()

    def reset(self) -> None:
        self.phase = PHASE_CGS
        self.ilas_pos = 0
        self.lane_octets_sent = 0          # payload octets emitted per lane
        self.scr_states = [scrambler.ALL_ONES] * self.cfg.L
        self.data_segments: list[int] = []  # lane octet index at each DATA entry

    def snapshot(self) -> tuple:
        """The emission state, to hand back to :meth:`restore`."""
        return (self.phase, self.ilas_pos, self.lane_octets_sent,
                list(self.scr_states), len(self.data_segments))

    def restore(self, state: tuple) -> None:
        """Rewind to a :meth:`snapshot` taken earlier in the same run."""
        self.phase, self.ilas_pos, self.lane_octets_sent, scr, segments = state
        self.scr_states = list(scr)
        del self.data_segments[segments:]

    def _enter_data(self) -> None:
        self.phase = PHASE_DATA
        self.scr_states = [scrambler.ALL_ONES] * self.cfg.L
        self.data_segments.append(self.lane_octets_sent)

    def emit(self, n_cycles: int, sync_request: bool, boundary: int | None
             ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Emit ``n_cycles`` per lane as (octets, control-flag) arrays.

        ``sync_request`` is held for the whole span; ``boundary`` is the
        offset of the span's first multiframe start, or None if the span
        has none.  A held request parks the transmitter in CGS; otherwise
        CGS ends at the boundary, the alignment sequence follows, then
        payload.
        """
        cgs = 0
        if sync_request or self.phase == PHASE_CGS:
            cgs = n_cycles if sync_request or boundary is None else min(boundary, n_cycles)
            self.phase = PHASE_CGS if cgs == n_cycles else PHASE_ILAS
            self.ilas_pos = 0
        count = OCTETS_PER_CYCLE * cgs
        lanes = [([np.full(count, K_K, np.uint8)], [np.ones(count, bool)])
                 for _ in range(self.cfg.L)]
        left = OCTETS_PER_CYCLE * (n_cycles - cgs)
        if self.phase == PHASE_ILAS and left:
            pos = self.ilas_pos
            self.ilas_pos = min(self._ilas_len, pos + left)
            for (octets, ctrl), (ilas_octets, ilas_ctrl) in zip(lanes, self._ilas):
                octets.append(ilas_octets[pos: self.ilas_pos])
                ctrl.append(ilas_ctrl[pos: self.ilas_pos])
            left -= self.ilas_pos - pos
            if self.ilas_pos == self._ilas_len:
                self._enter_data()
        if left:
            for (octets, ctrl), data in zip(lanes, self.bulk_data(left // OCTETS_PER_CYCLE)):
                octets.append(data)
                ctrl.append(np.zeros(data.shape[0], bool))
        return [(np.concatenate(octets), np.concatenate(ctrl)) for octets, ctrl in lanes]

    def step(self, sync_request: bool, lmfc_boundary: bool
             ) -> list[tuple[tuple[int, int, int, int], int]]:
        """Emit one cycle as one word per lane: ((o0, o1, o2, o3), control_mask).

        Bit i of the control mask marks octet i as a control character.
        """
        return [(tuple(octets.tolist()), int(np.packbits(ctrl, bitorder="little")[0]))
                for octets, ctrl in self.emit(1, sync_request,
                                              0 if lmfc_boundary else None)]

    def bulk_data(self, n_cycles: int) -> list[np.ndarray]:
        """Emit ``n_cycles`` worth of data-phase octets per lane.

        Only legal in the data phase; threads the payload position and the
        scrambler states from one call to the next.
        """
        if self.phase != PHASE_DATA:
            raise RuntimeError("bulk_data is only valid in the data phase")
        count = n_cycles * OCTETS_PER_CYCLE
        start = self.lane_octets_sent
        out = []
        for lane in range(self.cfg.L):
            raw = lane_payload_octets(self.payload, self.cfg.L, lane, start, count)
            if self.cfg.scrambling:
                self.scr_states[lane], raw = scrambler.scramble_octets(
                    self.scr_states[lane], raw)
            out.append(raw)
        self.lane_octets_sent = start + count
        return out

