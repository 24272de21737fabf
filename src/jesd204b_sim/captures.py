"""Capture files and decoded-sample tables.

Two text formats hold per-lane line captures for offline replay:

``symbol10``
    one line per symbol, 10 binary digits in transmission order.

``octet_flag``
    one line per character: two hex digits, a space, then ``K`` for a
    control character or ``D`` for data.

Both start with a comment header carrying the format tag, a JSON echo of
the link configuration (validated on read), the creation seed and the
lane count; lanes follow as ``# lane <i>`` sections.  Write then read is
the identity.

Decoded samples are emitted as CSV with the fixed header
``sample_index,channel,value``: 16-bit values, dense and ordered by flat
sample index (sample j of the stream carries channel ``j mod C``).
"""

from __future__ import annotations

import dataclasses
import json
import re
from dataclasses import dataclass

import numpy as np

from .config import LinkConfig, ParseError, validate_config

FORMAT_SYMBOL10 = "symbol10"
FORMAT_OCTET_FLAG = "octet_flag"
CAPTURE_FORMATS = (FORMAT_SYMBOL10, FORMAT_OCTET_FLAG)

SAMPLE_CSV_HEADER = "sample_index,channel,value"

_MAGIC = "# jesd204b-sim capture v1"
_SYMBOL_ROW = re.compile(r"[01]{10}")
_OCTET_ROW = re.compile(r"[0-9A-Fa-f]{2} [KD]")


@dataclass
class Capture:
    """One per-lane line capture plus its metadata header."""

    fmt: str
    config: LinkConfig
    seed: int
    symbols: list[np.ndarray] | None = None          # symbol10 payload
    chars: list[tuple[np.ndarray, np.ndarray]] | None = None  # (octets, ctrl)

    def lane_count(self) -> int:
        data = self.symbols if self.fmt == FORMAT_SYMBOL10 else self.chars
        return len(data)


def write_capture(path: str, cap: Capture) -> None:
    if cap.fmt not in CAPTURE_FORMATS:
        raise ValueError(f"unknown capture format {cap.fmt!r}")
    lines = [
        _MAGIC,
        f"# format: {cap.fmt}",
        f"# config: {json.dumps(cap.config.to_dict(), sort_keys=True)}",
        f"# seed: {cap.seed}",
        f"# lanes: {cap.lane_count()}",
    ]
    if cap.fmt == FORMAT_SYMBOL10:
        for lane, syms in enumerate(cap.symbols):
            lines.append(f"# lane {lane}")
            lines.extend(format(int(s) & 0x3FF, "010b") for s in syms)
    else:
        for lane, (octets, ctrl) in enumerate(cap.chars):
            lines.append(f"# lane {lane}")
            lines.extend(f"{int(o):02X} {'K' if c else 'D'}"
                         for o, c in zip(octets, ctrl))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_capture(path: str) -> Capture:
    """Parse a capture; the embedded configuration must validate."""
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != _MAGIC:
        raise ParseError("not a capture file (missing magic line)")
    meta: dict[str, str] = {}
    i = 1
    while i < len(lines) and lines[i].startswith("#") and ":" in lines[i]:
        key, _, value = lines[i][1:].partition(":")
        meta[key.strip()] = value.strip()
        i += 1
    try:
        fmt = meta["format"]
        cfg_dict = json.loads(meta["config"])
        seed = int(meta.get("seed", "0"))
        lanes = int(meta["lanes"])
    except (KeyError, ValueError) as exc:
        raise ParseError(f"malformed capture header: {exc}") from exc
    if fmt not in CAPTURE_FORMATS:
        raise ParseError(f"unknown capture format {fmt!r}")
    cfg = validate_config(LinkConfig.from_dict(cfg_dict))

    lane_lines: list[list[str]] = []
    current: list[str] | None = None
    for line in lines[i:]:
        if line.startswith("# lane"):
            current = []
            lane_lines.append(current)
        elif line.strip():
            if current is None:
                raise ParseError("capture data before the first lane section")
            current.append(line.strip())
    if len(lane_lines) != lanes:
        raise ParseError(f"expected {lanes} lane sections, found {len(lane_lines)}")

    if fmt == FORMAT_SYMBOL10:
        return Capture(fmt, cfg, seed, symbols=[
            _symbol_rows(lane, rows) for lane, rows in enumerate(lane_lines)])
    chars = []
    for lane, rows in enumerate(lane_lines):
        octets = np.zeros(len(rows), dtype=np.uint8)
        ctrl = np.zeros(len(rows), dtype=bool)
        for k, row in enumerate(rows):
            if not _OCTET_ROW.fullmatch(row):
                raise ParseError(f"lane {lane} row {k}: expected two hex digits, "
                                 f"a space and K or D, got {row!r}")
            octets[k] = int(row[:2], 16)
            ctrl[k] = row[3] == "K"
        chars.append((octets, ctrl))
    return Capture(fmt, cfg, seed, chars=chars)


def _symbol_rows(lane: int, rows: list[str]) -> np.ndarray:
    """Symbols of one lane's rows, each exactly 10 binary digits.

    Joined with newlines, well-formed rows are an (n, 11) byte array
    whose last column is all newlines, so one vectorized pass both
    checks and converts them.
    """
    n = len(rows)
    if n == 0:
        return np.zeros(0, dtype=np.uint16)
    raw = np.frombuffer(("\n".join(rows) + "\n").encode("ascii"), dtype=np.uint8)
    if raw.shape[0] == 11 * n:
        table = raw.reshape(n, 11)
        bits = table[:, :10] - ord("0")  # any byte but '0' or '1' wraps to >= 2
        if (table[:, 10] == ord("\n")).all() and bits.max() <= 1:
            packed = np.packbits(bits, axis=1)  # bits 9..2, then bits 1..0 << 6
            return (packed[:, 0].astype(np.uint16) << 2) | (packed[:, 1] >> 6)
    k = next(k for k, row in enumerate(rows) if not _SYMBOL_ROW.fullmatch(row))
    raise ParseError(f"lane {lane} row {k}: expected 10 binary digits, got {rows[k]!r}")


def sample_rows(lane_outputs: list[np.ndarray], lanes: int, channels: int,
                start_lane_octet: int = 0) -> np.ndarray:
    """Reassemble decoded lane octets into (sample_index, channel, value) rows.

    Inverts the transmitter's sample interleaving: lane l's octet pair q
    is flat sample ``lanes * q + l``, high byte first.  Rows come out
    dense and ordered by flat sample index; a trailing unpaired octet is
    dropped.
    """
    cols = []
    for lane, octets in enumerate(lane_outputs):
        n_pairs = octets.shape[0] // 2
        if n_pairs == 0:
            continue
        o = octets[: 2 * n_pairs].reshape(n_pairs, 2).astype(np.uint16)
        values = (o[:, 0] << 8) | o[:, 1]
        q = (start_lane_octet // 2) + np.arange(n_pairs, dtype=np.int64)
        j = lanes * q + lane
        cols.append(np.stack([j, np.zeros_like(j), values.astype(np.int64)], axis=1))
    if not cols:
        return np.zeros((0, 3), dtype=np.int64)
    rows = np.concatenate(cols, axis=0)
    rows = rows[np.argsort(rows[:, 0], kind="stable")]
    j = rows[:, 0]
    rows[:, 1] = j % channels
    rows[:, 0] = j // channels
    return rows


def write_sample_csv(path: str, rows: np.ndarray) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(SAMPLE_CSV_HEADER + "\n")
        for s, c, v in rows:
            fh.write(f"{s},{c},{v}\n")


def read_sample_csv(path: str) -> np.ndarray:
    with open(path, encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != SAMPLE_CSV_HEADER:
            raise ParseError(f"unexpected CSV header {header!r}")
        rows = [tuple(int(x) for x in line.split(",")) for line in fh if line.strip()]
    return np.array(rows, dtype=np.int64).reshape(-1, 3)
