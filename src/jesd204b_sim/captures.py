"""Capture files and decoded-sample tables.

Two text formats hold per-lane line captures for offline replay, one
fixed-width row per symbol or character:

``symbol10``
    10 binary digits in transmission order.

``octet_flag``
    two hex digits (either case), a space, then ``K`` for a control
    character or ``D`` for data.

Both start with a comment header carrying the format tag, a JSON echo of
the link configuration (validated on read), the creation seed and the
lane count; lanes follow as ``# lane <i>`` sections.  Rows are read
exactly as written, except that CRLF line ends and a missing final
newline are accepted: padding, a blank line or a row of the wrong width
is an error naming its lane and row.  Write then read is the identity.

Decoded samples are emitted as CSV with the fixed header
``sample_index,channel,value``: 16-bit values, dense and ordered by flat
sample index (sample j of the stream carries channel ``j mod C``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .config import LinkConfig, ParseError, validate_config

FORMAT_SYMBOL10 = "symbol10"
FORMAT_OCTET_FLAG = "octet_flag"
CAPTURE_FORMATS = (FORMAT_SYMBOL10, FORMAT_OCTET_FLAG)

SAMPLE_CSV_HEADER = "sample_index,channel,value"

_MAGIC = "# jesd204b-sim capture v1"
_LANE = "\n# lane "


def _row_table(columns: list, masks: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """A format's rows, each ending in a newline, and per column the part
    of the row's value each byte stands for (-1 where it is not allowed)."""
    rows = np.stack([*columns, np.full_like(columns[0], ord("\n"))], axis=1).astype(np.uint8)
    shares = np.full((rows.shape[1], 256), -1, dtype=np.int32)
    for col, mask in enumerate([*masks, 0]):
        shares[col, rows[:, col]] = np.arange(rows.shape[0]) & mask
    return rows, shares


# Row v of a format's table renders value v: a symbol, or ctrl << 8 | octet.
# Writing indexes the rows by value; reading ORs the shares of the columns.
_DIGITS = np.frombuffer(b"0123456789ABCDEF", dtype=np.uint8)
_V = np.arange(1024)
_TABLES = {
    FORMAT_SYMBOL10: _row_table([_DIGITS[(_V >> b) & 1] for b in range(9, -1, -1)],
                                [1 << b for b in range(9, -1, -1)]),
    FORMAT_OCTET_FLAG: _row_table([_DIGITS[(_V[:512] >> 4) & 0xF], _DIGITS[_V[:512] & 0xF],
                                   np.full(512, ord(" ")),
                                   np.where(_V[:512] >> 8, ord("K"), ord("D"))],
                                  [0xF0, 0x0F, 0, 0x100]),
}
_HEX_SHARES = _TABLES[FORMAT_OCTET_FLAG][1][:2]
_HEX_SHARES[:, np.frombuffer(b"abcdef", dtype=np.uint8)] = _HEX_SHARES[:, _DIGITS[10:]]


@dataclass
class Capture:
    """One per-lane line capture plus its metadata header."""

    fmt: str
    config: LinkConfig
    seed: int
    symbols: list[np.ndarray] | None = None          # symbol10 payload
    chars: list[tuple[np.ndarray, np.ndarray]] | None = None  # (octets, ctrl)


def write_capture(path: str, cap: Capture) -> None:
    if cap.fmt not in CAPTURE_FORMATS:
        raise ValueError(f"unknown capture format {cap.fmt!r}")
    rows, _ = _TABLES[cap.fmt]
    if cap.fmt == FORMAT_SYMBOL10:
        lanes = [rows[np.asarray(syms) & 0x3FF] for syms in cap.symbols]
    else:
        lanes = [rows[np.asarray(ctrl, dtype=bool) * 256 + (np.asarray(octets) & 0xFF)]
                 for octets, ctrl in cap.chars]
    with open(path, "wb") as fh:
        fh.write(f"{_MAGIC}\n# format: {cap.fmt}\n"
                 f"# config: {json.dumps(cap.config.to_dict(), sort_keys=True)}\n"
                 f"# seed: {cap.seed}\n# lanes: {len(lanes)}\n".encode("ascii"))
        for lane, table in enumerate(lanes):
            fh.write(f"# lane {lane}\n".encode("ascii") + table.tobytes())


def read_capture(path: str) -> Capture:
    """Parse a capture; the embedded configuration must validate."""
    with open(path, encoding="ascii") as fh:
        text = fh.read()
    head, found, body = text.removesuffix("\n").partition(_LANE)
    lines = head.split("\n")
    if lines[0] != _MAGIC:
        raise ParseError("not a capture file (missing magic line)")
    meta: dict[str, str] = {}
    for line in lines[1:]:
        key, colon, value = line.partition(":")
        if not (key.startswith("#") and colon):
            raise ParseError(f"malformed capture header line {line!r}")
        meta[key[1:].strip()] = value.strip()
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

    # Splitting at the lane markers takes each section's final newline.
    sections = [section + "\n" for section in body.split(_LANE)] if found else []
    if len(sections) != lanes:
        raise ParseError(f"expected {lanes} lane sections, found {len(sections)}")
    values = []
    for lane, section in enumerate(sections):
        label, _, rows = section.partition("\n")
        if label != str(lane):
            raise ParseError(f"lane section {lane} is labelled {label!r}")
        values.append(_row_values(lane, rows, fmt))
    if fmt == FORMAT_SYMBOL10:
        return Capture(fmt, cfg, seed, symbols=[v.astype(np.uint16) for v in values])
    return Capture(fmt, cfg, seed, chars=[((v & 0xFF).astype(np.uint8), v >= 256)
                                          for v in values])


def _row_values(lane: int, rows: str, fmt: str) -> np.ndarray:
    """Values of one lane's rows, read as an (n, width) byte table.  Rows
    before the first malformed line fill whole table rows, so the first
    failing table row (or else the remainder) is that line."""
    _, shares = _TABLES[fmt]
    width = shares.shape[0]
    raw = np.frombuffer(rows.encode("ascii"), dtype=np.uint8)
    n, extra = divmod(raw.shape[0], width)
    values = np.zeros(n, dtype=np.int32)
    for lut, column in zip(shares, raw[: n * width].reshape(n, width).T):
        values |= np.take(lut, column)  # a bad byte's -1 sets every bit
    bad = np.flatnonzero(values < 0)
    if extra or bad.size:
        k = int(bad[0]) if bad.size else n
        expected = ("10 binary digits" if fmt == FORMAT_SYMBOL10
                    else "two hex digits, a space and K or D")
        row = rows.split("\n")[k]
        raise ParseError(f"lane {lane} row {k}: expected {expected}, got {row!r}")
    return values


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
