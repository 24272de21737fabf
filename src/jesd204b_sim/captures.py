"""Capture files and decoded-sample tables.

Two text formats hold per-lane line captures for offline replay, one
fixed-width row per symbol or character:

``symbol10``
    10 binary digits in transmission order.

``octet_flag``
    two hex digits (either case), a space, then ``K`` for a control
    character or ``D`` for data.  Its lanes are packed characters (see
    :mod:`.codec8b10b`); decode-error flags are not written.

Both start with a comment header carrying the format tag, a JSON echo of
the link configuration (validated on read), the creation seed and the
lane count; lanes follow as ``# lane <i>`` sections.  Rows are read
exactly as written, except that CRLF line ends and a missing final
newline are accepted: padding, a blank line or a row of the wrong width
is an error naming its lane and row.  Write then read is the identity.

A capture is read as bytes.  The file is mapped read-only, or read once
where it cannot be mapped (an empty file, a pipe or FIFO); only a file
holding a CR is copied, with CRLF and then a lone CR turned into LF, as
a text-mode read would.  Only the header is decoded as ASCII.  Each lane's
rows are a view of the buffer, decoded in blocks of ``_BLOCK_ROWS`` rows
through per-column tables of each byte's share of the row's value, so
reading holds the returned lanes plus one block of work space.  A
non-ASCII byte is an error like any other: in the header it makes a
malformed header, in a row it is reported with the row's lane and number.

Decoded samples are emitted as CSV with the fixed header
``sample_index,channel,value``: 16-bit values, dense and ordered by flat
sample index (sample j of the stream carries channel ``j mod C``).
"""

from __future__ import annotations

import json
import mmap
from dataclasses import dataclass

import numpy as np

from .codec8b10b import check_range
from .config import LinkConfig, ParseError

FORMAT_SYMBOL10 = "symbol10"
FORMAT_OCTET_FLAG = "octet_flag"
CAPTURE_FORMATS = (FORMAT_SYMBOL10, FORMAT_OCTET_FLAG)

SAMPLE_CSV_HEADER = "sample_index,channel,value"

_MAGIC = b"# jesd204b-sim capture v1"
_LANE = b"\n# lane "
_BLOCK_ROWS = 1 << 16   # rows decoded per pass of the share tables


def _row_table(columns: list, masks: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """A format's rows, each ending in a newline, and per column the part
    of the row's value each byte stands for (-1 where it is not allowed)."""
    rows = np.stack([*columns, np.full_like(columns[0], ord("\n"))], axis=1).astype(np.uint8)
    shares = np.full((rows.shape[1], 256), -1, dtype=np.int16)
    for col, mask in enumerate([*masks, 0]):
        shares[col, rows[:, col]] = np.arange(rows.shape[0]) & mask
    return rows, shares


# Row v of a format's table renders value v: a symbol, or a packed
# character without error flags.  Writing indexes the rows by value;
# reading ORs the shares of the columns.
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
    symbols: list[np.ndarray] | None = None   # symbol10 payload
    chars: list[np.ndarray] | None = None     # octet_flag packed characters


_FIELD = {FORMAT_SYMBOL10: "symbols", FORMAT_OCTET_FLAG: "chars"}   # each format's lanes


def write_capture(path: str, cap: Capture) -> None:
    """Write ``cap``: one lane per link lane, each holding symbols in
    0..0x3FF or packed characters in 0..0x7FF (else ValueError)."""
    if cap.fmt not in CAPTURE_FORMATS:
        raise ValueError(f"unknown capture format {cap.fmt!r}")
    values = [np.asarray(v) for v in getattr(cap, _FIELD[cap.fmt])]
    if len(values) != cap.config.L:
        raise ValueError(f"capture has {len(values)} lanes but its config has L={cap.config.L}")
    for v in values:
        check_range(v, 0x3FF if cap.fmt == FORMAT_SYMBOL10 else 0x7FF, _FIELD[cap.fmt])
    rows, _ = _TABLES[cap.fmt]
    with open(path, "wb") as fh:
        fh.write(f"{_MAGIC.decode()}\n# format: {cap.fmt}\n"
                 f"# config: {json.dumps(cap.config.to_dict(), sort_keys=True)}\n"
                 f"# seed: {cap.seed}\n# lanes: {len(values)}\n".encode("ascii"))
        for lane, v in enumerate(values):
            fh.write(f"# lane {lane}\n".encode("ascii"))
            # Masking to the table drops an octet_flag character's error flags.
            fh.write(rows[v & (rows.shape[0] - 1)])


def read_capture(path: str) -> Capture:
    """Parse a capture; the embedded configuration must validate."""
    buf = _file_bytes(path)
    if buf.find(b"\r") >= 0:   # as a text-mode read translates line ends
        buf = buf[:].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if buf[-1:] != b"\n":
        buf = buf[:] + b"\n"
    end = len(buf) - 1   # the final newline, which ends the last row
    starts = []          # of each lane section's label
    at = buf.find(_LANE, 0, end)
    head = buf[: at if at >= 0 else end]
    while at >= 0:
        starts.append(at + len(_LANE))
        at = buf.find(_LANE, starts[-1], end)

    if head.split(b"\n", 1)[0] != _MAGIC:
        raise ParseError("not a capture file (missing magic line)")
    try:
        lines = head.decode("ascii").split("\n")[1:]
    except UnicodeDecodeError as exc:
        line = head.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"malformed capture header: non-ASCII byte "
                         f"{head[exc.start]:#04x} in line {line}") from exc
    meta: dict[str, str] = {}
    for line in lines:
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
    cfg = LinkConfig.from_dict(cfg_dict)
    if lanes != cfg.L:
        raise ParseError(f"capture has {lanes} lanes but its config has L={cfg.L}")

    if len(starts) != lanes:
        raise ParseError(f"expected {lanes} lane sections, found {len(starts)}")
    # A section ends at the newline before the next marker, or the final one.
    stops = [start - len(_LANE) + 1 for start in starts[1:]] + [end + 1]
    values = []
    for lane, (start, stop) in enumerate(zip(starts, stops)):
        rows = buf.find(b"\n", start, stop) + 1
        label = buf[start : rows - 1]
        if label != str(lane).encode():
            raise ParseError(f"lane section {lane} is labelled "
                             f"{label.decode('ascii', 'replace')!r}")
        values.append(_row_values(lane, buf, rows, stop, fmt))
    return Capture(fmt, cfg, seed, **{_FIELD[fmt]: values})


def _file_bytes(path: str):
    """The file's bytes: mapped read-only, or read once where a file cannot
    be mapped (an empty file, a pipe or FIFO).  A map is unmapped when its
    last view goes, so the caller keeps none past its return."""
    with open(path, "rb") as fh:
        try:
            return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError):
            return fh.read()


def _row_values(lane: int, buf, start: int, stop: int, fmt: str) -> np.ndarray:
    """Values of one lane's rows, ``buf[start:stop]``, read as an (n, width)
    byte table in blocks of rows.  Rows before the first malformed line
    fill whole table rows, so the first failing table row (or else the
    remainder) is that line."""
    _, shares = _TABLES[fmt]
    width = shares.shape[0]
    n, extra = divmod(stop - start, width)
    table = np.frombuffer(buf, dtype=np.uint8, count=n * width, offset=start).reshape(n, width)
    values = np.empty(n, dtype=np.int16)
    columns = np.empty((width, min(n, _BLOCK_ROWS)), dtype=np.uint8)
    share = np.empty(columns.shape[1], dtype=np.int16)
    k = n
    for first in range(0, n, _BLOCK_ROWS):
        block = values[first : first + _BLOCK_ROWS]
        cols = columns[:, : block.shape[0]]
        np.copyto(cols, table[first : first + _BLOCK_ROWS].T)
        np.take(shares[0], cols[0], out=block, mode="clip")
        for lut, column in zip(shares[1:], cols[1:]):
            block |= np.take(lut, column, out=share[: block.shape[0]], mode="clip")
        if block.min() < 0:   # a bad byte's -1 sets every bit
            k = first + int(np.flatnonzero(block < 0)[0])
            break
    if extra or k < n:
        expected = ("10 binary digits" if fmt == FORMAT_SYMBOL10
                    else "two hex digits, a space and K or D")
        at = start + k * width
        row = buf[at : buf.find(b"\n", at, stop)].decode("ascii", "replace")
        raise ParseError(f"lane {lane} row {k}: expected {expected}, got {row!r}")
    return values.view(np.uint16)


def sample_rows(lane_outputs: list[np.ndarray], channels: int,
                start_lane_octet: int = 0) -> np.ndarray:
    """Reassemble decoded lane octets into (sample_index, channel, value) rows.

    Inverts the transmitter's sample interleaving: with L lanes, lane l's
    octet pair q is flat sample ``L * q + l``, high byte first.  The lanes
    release in lockstep, so they must be equally long (else ValueError).
    Rows come out dense and ordered by flat sample index; a trailing
    unpaired octet is dropped.
    """
    if len({octets.shape[0] for octets in lane_outputs}) != 1:
        raise ValueError("sample_rows needs one or more lanes of equal length")
    n_pairs = lane_outputs[0].shape[0] // 2
    o = np.stack([octets[: 2 * n_pairs] for octets in lane_outputs], axis=1).astype(np.int64)
    values = (o[0::2] << 8 | o[1::2]).ravel()
    j = len(lane_outputs) * (start_lane_octet // 2) + np.arange(values.shape[0], dtype=np.int64)
    return np.stack([j // channels, j % channels, values], axis=1)


def write_sample_csv(path: str, rows: np.ndarray) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(SAMPLE_CSV_HEADER + "\n")
        fh.writelines(f"{s},{c},{v}\n" for s, c, v in rows.tolist())
