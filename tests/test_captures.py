"""Capture files: pinned bytes, exhaustive round trips, replay at any bit phase."""

import hashlib
import json
import os
import threading
import tracemalloc

import numpy as np
import pytest

from jesd204b_sim import codec8b10b as codec
from jesd204b_sim.captures import (FORMAT_OCTET_FLAG, FORMAT_SYMBOL10, Capture,
                                   read_capture, sample_rows, write_capture)
from jesd204b_sim.cli import EXIT_OK, decode_capture, main
from jesd204b_sim.codec8b10b import serialize
from jesd204b_sim.config import LinkConfig, ParseError
from jesd204b_sim.sim_harness import ChannelSpec, Simulation

# sha256 of `gen --cycles 1500` output, recorded before the capture
# formats became fixed-width byte tables.
GEN_SHA256 = {
    ("clean", FORMAT_SYMBOL10):
        "f202630180362a1ee3db62c67e0dbaaacdb3b319201104d96ec5151dfca58c83",
    ("clean", FORMAT_OCTET_FLAG):
        "0c58ab3271e86c904d7019e3da3cb91a5b4b1877c931bbb97482cd6b6edcf8a1",
    ("ber", FORMAT_SYMBOL10):
        "6add27ac33371e4e1eb9122e3f38dacb1f296656a34184e6a3d5db52e775f9f8",
    ("ber", FORMAT_OCTET_FLAG):
        "e3da321a6bc88651a6e6b8aab202fe17b91ff0a17e04d569152f2c179e8dba8a",
}
CHANNELS = {
    "clean": {"skew": [5, 38]},
    "ber": {"skew": [3, 21], "bit_error_rate": 1e-4},
}


@pytest.mark.parametrize("fmt", [FORMAT_SYMBOL10, FORMAT_OCTET_FLAG])
@pytest.mark.parametrize("channel", sorted(CHANNELS))
def test_gen_bytes_pinned(tmp_path, channel, fmt):
    cfgp = tmp_path / "link.json"
    cfgp.write_text(json.dumps({"L": 2, "F": 4, "K": 32, "scrambling": 1,
                                "channel": CHANNELS[channel]}))
    cap = tmp_path / "cap.txt"
    assert main(["gen", "--config", str(cfgp), "--out", str(cap),
                 "--format", fmt, "--cycles", "1500"]) == EXIT_OK
    assert hashlib.sha256(cap.read_bytes()).hexdigest() == GEN_SHA256[channel, fmt]
    if channel == "ber" and fmt == FORMAT_SYMBOL10:
        symbols = np.concatenate(read_capture(str(cap)).symbols)
        assert (codec.DEC_CHAR[codec.RD_NEG, symbols] & codec.NIT_FLAG).any()


def test_every_symbol_round_trips(tmp_path):
    cfg = LinkConfig(L=2, F=4, K=32)
    symbols = [np.arange(1024, dtype=np.uint16), np.arange(1023, -1, -1, dtype=np.uint16)]
    path = str(tmp_path / "sym.cap")
    write_capture(path, Capture(FORMAT_SYMBOL10, cfg, 7, symbols=symbols))
    back = read_capture(path)
    assert (back.fmt, back.config, back.seed) == (FORMAT_SYMBOL10, cfg, 7)
    assert all(np.array_equal(a, b) for a, b in zip(back.symbols, symbols))


def test_every_character_round_trips(tmp_path):
    cfg = LinkConfig(L=1, F=4, K=32)
    chars = np.arange(512, dtype=np.uint16)    # every octet as data, then as control
    path = str(tmp_path / "chars.cap")
    write_capture(path, Capture(FORMAT_OCTET_FLAG, cfg, 0, chars=[chars]))
    got, = read_capture(path).chars
    assert np.array_equal(got, chars) and got.dtype == np.uint16


# write_capture refuses what read_capture would refuse or misread: a lane
# count other than L, and values that masking would turn into valid rows.
@pytest.mark.parametrize("fmt,lanes", [
    (FORMAT_SYMBOL10, [[469], [469], [469]]),
    (FORMAT_SYMBOL10, [[469], [0x400 | 469]]),   # was written as 469
    (FORMAT_OCTET_FLAG, [[0x41], [0x800 | 0x41]]),
    (FORMAT_OCTET_FLAG, [[0x41], [-1]]),
], ids=["symbol10-3-lanes", "symbol10-0x5D5", "octet_flag-0x841", "octet_flag--1"])
def test_write_rejects_what_read_rejects(tmp_path, fmt, lanes):
    path = tmp_path / "bad.cap"
    field = "symbols" if fmt == FORMAT_SYMBOL10 else "chars"
    cap = Capture(fmt, LinkConfig(L=2, F=4, K=32), 0,
                  **{field: [np.array(v) for v in lanes]})
    with pytest.raises(ValueError):
        write_capture(str(path), cap)
    assert not path.exists()


def test_octet_flag_replay_takes_any_integer_dtype(live_run):
    # Library callers may build a capture from plain integer arrays.
    cfg, sim, report, unshifted = live_run
    chars = [codec.decode_stream(syms)[0] for syms in sim.received_symbols]
    for dtype in (np.uint16, np.int64):
        rx, segments = decode_capture(Capture(FORMAT_OCTET_FLAG, cfg, 0, chars=[
            lane.astype(dtype) for lane in chars]))
        assert rx.t_release == report.t_release
        assert all(np.array_equal(a, b) for a, b in zip(segments[0].arrays(), unshifted))


@pytest.mark.parametrize("change", [
    lambda lane: lane.astype(np.int64) + 0x10000,
    lambda lane: lane.astype(np.int64) - 0x10000,
    lambda lane: lane.astype(np.float64),
], ids=["plus-0x10000", "minus-0x10000", "float64"])
def test_octet_flag_replay_rejects_out_of_range(live_run, change):
    # Each of these once decoded exactly like the unchanged capture.
    cfg, sim, _, _ = live_run
    chars = [change(codec.decode_stream(syms)[0]) for syms in sim.received_symbols]
    with pytest.raises(ValueError, match="chars"):
        decode_capture(Capture(FORMAT_OCTET_FLAG, cfg, 0, chars=chars))


def test_sample_rows_number_lanes_in_lockstep():
    # L=2, three channels, from lane octet 4: lane l's pair q is flat
    # sample 2 * (2 + q) + l.
    lanes = [np.array([1, 2, 3, 4], np.uint8), np.array([5, 6, 7, 8], np.uint8)]
    rows = sample_rows(lanes, 3, start_lane_octet=4)
    assert rows.tolist() == [[1, 1, 258], [1, 2, 1286], [2, 0, 772], [2, 1, 1800]]


def test_sample_rows_reject_unequal_lanes():
    # Lanes release in lockstep; unequal lanes would leave gaps in the
    # sample index.
    with pytest.raises(ValueError):
        sample_rows([np.array([1, 2], np.uint8), np.array([5, 6, 7, 8], np.uint8)], 1)


def _words(bits):
    """What a deserializer delivers: consecutive 10-bit groups, tail dropped."""
    n = bits.shape[0] // 10
    weights = 1 << np.arange(9, -1, -1)
    return (bits[: 10 * n].reshape(n, 10) @ weights).astype(np.uint16)


@pytest.fixture(scope="module")
def live_run():
    cfg = LinkConfig(L=2, F=4, K=32)
    sim = Simulation(cfg, channel=ChannelSpec(skew=[5, 38]), collect_received=True)
    report = sim.run(1500)
    _, segments = decode_capture(Capture(FORMAT_SYMBOL10, cfg, 0,
                                         symbols=sim.received_symbols))
    assert report.t_release > 0 and len(segments) == 1
    return cfg, sim, report, segments[0].arrays()


@pytest.mark.parametrize("k", range(10))
def test_replay_at_every_bit_phase(live_run, k):
    # k junk bits ahead of each lane shift every symbol boundary by k;
    # alignment drops the partial first word, and with it the last cycle.
    cfg, sim, report, unshifted = live_run
    junk = (np.arange(k) % 2).astype(np.uint8)
    lanes = [_words(np.concatenate([junk, serialize(s)])) for s in sim.received_symbols]
    rx, segments = decode_capture(Capture(FORMAT_SYMBOL10, cfg, 0, symbols=lanes))
    assert rx.t_release == report.t_release
    assert rx.resync_count == 0 and len(segments) == 1
    for got, want in zip(segments[0].arrays(), unshifted):
        assert got.shape[0] == want.shape[0] - (4 if k else 0)
        assert np.array_equal(got, want[: got.shape[0]])


# Reader parity: each case edits a small capture; the values or the exact
# ParseError text were recorded from the text-mode reader that the
# byte-level reader replaced.
def _small_captures(tmp_path):
    sym, octs = tmp_path / "base.sym", tmp_path / "base.oct"
    write_capture(str(sym), Capture(FORMAT_SYMBOL10, LinkConfig(L=2, F=4, K=32), 3, symbols=[
        np.array([469, 0, 1023]), np.array([0x155, 1, 512])]))
    write_capture(str(octs), Capture(FORMAT_OCTET_FLAG, LinkConfig(L=1, F=4, K=32), 5, chars=[
        np.array([0x4A, 0x1BC, 0xFF])]))
    return sym.read_bytes(), octs.read_bytes()


SYMBOLS = (FORMAT_SYMBOL10, 3, [[469, 0, 1023], [341, 1, 512]])
ROW = "lane {} row {}: expected 10 binary digits, got {!r}"
PARITY = {
    "empty": (lambda s, o: b"", "not a capture file (missing magic line)"),
    "no-magic": (lambda s, o: s.split(b"\n", 1)[1], "not a capture file (missing magic line)"),
    "junk-header": (lambda s, o: s.replace(b"\n", b"\njunk\n", 1),
                    "malformed capture header line 'junk'"),
    "header-only": (lambda s, o: s[: s.index(b"# lane 0\n")], "expected 2 lane sections, found 0"),
    "missing-lane": (lambda s, o: s[: s.index(b"# lane 1\n")], "expected 2 lane sections, found 1"),
    "extra-lane": (lambda s, o: s + b"# lane 2\n0111010101\n", "expected 2 lane sections, found 3"),
    "bad-row-and-missing-lane": (
        lambda s, o: s[: s.index(b"# lane 1\n")].replace(b"0000000000", b"000000000x"),
        "expected 2 lane sections, found 1"),
    "mislabelled": (lambda s, o: s.replace(b"# lane 1\n", b"# lane 01\n"),
                    "lane section 1 is labelled '01'"),
    "label-space": (lambda s, o: s.replace(b"# lane 1\n", b"# lane 1 \n"),
                    "lane section 1 is labelled '1 '"),
    "short-last-row": (lambda s, o: s[:-2] + b"\n", ROW.format(1, 2, "100000000")),
    "trailing-byte": (lambda s, o: s + b"0", ROW.format(1, 3, "0")),
    "blank-last-line": (lambda s, o: s + b"\n", ROW.format(1, 3, "")),
    "crlf-blank-last-line": (lambda s, o: s.replace(b"\n", b"\r\n") + b"\r\n",
                             ROW.format(1, 3, "")),
    "bad-digit": (lambda s, o: s.replace(b"0000000000\n", b"0000000200\n", 1),
                  ROW.format(0, 1, "0000000200")),
    "padded-row": (lambda s, o: s.replace(b"0000000000\n", b"0000000000 \n", 1),
                   ROW.format(0, 1, "0000000000 ")),
    "lowercase-flag": (lambda s, o: o.replace(b"BC K", b"BC k"),
                       "lane 0 row 1: expected two hex digits, a space and K or D, got 'BC k'"),
    "crlf": (lambda s, o: s.replace(b"\n", b"\r\n"), SYMBOLS),
    "lone-cr": (lambda s, o: s.replace(b"\n", b"\r"), SYMBOLS),
    "no-final-newline": (lambda s, o: s[:-1], SYMBOLS),
    "empty-lane": (lambda s, o: s[: s.index(b"# lane 1\n")] + b"# lane 1\n",
                   (FORMAT_SYMBOL10, 3, [[469, 0, 1023], []])),
    "lowercase-hex": (lambda s, o: o.replace(b"4A D", b"4a D").replace(b"BC K", b"bC K")
                      .replace(b"FF D", b"ff D"), (FORMAT_OCTET_FLAG, 5, [[74, 444, 255]])),
}


def _outcome(path):
    """What reading ``path`` gives: (format, seed, lanes) or the error text."""
    try:
        cap = read_capture(str(path))
    except ParseError as exc:
        return str(exc)
    lanes = cap.symbols if cap.fmt == FORMAT_SYMBOL10 else cap.chars
    assert all(lane.dtype == np.uint16 for lane in lanes)
    return cap.fmt, cap.seed, [lane.tolist() for lane in lanes]


@pytest.mark.parametrize("case", [*sorted(PARITY), pytest.param("fifo", marks=pytest.mark.skipif(
    not hasattr(os, "mkfifo"), reason="needs named pipes"))])
def test_reader_parity(tmp_path, case):
    edit, want = PARITY.get(case, (lambda s, o: s, SYMBOLS))
    data = edit(*_small_captures(tmp_path))
    path = tmp_path / "case.cap"
    if case != "fifo":
        path.write_bytes(data)
        assert _outcome(path) == want
        return
    # A FIFO cannot be mapped; it is read once instead.
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_bytes, args=(data,))
    writer.start()
    try:
        assert _outcome(path) == want
    finally:
        writer.join(timeout=30)
    assert not writer.is_alive()


@pytest.mark.parametrize("at,want", [
    (b"0000000001\n", ROW.format(1, 1, "000000\ufffd001")),
    (b"# seed: 3\n", "malformed capture header: non-ASCII byte 0xff in line 4"),
], ids=["row", "header"])
def test_non_ascii_byte_is_located(tmp_path, at, want):
    # It once escaped as a UnicodeDecodeError naming only a file offset.
    data, _ = _small_captures(tmp_path)
    path = tmp_path / "bad.cap"
    path.write_bytes(data.replace(at, at[:6] + b"\xff" + at[7:]))
    with pytest.raises(ParseError) as info:
        read_capture(str(path))
    assert str(info.value) == want


def _read_edited(tmp_path, old, new):
    data, _ = _small_captures(tmp_path)
    path = tmp_path / "edited.cap"
    path.write_bytes(data.replace(old, new))
    read_capture(str(path))


INT_ERROR = "malformed capture header: invalid literal for int() with base 10: {!r}"


@pytest.mark.parametrize("act,exc,message", [
    (lambda p: _read_edited(p, b"# seed: 3\n", b"# seed: x3\n"),
     ParseError, INT_ERROR.format("x3")),
    (lambda p: _read_edited(p, b"# lanes: 2\n", b"# lanes: two\n"),
     ParseError, INT_ERROR.format("two")),
    (lambda p: _read_edited(p, b"# format: symbol10\n", b"# format: symbol8\n"),
     ParseError, "unknown capture format 'symbol8'"),
    (lambda p: write_capture(str(p / "w.cap"), Capture(
        "symbol8", LinkConfig(L=1, F=4, K=32), 0, symbols=[np.zeros(3, np.uint16)])),
     ValueError, "unknown capture format 'symbol8'"),
], ids=["read-seed", "read-lanes", "read-format", "write-format"])
def test_header_values_checked(tmp_path, act, exc, message):
    with pytest.raises(exc) as info:
        act(tmp_path)
    assert type(info.value) is exc and str(info.value) == message


def test_read_memory_is_the_arrays_plus_one_block(tmp_path):
    # The file is mapped, not copied: reading 2^18 rows per lane allocates
    # the uint16 lanes plus one block of decode buffers.
    rows = 1 << 18
    rng = np.random.default_rng(0)
    symbols = [rng.integers(0, 1024, rows) for _ in range(2)]
    path = str(tmp_path / "long.cap")
    write_capture(path, Capture(FORMAT_SYMBOL10, LinkConfig(L=2, F=4, K=32), 0, symbols=symbols))
    tracemalloc.start()
    try:
        cap = read_capture(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(np.array_equal(a, b) for a, b in zip(cap.symbols, symbols))
    assert peak < 3 * 2 * rows + (1 << 20)
