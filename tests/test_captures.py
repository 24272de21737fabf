"""Capture files: pinned bytes, exhaustive round trips, replay at any bit phase."""

import hashlib
import json

import numpy as np
import pytest

from jesd204b_sim import codec8b10b as codec
from jesd204b_sim.captures import (FORMAT_OCTET_FLAG, FORMAT_SYMBOL10, Capture,
                                   read_capture, sample_rows, write_capture)
from jesd204b_sim.cli import EXIT_OK, decode_capture, main
from jesd204b_sim.codec8b10b import serialize
from jesd204b_sim.config import LinkConfig
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
    rows = sample_rows(lanes, 2, 3, start_lane_octet=4)
    assert rows.tolist() == [[1, 1, 258], [1, 2, 1286], [2, 0, 772], [2, 1, 1800]]


def test_sample_rows_reject_unequal_lanes():
    # Lanes release in lockstep; unequal lanes would leave gaps in the
    # sample index.
    with pytest.raises(ValueError):
        sample_rows([np.array([1, 2], np.uint8), np.array([5, 6, 7, 8], np.uint8)], 2, 1)


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
