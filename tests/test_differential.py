"""Differential test: stepped, fast and replayed runs agree on drawn links.

Each draw is a valid configuration taken with a fixed seed from the
whole space that ``validate_config`` accepts (L 1..32, F 4..32, F*K up
to 1024, non-default buffer depth, thresholds, stability and release
offset, both ILAS policies and checksum rules), with a ramp, sine or
random payload, SYSREF absent, one-shot or periodic with a shifted
transmitter grid, per-lane skews up to F*K/2, and a bit-error rate or
explicit flips.  The run length covers bring-up plus some data.

Every draw runs stepped and fast; the two must give the same report
(without ``fast_path_used``), the same released output segments and the
same line symbols.  A clean draw that releases is also written as a
``symbol10`` capture and replayed with its SYSREF: the replay must
release on the live cycle and produce the same output.
"""

import dataclasses

import numpy as np
import pytest

from jesd204b_sim.captures import FORMAT_SYMBOL10, Capture
from jesd204b_sim.cli import decode_capture
from jesd204b_sim.config import (CHECKSUM_RULES, ILAS_POLICIES, LinkConfig,
                                 validate_config)
from jesd204b_sim.sim_harness import ChannelSpec, Simulation, SysrefSpec
from jesd204b_sim.tx_model import PAYLOAD_KINDS, PayloadSpec

SEED = 20261018
DRAWS = 40


def _draw(index):
    rng = np.random.default_rng((SEED, index))

    def pick(options, weights=None):
        return options[int(rng.choice(len(options), p=weights))]

    # Lane counts log-uniform over 1..32 keep the stepped reference cheap
    # while still reaching wide links.
    L = int(2 ** rng.uniform(0, 5))
    F = 4 * int(rng.integers(1, 9))
    K = int(rng.integers(max(1, -(-17 // F)), min(32, 1024 // F) + 1))
    fk = F * K
    cfg = validate_config(LinkConfig(
        L=L, F=F, K=K,
        scrambling=bool(rng.integers(2)),
        buffer_depth=int(rng.integers(fk // 2, 4 * fk + 1)),
        cgs_threshold=int(rng.integers(1, 9)),
        error_threshold=int(rng.integers(1, 9)),
        stability_cycles=int(rng.integers(0, 33)),
        release_offset=int(rng.integers(0, fk)),
        ilas_policy=pick(ILAS_POLICIES),
        fchk_rule=pick(CHECKSUM_RULES)))

    payload = PayloadSpec(kind=pick(PAYLOAD_KINDS), seed=int(rng.integers(1 << 16)),
                          channels=int(rng.integers(1, 5)),
                          period=int(rng.integers(2, 40)),
                          step=int(rng.integers(1, 5)))

    mode = pick(("absent", "one-shot", "periodic"), (0.15, 0.3, 0.55))
    sysref = SysrefSpec(
        first_cycle=None if mode == "absent" else int(rng.integers(0, 40)),
        period_multiframes=int(rng.integers(1, 9)) if mode == "periodic" else None,
        tx_phase_offset_octets=4 * int(rng.integers(0, fk // 4)) if rng.random() < 0.3 else 0)

    skew = [int(s) for s in rng.integers(0, fk // 2 + 1, L)]
    first = sysref.first_cycle or 0
    duration = (first + (32 + max(skew)) // 4 + cfg.stability_cycles
                + 10 * fk // 4 + 128)
    impairment = pick(("clean", "ber", "flips"), (0.45, 0.3, 0.25))
    ber, positions = 0.0, None
    if impairment == "ber":
        ber = pick((1e-6, 1e-4))
    elif impairment == "flips":
        positions = [(int(rng.integers(L)), int(rng.integers(40 * duration)))
                     for _ in range(int(rng.integers(1, 5)))]
    channel = ChannelSpec(skew=skew, bit_error_rate=ber, error_positions=positions,
                          rng_seed=int(rng.integers(1 << 16)))
    return cfg, payload, channel, sysref, duration


def _run(draw, fast):
    cfg, payload, channel, sysref, duration = draw
    sim = Simulation(cfg, payload=payload, channel=channel,
                     sysref=dataclasses.replace(sysref),
                     collect_output=True, collect_received=True)
    report = dataclasses.asdict(sim.run(duration, fast=fast))
    report.pop("fast_path_used")
    return sim, report


@pytest.mark.parametrize("index", range(DRAWS))
def test_stepped_fast_and_replay_agree(index):
    draw = _draw(index)
    cfg, _, channel, sysref, _ = draw
    stepped, stepped_report = _run(draw, fast=False)
    fast, fast_report = _run(draw, fast=True)
    assert fast_report == stepped_report
    assert fast.segment_tx_starts == stepped.segment_tx_starts
    assert len(fast.output_segments) == len(stepped.output_segments)
    for got, want in zip(fast.output_segments, stepped.output_segments):
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert all(np.array_equal(a, b) for a, b in
               zip(fast.received_symbols, stepped.received_symbols))

    clean = channel.bit_error_rate == 0 and not channel.error_positions
    if not clean or fast_report["t_release"] < 0:
        return
    cap = Capture(FORMAT_SYMBOL10, cfg, 0, symbols=fast.received_symbols)
    rx, segments = decode_capture(cap, sysref=sysref)
    assert rx.t_release == fast_report["t_release"]
    assert len(segments) == len(fast.output_segments)
    for got, want in zip(segments, fast.output_segments):
        assert all(np.array_equal(a, b) for a, b in zip(got.arrays(), want))
