"""Golden outputs: stepped, fast and small-chunk runs reproduce fixed digests.

Each digest is the sha256 of the run's ``SimReport`` JSON (without
``fast_path_used``, the only field allowed to differ between drive
modes) followed by its event log and, where collected, the output
segments and received line symbols.  The digests were recorded with the
original per-cycle stepped loop, before the receiver was driven in
chunks, so every mode of the chunked driver is checked against the
behaviour it replaced.  The four transmitter-edge cases were recorded
while the transmitter still stepped once per cycle through CGS and the
alignment sequence, so they check its array form against stepping.
"""

import dataclasses
import hashlib
import json

import pytest

import jesd204b_sim.sim_harness as sh
from jesd204b_sim.captures import FORMAT_SYMBOL10, Capture
from jesd204b_sim.cli import decode_capture
from jesd204b_sim.config import LinkConfig
from jesd204b_sim.sim_harness import ChannelSpec, Simulation, SysrefSpec
from jesd204b_sim.tx_model import PayloadSpec

DURATION = 4000


def _case(name, *, L=2, F=4, K=32, scrambling=1, skew=(0, 0), ber=0.0,
          positions=None, seed=1, sysref=None, collect=False):
    return name, dict(cfg=LinkConfig(L=L, F=F, K=K, scrambling=scrambling),
                      channel=ChannelSpec(skew=list(skew), bit_error_rate=ber,
                                          error_positions=positions,
                                          rng_seed=seed),
                      payload=PayloadSpec(kind="random", seed=seed, channels=4),
                      sysref=sysref, collect=collect)


CASES = dict(
    [_case(f"scr{scr}-skew{a}_{b}-ber{ber:g}", scrambling=scr, skew=(a, b),
           ber=ber, seed=10 * scr + a + 7)
     for scr in (1, 0)
     for a, b in ((0, 0), (3, 9), (5, 38))
     for ber in (0.0, 1e-7, 1e-5, 1e-3)]
    + [
        _case("flip-in-cgs", positions=[(0, 40 * 12 + 7)]),
        _case("flip-in-ilas", skew=(2, 6), positions=[(1, 40 * 150 + 3)]),
        _case("three-isolated-flips", skew=(0, 4),
              positions=[(0, 40 * 700 + 5), (1, 40 * 1100 + 21),
                         (0, 40 * 1500 + 33)]),
        _case("burst-trips-threshold", skew=(0, 12),
              positions=[(0, 40 * (800 + i) + 11) for i in range(12)]),
        _case("collect-output-and-received", skew=(3, 9), ber=1e-5, seed=3,
              collect=True),
        _case("one-lane", L=1, F=8, K=16, skew=(7,), ber=1e-5, seed=4),
        _case("four-lanes", L=4, F=8, K=32, skew=(0, 5, 11, 2), ber=1e-5,
              seed=5),
        _case("shifted-sysref", skew=(5, 38), ber=1e-5, seed=6,
              sysref=SysrefSpec(first_cycle=51, tx_phase_offset_octets=12)),
        # Transmitter edges: the shortest multiframe, an alignment sequence
        # longer than several chunks, SYSREF once and SYSREF never.
        _case("fk20", F=4, K=5, skew=(3, 9), ber=1e-5, seed=8),
        _case("fk1024", F=32, K=32, skew=(5, 38), seed=9),
        _case("one-shot-sysref", skew=(0, 12),
              positions=[(0, 40 * (800 + i) + 11) for i in range(12)],
              sysref=SysrefSpec(period_multiframes=None)),
        _case("no-sysref", skew=(0, 4), ber=1e-5, seed=11,
              sysref=SysrefSpec(first_cycle=None)),
    ])

GOLDEN = {
    "burst-trips-threshold":
        "a3f4da2c53cbf64326e945d11f2c7d7c97c8b11267155ed3fda709aa3f994a8f",
    "collect-output-and-received":
        "269e50793ed5052c4c20a4f44c3e1b6c50593368439afbeae1dc63a8c5a29723",
    "fk1024":
        "492e228cbaa351d79357b502c27832a75e3a76087e320f875b9aa64ba49d593c",
    "fk20":
        "c2a7f786388d95b23c5b648d47c1b4f047f33afbe0fe1f2f59c220e64f8ff53d",
    "flip-in-cgs":
        "cdeb805fde268c23a205c8ac73b32a851604d2e21b99393ade71028a1878a072",
    "flip-in-ilas":
        "bc8a6a94ff157ab2aa86cbf669dfccdb5635b440d2bbf99925e19c823adbfb0d",
    "four-lanes":
        "93b4e9fd4404ab2f26779c0f86c43291d89926c47ec7cb4c5989aaf2e0399d1f",
    "no-sysref":
        "93dcfa4665fa3a583339a4d8b02b6cdfaf9106912857c010f158509f9c85b271",
    "one-lane":
        "0ff29ce316d0310d66a70068701797ed23753db2fa93baaa1bf037c88e61e01a",
    "one-shot-sysref":
        "c7ff8672603b0d220cde1c7f9a2b6633dfa11792fb1fa9c74f1bf494f1202de4",
    "scr0-skew0_0-ber0":
        "e28fe25c354777f591f5f08031f398e1483829d741269a6d15862c183ac82d22",
    "scr0-skew0_0-ber0.001":
        "75ead8b7406618e6890025c091cc4f07fc273241a0f96f218dfd6fbd6fd82004",
    "scr0-skew0_0-ber1e-05":
        "2659d4ef5f3f8a5080dc3c5d4ed46cab3eb2b9fbc76120e0e66dfd32b7593d50",
    "scr0-skew0_0-ber1e-07":
        "45f4c32eaf30019e505e10295699962d0c9f554c07eb0a36be761d26c3c4d410",
    "scr0-skew3_9-ber0":
        "82c1dd3b5690d0a07ab05e0eda39de85f14d623460a2610b396f9ae29d7e506a",
    "scr0-skew3_9-ber0.001":
        "dd7b173f1503fbc4cdc54392e040c09b22c1c84159226e4b74b3a27d076752a2",
    "scr0-skew3_9-ber1e-05":
        "fc1ad7ba06dde0931f017d207b2faa43c0a7cbb33b7f9840fe315843a842c04e",
    "scr0-skew3_9-ber1e-07":
        "69700890a3c20f99711dedc6b0b721e88778c85d218d971997a702110459358b",
    "scr0-skew5_38-ber0":
        "dd373d2247ca70ce0ebd58a243e8eee3732bcc285c5cac4470f782f204854ce1",
    "scr0-skew5_38-ber0.001":
        "64d1a2528c08ace40c380c70378cf8540a6de8b2570acee87730912b90fbd27c",
    "scr0-skew5_38-ber1e-05":
        "04f467d9a696eefdfe6586ca066ca11f1f977eff84ec0e74a52841ca553fca38",
    "scr0-skew5_38-ber1e-07":
        "d3cbda493b90a319885f301934faaacb626da56b6fbd66b719a5f0097eaf0729",
    "scr1-skew0_0-ber0":
        "8a3651a0c8de01f03467b366317484a9e5b798697c2888a2133c05f178665f37",
    "scr1-skew0_0-ber0.001":
        "dc9ef8a9ab7b35fb499459dc3f89f80159c00289644fb3eaa53f111f4f6769b8",
    "scr1-skew0_0-ber1e-05":
        "56ca254968a8954904b9939c9db03a8c353fde87ee4d706a50c8e6be4947e493",
    "scr1-skew0_0-ber1e-07":
        "d9d8b21ec904f2f64918a2a56a9979e1c0de6fccc69dae9c9987e97ae5490f83",
    "scr1-skew3_9-ber0":
        "910fb755159162167b519dacbab3132fe8d8b329d736f18f9d10f3b5d521618a",
    "scr1-skew3_9-ber0.001":
        "0672270e4673bfcf2f1b897d26c19f28e0f07bffdf4ca9dc28ee0f673cd6d739",
    "scr1-skew3_9-ber1e-05":
        "49474646d046483b0584e2deb1d1f8c577460dd44c301ce2e7f296ca70fa688a",
    "scr1-skew3_9-ber1e-07":
        "d45f48f84dbb1708e723bd4d71e190a1377f007bdececeb2b6fe9a712cfd94ce",
    "scr1-skew5_38-ber0":
        "38e941e7b6e97dcf319e8d1edad1fb315b30bf091f456b5f0943212b06a31f4e",
    "scr1-skew5_38-ber0.001":
        "fe284447c1b1929a14a11772b8964f0f8fcddd5bc31d73b1997fbfa1a2d4f5ee",
    "scr1-skew5_38-ber1e-05":
        "60789b3ef4a55589885ffda3bb57107ee052e97ee647217e85057406d19480df",
    "scr1-skew5_38-ber1e-07":
        "f4f9b1c12aa8a8fd23ca107ba5c05f313c93e259563e0eaac399a63f741cecf3",
    "shifted-sysref":
        "e05f2b37c45fc122c4e57e9e04ebe33c671d86ef86d4d02511f828dc9a0cca5a",
    "three-isolated-flips":
        "ffe10596b9224aefda62fe814227c70fc52a15615f2aa68c0991662ad8632e56",
}


def _run(case, fast=True):
    sim = Simulation(case["cfg"], payload=case["payload"],
                     channel=case["channel"],
                     sysref=dataclasses.replace(case["sysref"] or SysrefSpec()),
                     collect_output=case["collect"],
                     collect_received=case["collect"])
    rep = sim.run(DURATION, fast=fast)
    return sim, rep


def _digest(sim, rep, collect):
    report = dataclasses.asdict(rep)
    report.pop("fast_path_used")
    h = hashlib.sha256(json.dumps(report, sort_keys=True).encode())
    h.update("\n".join(rep.event_log).encode())
    if collect:
        for seg in sim.segments:
            for lane in seg.arrays():
                h.update(lane.tobytes())
        h.update(repr([seg.m0 for seg in sim.segments]).encode())
        for syms in sim.received_symbols:
            h.update(syms.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("mode", ["stepped", "fast", "fast-small-chunks"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_drive_modes_reproduce_golden_digest(name, mode, monkeypatch):
    case = CASES[name]
    if mode == "fast-small-chunks":
        monkeypatch.setattr(sh, "_TAIL_CHUNK_CYCLES", 96)
    sim, rep = _run(case, fast=mode != "stepped")
    assert _digest(sim, rep, case["collect"]) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(n for n, c in CASES.items()
                                        if c["channel"].bit_error_rate == 0
                                        and not c["channel"].error_positions))
def test_capture_replay_releases_on_live_cycle(name):
    case = CASES[name]
    sim = Simulation(case["cfg"], payload=case["payload"], channel=case["channel"],
                     collect_received=True)
    rep = sim.run(DURATION)
    cap = Capture(FORMAT_SYMBOL10, case["cfg"], 0, symbols=sim.received_symbols)
    rx, segments = decode_capture(cap)
    assert rep.t_release > 0
    assert rx.t_release == rep.t_release
    assert rx.resync_count == 0 and len(segments) == 1
