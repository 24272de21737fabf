"""Every accepted (F, K) pair at L = 1 and 2: recovery and agreement.

F is a multiple of 4 in 4..32 and F*K lies in 17..1024, so
``LinkConfig`` accepts 248 (F, K) pairs; each runs at L = 1 and 2,
with the lanes at the extreme skews 0 and F*K/2 (L = 1 takes F*K/2).
The smallest and largest K of each F also run at L = 32, with the lane
skews spread evenly over 0..F*K/2.

Recovery: one bit flip on lane 0 after the first release, with
``error_threshold`` 1, so the flip is the whole burst.  The link must
resync exactly once, release again with the first release's latency and
match its payload in both segments.  With a higher threshold, flips
whose errors are flagged only at a later unbalanced symbol let corrupted
octets out before the threshold trips, which is what a threshold is for.

Agreement: on a fixed subset, the stepped and fast runs give the same
report and output; for each F, a capture of a clean run replays to the
live run's release cycle and output.  Deterministic latency across
skews is not asserted here: it does not hold yet for every pair.
"""

import dataclasses

import numpy as np
import pytest

from jesd204b_sim.captures import FORMAT_SYMBOL10, Capture
from jesd204b_sim.cli import decode_capture
from jesd204b_sim.config import ConfigError, LinkConfig
from jesd204b_sim.sim_harness import ChannelSpec, Simulation, SysrefSpec
from jesd204b_sim.tx_model import PayloadSpec


def _accepted(F, K):
    try:
        LinkConfig(L=2, F=F, K=K)
    except ConfigError:
        return False
    return True


PAIRS = [(F, K) for F in range(4, 33, 4) for K in range(1, 33) if _accepted(F, K)]


def _release_bound(fk):
    """A bound on the first release at skews 0 and F*K/2: SYSREF at cycle
    8, the idle fill and the skew, then CGS, the four alignment
    multiframes and the release phase, which fit in seven multiframes."""
    return 8 + (32 + fk // 2) // 4 + 7 * fk // 4 + 32


def _burst_run(L, F, K, fast=True, collect_output=False):
    """The run with one flip after the first release; returns (sim, report,
    burst cycle)."""
    cfg = LinkConfig(L=L, F=F, K=K, error_threshold=1)
    fk = F * K
    burst = _release_bound(fk)
    skew = [lane * (fk // 2) // (L - 1) for lane in range(L)] if L > 1 else [fk // 2]
    channel = ChannelSpec(skew=skew, error_positions=[(0, 40 * burst + 3)])
    sim = Simulation(cfg, payload=PayloadSpec(seed=64 * F + K), channel=channel,
                     collect_output=collect_output)
    return sim, sim.run(2 * burst + 64, fast=fast), burst


def test_every_accepted_pair_is_enumerated():
    assert len(PAIRS) == 248


@pytest.mark.parametrize("L", [1, 2, 32])
@pytest.mark.parametrize("F", range(4, 33, 4))
def test_recovery_after_a_burst(L, F):
    failed = []
    Ks = [k for f, k in PAIRS if f == F]
    for K in Ks if L < 32 else (Ks[0], Ks[-1]):
        sim, rep, burst = _burst_run(L, F, K)
        releases = [int(line.split()[0].removeprefix("cycle="))
                    for line in rep.event_log if " event=release " in line]
        data_cycle = dict(sim.tx.data_segments)
        latencies = [4 * (cycle - data_cycle[seg.m0])
                     for cycle, seg in zip(releases, sim.segments)]
        if not (rep.resync_count == 1 and rep.payload_match and len(releases) == 2
                and releases[0] < burst and rep.flips_pre_release == 0
                and latencies == [rep.total_latency_octets] * 2):
            failed.append((K, rep.resync_count, rep.payload_match, releases,
                           latencies, burst))
    assert failed == []


@pytest.mark.parametrize("L,F,K", [(1, 4, 5), (2, 4, 32), (2, 8, 8), (1, 12, 5),
                                   (2, 16, 17), (1, 20, 13), (2, 28, 9), (2, 32, 32),
                                   (32, 4, 5), (32, 12, 32), (32, 20, 1), (32, 32, 32)])
def test_stepped_and_fast_agree(L, F, K):
    runs = [_burst_run(L, F, K, fast, collect_output=True) for fast in (False, True)]
    (stepped, stepped_rep, _), (fast, fast_rep, _) = runs
    reports = [dataclasses.asdict(rep) for rep in (stepped_rep, fast_rep)]
    assert reports[1].pop("fast_path_used") and not reports[0].pop("fast_path_used")
    assert reports[0] == reports[1]
    assert [s.m0 for s in stepped.segments] == [s.m0 for s in fast.segments]
    for a, b in zip(stepped.segments, fast.segments):
        assert all(np.array_equal(x, y) for x, y in zip(a.arrays(), b.arrays()))


@pytest.mark.parametrize("F", range(4, 33, 4))
def test_replay_of_one_capture_per_F(F):
    K = max(k for f, k in PAIRS if f == F and f * k <= 256)
    cfg, fk = LinkConfig(L=2, F=F, K=K), F * K
    sim = Simulation(cfg, payload=PayloadSpec(seed=64 * F + K),
                     channel=ChannelSpec(skew=[0, fk // 2]),
                     collect_output=True, collect_received=True)
    rep = sim.run(_release_bound(fk) + 64)
    cap = Capture(FORMAT_SYMBOL10, cfg, 0, symbols=sim.received_symbols)
    rx, segments = decode_capture(cap, SysrefSpec(), ilas=sim.tx.ilas_base)
    assert rep.t_release > 0 and rx.t_release == rep.t_release
    assert len(segments) == len(sim.segments) == 1 and segments[0].off > 0
    for a, b in zip(segments, sim.segments):
        assert all(np.array_equal(x, y) for x, y in zip(a.arrays(), b.arrays()))
