"""End-to-end harness: exactness, impairments, determinism, measurements."""

import dataclasses

import numpy as np
import pytest

from jesd204b_sim.codec8b10b import CTRL_FLAG, K_K, RD_NEG, decode_stream, serialize
from jesd204b_sim.config import LinkConfig, ParseError
from jesd204b_sim.sim_harness import (ChannelSpec, SimConfigError, Simulation,
                                      SysrefSpec, measure_latency_determinism,
                                      run_multi_link, run_simulation)
from jesd204b_sim.tx_model import PayloadSpec

CFG = LinkConfig(L=2, F=4, K=32, scrambling=1)
PAY = PayloadSpec(kind="random", seed=3, channels=16)
IDLE = ChannelSpec().base_idle_octets


def received(channel, duration):
    """The run's report and the line symbols each lane received."""
    sim = Simulation(CFG, payload=PAY, channel=channel, collect_received=True)
    rep = sim.run(duration)
    return rep, sim.received_symbols


def first_comma(symbols):
    chars, _ = decode_stream(symbols, RD_NEG)
    return int(np.flatnonzero(chars == CTRL_FLAG | K_K)[0])


class TestCleanRuns:
    def test_hardware_config_clean_channel_exact(self):
        rep = run_simulation(CFG, payload=PAY, duration=4000)
        assert rep.sync_achieved and rep.payload_match
        assert rep.resync_count == 0
        assert rep.payload_octets_compared > 10000
        assert sum(rep.error_counts.values()) == 0

    def test_scrambling_off_exact(self):
        cfg = LinkConfig(L=2, F=4, K=32, scrambling=0)
        rep = run_simulation(cfg, payload=PAY, duration=4000)
        assert rep.payload_match and rep.resync_count == 0

    @pytest.mark.parametrize("L,F,K", [(1, 4, 32), (2, 8, 16), (4, 4, 32),
                                       (2, 16, 8), (3, 4, 9), (8, 4, 32)])
    def test_other_geometries(self, L, F, K):
        cfg = LinkConfig(L=L, F=F, K=K)
        rep = run_simulation(cfg, payload=PAY, duration=6000)
        assert rep.payload_match and rep.resync_count == 0, rep.error_counts

    def test_multi_link_shared_sysref(self):
        cfg = LinkConfig(L=2, F=4, K=32, links=2)
        reports = run_multi_link(cfg, payload=PAY, duration=2500)
        assert len(reports) == 2
        assert all(r.payload_match for r in reports)
        assert len({r.total_latency_octets for r in reports}) == 1


class TestSetupErrors:
    def test_wrong_skew_length_is_config_error(self):
        with pytest.raises(SimConfigError, match="skew entries"):
            run_simulation(CFG, channel=ChannelSpec(skew=[0, 0, 0]), duration=100)

    def test_nonpositive_duration_is_config_error(self):
        with pytest.raises(SimConfigError, match="duration"):
            run_simulation(CFG, duration=0)

    @pytest.mark.parametrize("duration", [np.int64(300), True, 100.5],
                             ids=["numpy-int64", "bool", "float"])
    def test_non_int_duration_is_config_error(self, duration):
        # Accepted, these failed later: a TypeError in report.to_json(),
        # a one-cycle run reported as "duration_cycles": true, or a
        # TypeError from a slice.
        with pytest.raises(SimConfigError, match="duration"):
            run_simulation(LinkConfig(L=2, F=4, K=32), duration=duration)

    @pytest.mark.parametrize("n_trials", [True, 2.5, np.int64(2), 0],
                             ids=["bool", "float", "numpy-int64", "zero"])
    def test_n_trials_must_be_a_positive_int(self, n_trials):
        with pytest.raises(ValueError, match="n_trials"):
            measure_latency_determinism(CFG, n_trials)

    @pytest.mark.parametrize("skew_range", [(5, 2), (0.5, 3), (True, 3), (-3, 4)],
                             ids=["reversed", "float", "bool", "negative"])
    def test_skew_range_must_be_ordered_non_negative_ints(self, skew_range):
        # Accepted, these failed inside numpy ("low >= high") or ran with
        # a float, bool or negative skew bound.
        with pytest.raises(ValueError, match="skew_range"):
            measure_latency_determinism(CFG, 1, skew_range=skew_range)

    @pytest.mark.parametrize("name,make", [
        ("channels", lambda: PayloadSpec(channels=np.int64(4))),
        ("seed", lambda: PayloadSpec(seed=np.int64(7))),
        ("skew", lambda: ChannelSpec(skew=[np.int64(5), np.int64(38)])),
        ("first_cycle", lambda: SysrefSpec(first_cycle=np.int64(8))),
    ])
    def test_numpy_integer_rejected_by_name(self, name, make):
        # Accepted, these failed later: a false FieldOverflow while packing
        # the ILAS image, or a TypeError in report.to_json().
        with pytest.raises(ParseError, match=name):
            make()

    def test_doomed_but_legal_setup_reports_fault_instead(self):
        # Skew beyond the buffer capacity must come back as a reported
        # overflow, not an exception.
        cfg = dataclasses.replace(CFG, buffer_depth=64)
        rep = run_simulation(cfg, payload=PAY,
                             channel=ChannelSpec(skew=[0, 100]), duration=1500)
        assert rep.error_counts["buffer_overflow"] >= 1
        assert not rep.payload_match

    @pytest.mark.parametrize("depth, t_release, overflows",
                             [(92, 230, False), (91, -1, True)])
    def test_overflow_boundary_on_the_bench_link(self, depth, t_release, overflows):
        # With zero skew each lane's buffer peaks at 92 octets on the
        # release cycle, 230: a buffer of exactly that many octets does not
        # overflow, one octet less overflows on every bring-up.
        cfg = dataclasses.replace(CFG, buffer_depth=depth)
        rep = run_simulation(cfg, channel=ChannelSpec(skew=[0, 0]), duration=20_000)
        assert rep.t_release == t_release
        assert (rep.error_counts["buffer_overflow"] > 0) is overflows


class TestSkew:
    def test_zero_skew_adds_no_delay(self):
        _, lanes = received(ChannelSpec(skew=[0, 0]), 100)
        assert [first_comma(syms) for syms in lanes] == [IDLE, IDLE]

    def test_skew_delays_first_comma_by_octets(self):
        for skew in ([0, 5], [7, 2]):
            _, lanes = received(ChannelSpec(skew=skew), 100)
            assert [first_comma(syms) - IDLE for syms in lanes] == skew

    def test_lane_skew_shifts_ilas_start(self):
        sim0 = Simulation(CFG, payload=PAY, channel=ChannelSpec(skew=[0, 0]))
        sim5 = Simulation(CFG, payload=PAY, channel=ChannelSpec(skew=[0, 5]))
        sim0.run(1200)
        sim5.run(1200)

        def ilas_cycle(rx, lane):
            for (c, l, name, _) in rx.events:
                if name == "ilas_start" and l == lane:
                    return c
            return -1
        assert ilas_cycle(sim5.rx, 1) >= ilas_cycle(sim0.rx, 1) + 1
        assert ilas_cycle(sim5.rx, 0) == ilas_cycle(sim0.rx, 0)

    def test_random_skews_within_tolerance_all_match(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            skews = [int(s) for s in rng.integers(0, CFG.fk // 2 + 1, CFG.L)]
            rep = run_simulation(CFG, payload=PAY,
                                 channel=ChannelSpec(skew=skews), duration=2000)
            assert rep.payload_match and rep.resync_count == 0, skews


class TestBitErrors:
    def test_rate_zero_is_identity(self):
        rep, lanes = received(ChannelSpec(bit_error_rate=0.0, rng_seed=5), 1500)
        _, clean = received(ChannelSpec(), 1500)
        assert rep.flips_injected == 0 and rep.payload_match
        assert all((a == b).all() for a, b in zip(lanes, clean))

    def test_explicit_positions_flip_exactly(self):
        # All flips land before the link leaves CGS, so the transmitter's
        # output is the same and the line differs in exactly those bits.
        positions = [(0, 3), (1, 17), (1, 17), (0, 40 * 30 + 9)]
        rep, lanes = received(ChannelSpec(error_positions=positions), 40)
        clean_rep, clean = received(ChannelSpec(), 40)
        assert rep.t_sync_deassert == clean_rep.t_sync_deassert == -1
        assert rep.flips_injected == 4  # the duplicate counts twice
        diff = [np.flatnonzero(serialize(a) != serialize(b)).tolist()
                for a, b in zip(lanes, clean)]
        assert diff == [[3, 40 * 30 + 9], []]  # lane 1's two flips cancel

    def test_fixed_seed_reproducible(self):
        channel = ChannelSpec(bit_error_rate=1e-3, rng_seed=5)
        rep1, lanes1 = received(channel, 500)
        rep2, lanes2 = received(channel, 500)
        _, other = received(dataclasses.replace(channel, rng_seed=6), 500)
        assert rep1.flips_injected == rep2.flips_injected > 0
        assert all((a == b).all() for a, b in zip(lanes1, lanes2))
        assert any((a != b).any() for a, b in zip(lanes1, other))

    def test_flip_on_missing_lane_is_config_error(self):
        channel = ChannelSpec(error_positions=[(5, 28003)])
        with pytest.raises(SimConfigError, match=r"lane\(s\) \[5\]"):
            run_simulation(CFG, channel=channel, duration=1000)

    def test_negative_flip_index_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ChannelSpec(error_positions=[(0, -7)])

    def test_cgs_flip_recovers_and_syncs(self):
        # One comma corrupted during group sync: the run restarts and the
        # link still comes up cleanly.
        channel = ChannelSpec(skew=[0, 0], error_positions=[(0, 40 * 12 + 7)])
        rep = run_simulation(CFG, payload=PAY, channel=channel, duration=3000)
        assert rep.sync_achieved and rep.payload_match
        assert rep.resync_count == 0
        assert rep.flips_injected == 1 and rep.flips_pre_release == 1

    @pytest.mark.parametrize("fast", [False, True], ids=["stepped", "fast"])
    @pytest.mark.parametrize("bit, pre_release", [(9239, 1), (9240, 0)])
    def test_pre_release_ends_with_the_release_cycle(self, bit, pre_release, fast):
        # The link releases on cycle 230, whose last line bit is
        # 40 * 231 - 1 = 9239: a flip there is pre-release, one bit later not.
        channel = ChannelSpec(error_positions=[(0, bit)])
        rep = Simulation(CFG, payload=PAY, channel=channel).run(400, fast=fast)
        assert rep.t_release == 230 and rep.flips_injected == 1
        assert rep.flips_pre_release == pre_release

    def test_injection_soundness_every_flip_accounted(self):
        # Flips land in live data, below the resync threshold and spaced
        # beyond the scrambler's error-multiplication span: each one must
        # show up as a decode-error flag or as corrupted output octets.
        positions = [(0, 40 * 700 + 5), (1, 40 * 1100 + 21), (0, 40 * 1500 + 33)]
        channel = ChannelSpec(skew=[0, 4], error_positions=positions)
        rep = run_simulation(CFG, payload=PAY, channel=channel, duration=2500)
        assert rep.resync_count == 0
        assert rep.flips_injected == 3
        flagged = (rep.error_counts["not_in_table"]
                   + rep.error_counts["disparity_error"])
        assert flagged + rep.payload_mismatch_octets >= 3
        assert not rep.payload_match

    def test_burst_above_threshold_single_resync_then_exact(self):
        positions = [(0, 40 * (800 + i) + 11) for i in range(6)]
        channel = ChannelSpec(skew=[0, 12], error_positions=positions)
        rep = run_simulation(CFG, payload=PAY, channel=channel, duration=8000)
        assert rep.resync_count == 1
        assert rep.payload_match  # post-resync segment compares exact
        assert rep.sync_achieved

    def test_random_rate_run_reports_errors(self):
        channel = ChannelSpec(skew=[0, 0], bit_error_rate=2e-4, rng_seed=9)
        rep = run_simulation(CFG, payload=PAY, channel=channel, duration=4000)
        assert rep.flips_injected > 0
        # clean spans between flips take the fast path, with stepped output
        assert rep.fast_path_used
        slow = run_simulation(CFG, payload=PAY, channel=channel, duration=4000,
                              fast=False)
        d_fast, d_slow = dataclasses.asdict(rep), dataclasses.asdict(slow)
        d_fast.pop("fast_path_used")
        d_slow.pop("fast_path_used")
        assert d_fast == d_slow

    def test_memory_bounded_under_bit_errors(self, monkeypatch):
        # Peak memory depends on the chunk size, not on the run length.
        # Chunks double up to the cap while no fault occurs; a small cap
        # lets both runs reach it, so only growth with length remains.
        import tracemalloc
        import jesd204b_sim.sim_harness as sh
        monkeypatch.setattr(sh, "_TAIL_CHUNK_CYCLES", 1 << 12)

        def peak(cycles):
            sim = Simulation(CFG, payload=PAY,
                             channel=ChannelSpec(skew=[5, 38], bit_error_rate=1e-5,
                                                 rng_seed=2))
            tracemalloc.start()
            try:
                rep = sim.run(cycles)
                return tracemalloc.get_traced_memory()[1], rep
            finally:
                tracemalloc.stop()

        small, _ = peak(40_000)
        large, rep = peak(160_000)
        assert rep.flips_injected > 0 and rep.sync_achieved
        assert large < 2 * small


class TestDeterminism:
    def test_second_run_repeats_the_first(self):
        sim = Simulation(CFG, payload=PAY, channel=ChannelSpec(skew=[2, 7]))
        first = sim.run(2000).to_json()
        assert sim.run(2000).to_json() == first

    def test_sysref_schedule_is_pure(self):
        spec = SysrefSpec(first_cycle=8, period_multiframes=4)
        period = 4 * CFG.fk // 4
        assert spec.pulse(8, CFG.fk) and spec.pulse(8 + period, CFG.fk)
        assert not spec.pulse(7, CFG.fk) and not spec.pulse(9, CFG.fk)
        assert SysrefSpec(period_multiframes=None).pulse(8, CFG.fk)
        assert not SysrefSpec(period_multiframes=None).pulse(8 + period, CFG.fk)
        assert not SysrefSpec(first_cycle=None).pulse(8, CFG.fk)
        assert spec == SysrefSpec(first_cycle=8, period_multiframes=4)

    def test_first_tx_boundary_matches_a_scan(self):
        # Against the definition, cycle by cycle: the transmitter's
        # multiframe starts on each c >= first_cycle with
        # (c - first_cycle - offset // 4) % (F*K // 4) == 0.
        rng = np.random.default_rng(24)
        drawn = set()
        for _ in range(600):
            fk = 4 * int(rng.integers(1, 65))
            mf = fk // 4
            t0 = int(rng.integers(0, 300))
            n = int(rng.integers(1, 3 * mf + 2))
            first = (None if rng.random() < 0.1
                     else max(0, t0 + int(rng.integers(-3 * mf, 3 * mf + 1))))
            offset = 4 * int(rng.integers(-2 * mf, 2 * mf + 1))
            spec = SysrefSpec(first_cycle=first, tx_phase_offset_octets=offset)
            want = next((c - t0 for c in range(t0, t0 + n)
                         if first is not None and c >= first
                         and (c - first - offset // 4) % mf == 0), None)
            assert spec.first_tx_boundary(t0, n, fk) == want, (spec, t0, n, fk)
            drawn |= {"never" if first is None else
                      "late" if first > t0 + mf else "early",
                      "negative" if offset < 0 else "positive",
                      "short" if n < mf else "long" if n > mf else "one",
                      "hit" if want is not None else "miss"}
        assert drawn == {"never", "late", "early", "negative", "positive",
                         "short", "long", "one", "hit", "miss"}

    def test_identical_runs_byte_identical_reports(self):
        kw = dict(payload=PAY, channel=ChannelSpec(skew=[2, 7], rng_seed=1),
                  duration=3000)
        r1 = run_simulation(CFG, **kw)
        r2 = run_simulation(CFG, **kw)
        assert r1.to_json() == r2.to_json()
        assert r1.event_log == r2.event_log

    def test_latency_constant_across_skews(self):
        sweep = measure_latency_determinism(CFG, 10, seed=21, payload=PAY)
        assert sweep.all_synced and sweep.deterministic
        assert len(set(sweep.latencies)) == 1
        assert len(set(sweep.release_phases)) == 1

    def test_single_trial_trivially_deterministic(self):
        sweep = measure_latency_determinism(CFG, 1, seed=5, payload=PAY)
        assert sweep.deterministic

    def test_sysref_phase_shift_changes_latency(self):
        # Negative control: moving the transmitter grid against SYSREF
        # must move the measured latency.
        base = measure_latency_determinism(CFG, 4, seed=3, payload=PAY)
        shifted = measure_latency_determinism(
            CFG, 4, seed=3, payload=PAY,
            sysref=SysrefSpec(tx_phase_offset_octets=24))
        assert base.deterministic and shifted.deterministic
        assert base.latencies[0] != shifted.latencies[0]

    def test_sysref_arrival_cycle_does_not_matter(self):
        # Later SYSREF start (whole periods) leaves the latency alone.
        lat = []
        for first in (8, 8 + 32, 8 + 64):
            rep = run_simulation(CFG, payload=PAY,
                                 channel=ChannelSpec(skew=[4, 11]),
                                 sysref=SysrefSpec(first_cycle=first),
                                 duration=3000)
            lat.append(rep.total_latency_octets)
        assert len(set(lat)) == 1


class TestFastPathEquivalence:
    @pytest.mark.parametrize("skews", [[0, 0], [3, 9]])
    def test_stepped_and_fast_outputs_identical(self, skews):
        kw = dict(payload=PAY, channel=ChannelSpec(skew=skews))
        sims = []
        for fast in (False, True):
            sim = Simulation(CFG, **kw, collect_output=True)
            rep = sim.run(24000, fast=fast)
            sims.append((sim, rep))
        (s_slow, r_slow), (s_fast, r_fast) = sims
        assert r_fast.fast_path_used and not r_slow.fast_path_used
        d1 = dataclasses.asdict(r_slow)
        d2 = dataclasses.asdict(r_fast)
        d1.pop("fast_path_used")
        d2.pop("fast_path_used")
        assert d1 == d2
        for seg_a, seg_b in zip(s_slow.segments, s_fast.segments):
            for a, b in zip(seg_a.arrays(), seg_b.arrays()):
                assert a.shape == b.shape and (a == b).all()

    def test_fast_path_spans_chunk_boundaries(self):
        import jesd204b_sim.sim_harness as sh
        old = sh._TAIL_CHUNK_CYCLES
        sh._TAIL_CHUNK_CYCLES = 1024
        try:
            sim = Simulation(CFG, payload=PAY, channel=ChannelSpec(skew=[1, 6]),
                             collect_output=True)
            rep = sim.run(10000, fast=True)
        finally:
            sh._TAIL_CHUNK_CYCLES = old
        assert rep.fast_path_used and rep.payload_match

    def test_codec_skip_needs_equal_disparities(self, monkeypatch):
        # A flip in a chunk's last symbols can leave the decoder's disparity
        # off the encoder's at the chunk end.  The next, flip-free chunk
        # must then run the codec, which flags its first unbalanced symbol;
        # passing it straight through would hide that error.
        import jesd204b_sim.sim_harness as sh
        monkeypatch.setattr(sh, "_TAIL_CHUNK_CYCLES", 1024)
        starts = []
        advance = Simulation._advance

        def recording(self, t0, n_cycles, *args):
            if n_cycles == 1024:
                starts.append(t0)
            return advance(self, t0, n_cycles, *args)

        channel = ChannelSpec(skew=[1, 6])
        monkeypatch.setattr(Simulation, "_advance", recording)
        Simulation(CFG, payload=PAY, channel=channel).run(4000)
        monkeypatch.setattr(Simulation, "_advance", advance)
        ends = [t0 + 1024 for t0 in starts[:2]]
        assert len(ends) == 2
        for end in ends:
            for lane in range(CFG.L):
                for k in range(8):   # the last bit of symbol 4 * end - 1 - k
                    flipped = dataclasses.replace(
                        channel, error_positions=[(lane, 40 * end - 10 * k - 1)])
                    sims = [Simulation(CFG, payload=PAY, channel=flipped,
                                       collect_output=True) for _ in range(2)]
                    reps = [dataclasses.asdict(sim.run(ends[-1] + 1024, fast=fast))
                            for sim, fast in zip(sims, (True, False))]
                    for rep in reps:
                        rep.pop("fast_path_used")
                    assert reps[0] == reps[1], (end, lane, k)
                    for seg_a, seg_b in zip(sims[0].segments, sims[1].segments):
                        for a, b in zip(seg_a.arrays(), seg_b.arrays()):
                            assert np.array_equal(a, b), (end, lane, k)


class TestSyncTimeBound:
    def test_clean_sync_within_documented_budget(self):
        # Sequence length (4 F K) plus two multiframes of margin, in
        # octets from the sync deassertion.
        budget_frames = (4 * CFG.fk + 2 * CFG.fk) / CFG.F
        for seed in range(10):
            rep = run_simulation(
                CFG, payload=dataclasses.replace(PAY, seed=seed),
                channel=ChannelSpec(base_idle_octets=24 + 4 * (seed % 3)),
                duration=2500)
            assert rep.sync_achieved
            assert 0 < rep.sync_frames_from_sync_deassert <= budget_frames


class TestReportSurface:
    def test_event_log_format(self):
        rep = run_simulation(CFG, payload=PAY, duration=2000)
        assert rep.event_log
        for line in rep.event_log:
            fields = line.split(" ", 3)
            assert fields[0].startswith("cycle=")
            assert fields[1].startswith("lane=")
            assert fields[2].startswith("event=")
            assert fields[3].startswith("detail=")

    def test_report_json_round_trips(self):
        import json
        rep = run_simulation(CFG, payload=PAY, duration=1500)
        data = json.loads(rep.to_json())
        assert data["payload_match"] is True
        assert data["config"]["F"] == 4

    def test_sysref_never_reports_no_sync(self):
        rep = run_simulation(CFG, payload=PAY,
                             sysref=SysrefSpec(first_cycle=None), duration=1500)
        assert not rep.sync_achieved
        assert rep.t_release == -1 and rep.total_latency_octets == -1

    def test_misaligned_sysref_flagged_not_fatal(self):
        # A one-shot SYSREF locks the LMFC once, which is enough to sync;
        # a period of one multiframe puts every edge on a boundary.
        rep = run_simulation(
            CFG, payload=PAY,
            sysref=SysrefSpec(first_cycle=8, period_multiframes=None),
            duration=1500)
        assert rep.sync_achieved  # one-shot lock is enough
        rep2 = run_simulation(
            CFG, payload=PAY,
            sysref=dataclasses.replace(SysrefSpec(), period_multiframes=1),
            duration=1500)
        assert rep2.error_counts["sysref_misaligned"] == 0  # aligned period


class TestLongRunSmoke:
    def test_half_million_cycles_clean(self):
        rep = run_simulation(CFG, payload=PAY, channel=ChannelSpec(skew=[5, 38]),
                             duration=500_000)
        assert rep.payload_match and rep.resync_count == 0
        assert rep.payload_octets_compared > 3_900_000
        assert sum(rep.error_counts.values()) == 0

    def test_memory_bounded_on_the_clean_tail(self):
        # Both runs reach the real chunk cap, so a longer clean run may
        # not need more memory.
        import tracemalloc

        def peak(cycles):
            sim = Simulation(CFG, payload=PAY, channel=ChannelSpec(skew=[5, 38]))
            tracemalloc.start()
            try:
                rep = sim.run(cycles)
                return tracemalloc.get_traced_memory()[1], rep
            finally:
                tracemalloc.stop()

        small, _ = peak(1 << 18)
        large, rep = peak(1 << 20)
        assert rep.payload_match and rep.fast_path_used and rep.resync_count == 0
        assert large <= 1.25 * small


@pytest.mark.parametrize("make,exc,message", [
    (lambda: SysrefSpec(tx_phase_offset_octets=6), ValueError,
     "tx_phase_offset_octets must be a multiple of 4"),
    (lambda: ChannelSpec(skew=5), ParseError, "channel.skew: got 5, allowed a list"),
    (lambda: ChannelSpec(bit_error_rate=1e-5, error_positions=[(0, 3)]), ValueError,
     "bit_error_rate and error_positions are mutually exclusive"),
], ids=["sysref-offset", "skew-not-a-list", "rate-and-positions"])
def test_spec_rejections_named(make, exc, message):
    with pytest.raises(exc) as info:
        make()
    assert type(info.value) is exc and str(info.value) == message
